#include "sql/parser.h"

#include <cstdlib>

#include "common/chrono.h"
#include "sql/lexer.h"

namespace bih {
namespace sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Status ParseDmlStatement(DmlStatement* out) {
    if (Accept("INSERT")) {
      out->kind = DmlStatement::Kind::kInsert;
      BIH_RETURN_IF_ERROR(Expect("INTO"));
      BIH_RETURN_IF_ERROR(ExpectIdent(&out->table));
      BIH_RETURN_IF_ERROR(Expect("VALUES"));
      BIH_RETURN_IF_ERROR(Expect("("));
      do {
        SqlExprPtr v;
        BIH_RETURN_IF_ERROR(ParseExpr(&v));
        out->values.push_back(std::move(v));
      } while (Accept(","));
      BIH_RETURN_IF_ERROR(Expect(")"));
    } else if (Accept("UPDATE")) {
      out->kind = DmlStatement::Kind::kUpdate;
      BIH_RETURN_IF_ERROR(ExpectIdent(&out->table));
      BIH_RETURN_IF_ERROR(ParsePortion(out));
      BIH_RETURN_IF_ERROR(Expect("SET"));
      do {
        std::string col;
        BIH_RETURN_IF_ERROR(ExpectIdent(&col));
        BIH_RETURN_IF_ERROR(Expect("="));
        SqlExprPtr v;
        BIH_RETURN_IF_ERROR(ParseExpr(&v));
        out->assignments.emplace_back(std::move(col), std::move(v));
      } while (Accept(","));
      if (Accept("WHERE")) {
        BIH_RETURN_IF_ERROR(ParseExpr(&out->where));
      }
    } else if (Accept("DELETE")) {
      out->kind = DmlStatement::Kind::kDelete;
      BIH_RETURN_IF_ERROR(Expect("FROM"));
      BIH_RETURN_IF_ERROR(ExpectIdent(&out->table));
      BIH_RETURN_IF_ERROR(ParsePortion(out));
      if (Accept("WHERE")) {
        BIH_RETURN_IF_ERROR(ParseExpr(&out->where));
      }
    } else {
      return Error("expected INSERT, UPDATE or DELETE");
    }
    Accept(";");
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input: '" + Peek().text + "'");
    }
    return Status::OK();
  }

  Status Parse(SelectStatement* out) {
    BIH_RETURN_IF_ERROR(Expect("SELECT"));
    out->distinct = Accept("DISTINCT");
    if (Accept("*")) {
      out->select_star = true;
    } else {
      do {
        SelectItem item;
        BIH_RETURN_IF_ERROR(ParseExpr(&item.expr));
        if (Accept("AS")) {
          BIH_RETURN_IF_ERROR(ExpectIdent(&item.alias));
        } else if (Peek().type == TokenType::kIdent && !IsClauseKeyword()) {
          item.alias = Peek().text;
          Advance();
        }
        out->items.push_back(std::move(item));
      } while (Accept(","));
    }
    BIH_RETURN_IF_ERROR(Expect("FROM"));
    BIH_RETURN_IF_ERROR(ParseTableRef(&out->from));
    while (Accept("INNER") || Check("JOIN")) {
      BIH_RETURN_IF_ERROR(Expect("JOIN"));
      Join join;
      BIH_RETURN_IF_ERROR(ParseTableRef(&join.table));
      BIH_RETURN_IF_ERROR(Expect("ON"));
      BIH_RETURN_IF_ERROR(ParseExpr(&join.on));
      out->joins.push_back(std::move(join));
    }
    if (Accept("WHERE")) {
      BIH_RETURN_IF_ERROR(ParseExpr(&out->where));
    }
    if (Accept("GROUP")) {
      BIH_RETURN_IF_ERROR(Expect("BY"));
      do {
        SqlExprPtr e;
        BIH_RETURN_IF_ERROR(ParseExpr(&e));
        out->group_by.push_back(std::move(e));
      } while (Accept(","));
    }
    if (Accept("HAVING")) {
      BIH_RETURN_IF_ERROR(ParseExpr(&out->having));
    }
    if (Accept("ORDER")) {
      BIH_RETURN_IF_ERROR(Expect("BY"));
      do {
        OrderItem item;
        BIH_RETURN_IF_ERROR(ParseExpr(&item.expr));
        if (Accept("DESC")) {
          item.ascending = false;
        } else {
          Accept("ASC");
        }
        out->order_by.push_back(std::move(item));
      } while (Accept(","));
    }
    if (Accept("LIMIT")) {
      if (Peek().type != TokenType::kNumber) {
        return Error("LIMIT expects a number");
      }
      out->limit = std::strtoll(Peek().text.c_str(), nullptr, 10);
      Advance();
    }
    Accept(";");
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input: '" + Peek().text + "'");
    }
    return Status::OK();
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() { ++pos_; }
  bool Check(const std::string& text) const { return Peek().text == text; }
  bool Accept(const std::string& text) {
    if (Check(text)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(const std::string& text) {
    if (!Accept(text)) {
      return Error("expected '" + text + "' but found '" + Peek().text + "'");
    }
    return Status::OK();
  }
  Status ExpectIdent(std::string* out) {
    if (Peek().type != TokenType::kIdent) {
      return Error("expected an identifier, found '" + Peek().text + "'");
    }
    *out = Peek().text;
    Advance();
    return Status::OK();
  }
  Status Error(const std::string& msg) const {
    return Status::InvalidArgument(msg + " (at offset " +
                                   std::to_string(Peek().offset) + ")");
  }

  // True when the upcoming identifier starts a clause, so it cannot be an
  // implicit alias.
  bool IsClauseKeyword() const {
    const std::string& t = Peek().text;
    return t == "FROM" || t == "WHERE" || t == "GROUP" || t == "ORDER" ||
           t == "LIMIT" || t == "JOIN" || t == "INNER" || t == "ON" ||
           t == "HAVING" || t == "FOR" || t == "AS";
  }

  // --- temporal clauses --------------------------------------------------

  // Parses a time literal: number, DATE '...' or TIMESTAMP '...'. Dates
  // resolve to day numbers for business time and to microseconds for
  // system time.
  Status ParseTimePoint(bool system_axis, int64_t* out) {
    if (Peek().type == TokenType::kNumber) {
      *out = std::strtoll(Peek().text.c_str(), nullptr, 10);
      Advance();
      return Status::OK();
    }
    bool is_date = Accept("DATE");
    bool is_ts = !is_date && Accept("TIMESTAMP");
    if (!is_date && !is_ts) {
      return Error("expected a time literal");
    }
    if (Peek().type != TokenType::kString) {
      return Error("expected a quoted date/timestamp");
    }
    std::string text = Peek().text;
    Advance();
    Date d;
    std::string date_part = text.substr(0, text.find(' '));
    if (!Date::Parse(date_part, &d)) {
      return Error("malformed date '" + text + "'");
    }
    int64_t micros = Timestamp::FromDate(d).micros();
    size_t sp = text.find(' ');
    if (sp != std::string::npos) {
      int hh = 0, mm = 0;
      double ss = 0;
      if (std::sscanf(text.c_str() + sp + 1, "%d:%d:%lf", &hh, &mm, &ss) >= 2) {
        micros += (int64_t{hh} * 3600 + int64_t{mm} * 60) *
                      Timestamp::kMicrosPerSecond +
                  static_cast<int64_t>(ss * 1e6);
      }
    }
    *out = system_axis || is_ts ? micros : int64_t{d.days()};
    return Status::OK();
  }

  Status ParseTemporalClause(TableRef* ref) {
    // Caller consumed FOR.
    bool system_axis;
    if (Accept("SYSTEM_TIME")) {
      system_axis = true;
    } else if (Accept("BUSINESS_TIME")) {
      system_axis = false;
      // Optional period name (tables can carry several application times).
      if (Peek().type == TokenType::kIdent && !Check("AS") && !Check("ALL") &&
          !Check("FROM")) {
        ref->app_period = Peek().text;
        Advance();
      }
    } else {
      return Error("expected SYSTEM_TIME or BUSINESS_TIME after FOR");
    }
    TemporalSelector sel;
    if (Accept("AS")) {
      BIH_RETURN_IF_ERROR(Expect("OF"));
      int64_t t;
      BIH_RETURN_IF_ERROR(ParseTimePoint(system_axis, &t));
      sel = TemporalSelector::AsOf(t);
    } else if (Accept("FROM")) {
      int64_t a, b;
      BIH_RETURN_IF_ERROR(ParseTimePoint(system_axis, &a));
      BIH_RETURN_IF_ERROR(Expect("TO"));
      BIH_RETURN_IF_ERROR(ParseTimePoint(system_axis, &b));
      sel = TemporalSelector::Between(a, b);
    } else if (Accept("ALL")) {
      sel = TemporalSelector::All();
    } else {
      return Error("expected AS OF, FROM .. TO, or ALL");
    }
    if (system_axis) {
      ref->system_time = sel;
    } else {
      ref->app_time = sel;
      ref->has_app_clause = true;
    }
    return Status::OK();
  }

  // [FOR PORTION OF <period> FROM <t1> TO <t2>] — SQL:2011 sequenced DML.
  Status ParsePortion(DmlStatement* out) {
    if (!Accept("FOR")) return Status::OK();
    BIH_RETURN_IF_ERROR(Expect("PORTION"));
    BIH_RETURN_IF_ERROR(Expect("OF"));
    BIH_RETURN_IF_ERROR(ExpectIdent(&out->portion_period));
    BIH_RETURN_IF_ERROR(Expect("FROM"));
    BIH_RETURN_IF_ERROR(ParseTimePoint(false, &out->portion_from));
    BIH_RETURN_IF_ERROR(Expect("TO"));
    BIH_RETURN_IF_ERROR(ParseTimePoint(false, &out->portion_to));
    out->has_portion = true;
    return Status::OK();
  }

  Status ParseTableRef(TableRef* ref) {
    BIH_RETURN_IF_ERROR(ExpectIdent(&ref->table));
    while (Accept("FOR")) {
      BIH_RETURN_IF_ERROR(ParseTemporalClause(ref));
    }
    if (Peek().type == TokenType::kIdent && !IsClauseKeyword()) {
      ref->alias = Peek().text;
      Advance();
    } else {
      ref->alias = ref->table;
    }
    // Temporal clauses may also follow the alias (Teradata style).
    while (Accept("FOR")) {
      BIH_RETURN_IF_ERROR(ParseTemporalClause(ref));
    }
    return Status::OK();
  }

  // --- expressions ---------------------------------------------------------

  Status ParseExpr(SqlExprPtr* out) { return ParseOr(out); }

  Status ParseOr(SqlExprPtr* out) {
    BIH_RETURN_IF_ERROR(ParseAnd(out));
    while (Accept("OR")) {
      SqlExprPtr rhs;
      BIH_RETURN_IF_ERROR(ParseAnd(&rhs));
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExpr::Kind::kBinary;
      e->op = "OR";
      e->children = {*out, rhs};
      *out = std::move(e);
    }
    return Status::OK();
  }

  Status ParseAnd(SqlExprPtr* out) {
    BIH_RETURN_IF_ERROR(ParseNot(out));
    while (Accept("AND")) {
      SqlExprPtr rhs;
      BIH_RETURN_IF_ERROR(ParseNot(&rhs));
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExpr::Kind::kBinary;
      e->op = "AND";
      e->children = {*out, rhs};
      *out = std::move(e);
    }
    return Status::OK();
  }

  Status ParseNot(SqlExprPtr* out) {
    if (Accept("NOT")) {
      SqlExprPtr inner;
      BIH_RETURN_IF_ERROR(ParseNot(&inner));
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExpr::Kind::kUnary;
      e->op = "NOT";
      e->children = {inner};
      *out = std::move(e);
      return Status::OK();
    }
    return ParseComparison(out);
  }

  Status ParseComparison(SqlExprPtr* out) {
    BIH_RETURN_IF_ERROR(ParseAdditive(out));
    const std::string& t = Peek().text;
    if (t == "=" || t == "<>" || t == "<" || t == "<=" || t == ">" ||
        t == ">=") {
      std::string op = t;
      Advance();
      SqlExprPtr rhs;
      BIH_RETURN_IF_ERROR(ParseAdditive(&rhs));
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExpr::Kind::kBinary;
      e->op = op;
      e->children = {*out, rhs};
      *out = std::move(e);
      return Status::OK();
    }
    if (Accept("BETWEEN")) {
      SqlExprPtr lo, hi;
      BIH_RETURN_IF_ERROR(ParseAdditive(&lo));
      BIH_RETURN_IF_ERROR(Expect("AND"));
      BIH_RETURN_IF_ERROR(ParseAdditive(&hi));
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExpr::Kind::kBetween;
      e->children = {*out, lo, hi};
      *out = std::move(e);
      return Status::OK();
    }
    if (Accept("LIKE")) {
      if (Peek().type != TokenType::kString) {
        return Error("LIKE expects a string literal");
      }
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExpr::Kind::kLike;
      e->op = Peek().text;  // pattern
      e->children = {*out};
      Advance();
      *out = std::move(e);
      return Status::OK();
    }
    return Status::OK();
  }

  Status ParseAdditive(SqlExprPtr* out) {
    BIH_RETURN_IF_ERROR(ParseMultiplicative(out));
    while (Check("+") || Check("-")) {
      std::string op = Peek().text;
      Advance();
      SqlExprPtr rhs;
      BIH_RETURN_IF_ERROR(ParseMultiplicative(&rhs));
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExpr::Kind::kBinary;
      e->op = op;
      e->children = {*out, rhs};
      *out = std::move(e);
    }
    return Status::OK();
  }

  Status ParseMultiplicative(SqlExprPtr* out) {
    BIH_RETURN_IF_ERROR(ParsePrimary(out));
    while (Check("*") || Check("/")) {
      std::string op = Peek().text;
      Advance();
      SqlExprPtr rhs;
      BIH_RETURN_IF_ERROR(ParsePrimary(&rhs));
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExpr::Kind::kBinary;
      e->op = op;
      e->children = {*out, rhs};
      *out = std::move(e);
    }
    return Status::OK();
  }

  static bool IsAggregate(const std::string& name) {
    return name == "SUM" || name == "AVG" || name == "COUNT" ||
           name == "MIN" || name == "MAX";
  }

  Status ParsePrimary(SqlExprPtr* out) {
    auto e = std::make_shared<SqlExpr>();
    // A minus directly before a number is part of the literal, so a
    // negative bound folds into a scan like a positive one.
    const bool negative =
        Check("-") && Peek(1).type == TokenType::kNumber;
    if (negative) Advance();
    if (Peek().type == TokenType::kNumber) {
      const std::string text = (negative ? "-" : "") + Peek().text;
      e->kind = SqlExpr::Kind::kLiteral;
      if (text.find('.') == std::string::npos) {
        e->literal = Value(
            static_cast<int64_t>(std::strtoll(text.c_str(), nullptr, 10)));
      } else {
        e->literal = Value(std::strtod(text.c_str(), nullptr));
      }
      Advance();
      *out = std::move(e);
      return Status::OK();
    }
    if (Peek().type == TokenType::kString) {
      e->kind = SqlExpr::Kind::kLiteral;
      e->literal = Value(Peek().text);
      Advance();
      *out = std::move(e);
      return Status::OK();
    }
    if (Check("(")) {
      Advance();
      BIH_RETURN_IF_ERROR(ParseExpr(out));
      return Expect(")");
    }
    if (Check("-")) {
      // Unary minus over any other operand: 0 - x.
      Advance();
      SqlExprPtr inner;
      BIH_RETURN_IF_ERROR(ParsePrimary(&inner));
      auto zero = std::make_shared<SqlExpr>();
      zero->kind = SqlExpr::Kind::kLiteral;
      zero->literal = Value(int64_t{0});
      e->kind = SqlExpr::Kind::kBinary;
      e->op = "-";
      e->children = {zero, inner};
      *out = std::move(e);
      return Status::OK();
    }
    if (Peek().type != TokenType::kIdent) {
      return Error("expected an expression, found '" + Peek().text + "'");
    }
    std::string first = Peek().text;
    Advance();
    // DATE / TIMESTAMP literal.
    if ((first == "DATE" || first == "TIMESTAMP") &&
        Peek().type == TokenType::kString) {
      Date d;
      std::string text = Peek().text;
      if (!Date::Parse(text.substr(0, text.find(' ')), &d)) {
        return Error("malformed date '" + text + "'");
      }
      Advance();
      e->kind = SqlExpr::Kind::kLiteral;
      e->literal = first == "DATE" ? Value(d) : Value(Timestamp::FromDate(d));
      *out = std::move(e);
      return Status::OK();
    }
    // Aggregate call.
    if (IsAggregate(first) && Check("(")) {
      Advance();
      e->kind = SqlExpr::Kind::kAggregate;
      e->func = first;
      if (first == "COUNT" && Accept("*")) {
        auto star = std::make_shared<SqlExpr>();
        star->kind = SqlExpr::Kind::kStar;
        e->children = {star};
      } else {
        SqlExprPtr arg;
        BIH_RETURN_IF_ERROR(ParseExpr(&arg));
        e->children = {arg};
      }
      BIH_RETURN_IF_ERROR(Expect(")"));
      *out = std::move(e);
      return Status::OK();
    }
    // Column reference, possibly qualified.
    e->kind = SqlExpr::Kind::kColumn;
    if (Check(".")) {
      Advance();
      e->qualifier = first;
      BIH_RETURN_IF_ERROR(ExpectIdent(&e->name));
    } else {
      e->name = first;
    }
    *out = std::move(e);
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Status ParseSelect(const std::string& input, SelectStatement* out) {
  std::vector<Token> tokens;
  BIH_RETURN_IF_ERROR(Tokenize(input, &tokens));
  Parser parser(std::move(tokens));
  return parser.Parse(out);
}

Status ParseDml(const std::string& input, DmlStatement* out) {
  std::vector<Token> tokens;
  BIH_RETURN_IF_ERROR(Tokenize(input, &tokens));
  Parser parser(std::move(tokens));
  return parser.ParseDmlStatement(out);
}

bool LooksLikeDml(const std::string& input) {
  std::vector<Token> tokens;
  if (!Tokenize(input, &tokens).ok() || tokens.empty()) return false;
  const std::string& t = tokens[0].text;
  return t == "INSERT" || t == "UPDATE" || t == "DELETE";
}

}  // namespace sql
}  // namespace bih
