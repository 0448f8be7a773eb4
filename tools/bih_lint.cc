// bih_lint: repo-aware static checks that a generic linter cannot express.
//
// The tool walks src/, tests/, tools/ and bench/ (or the paths given on the
// command line) and enforces the house rules that keep the concurrency and
// error-handling story honest:
//
//   include-guard       every header carries a #ifndef/#define include guard
//   naked-mutex         no raw <mutex>/<shared_mutex> primitives outside the
//                       annotated wrappers in src/common/thread_annotations.h
//   ignored-status      no statement-position bare call of a function that
//                       returns bih::Status (the [[nodiscard]] attribute
//                       catches these at compile time; the lint catches them
//                       in code that is not compiled on every config, e.g.
//                       fixture sources and sanitizer-gated branches)
//   assert-side-effect  no assert() whose argument mutates state (++/--/=);
//                       NDEBUG builds would silently skip the mutation
//   scan-ctx            engine scan loops (Scan* functions in
//                       src/engine/system_*.cc) must poll the QueryContext
//                       (KeepGoing/CheckNow/MorselInterrupted) or delegate to
//                       a scan helper that does, so deadline/cancel stay
//                       responsive at any data size
//   raw-io              no direct fflush/fsync/fdatasync calls outside
//                       src/durability/ — the sanctioned sync sites there
//                       carry the BIH_NO_FSYNC gate, EINTR retries and the
//                       fault-injection hooks, and a sync elsewhere forks
//                       the durability protocol
//   raw-socket          no global-scope socket syscalls (::socket, ::bind,
//                       ::accept, ::send, ::recv, ...) outside src/net/ —
//                       the network layer is where EINTR retries, poll
//                       deadlines and the net fault-injection hooks live;
//                       everything else talks through net::Client/Server.
//                       (raw-io still applies *inside* src/net/: sockets
//                       yes, fsync no.)
//   exec-api            no operator-kernel call outside src/exec/, and no
//                       engine Scan() call under src/sql/: queries and SQL
//                       reads run as plans through Execute()
//   scan-loop           under src/engine/, only scan_util.{h,cc} calls
//                       MatchesTemporal, ParallelScanPartition or
//                       RecordIndexUse: the partition-scan loop exists once
//                       (PartitionScan) and the engines supply only how a
//                       stored slot qualifies and becomes a row
//
// Suppressions (always with a reason in the surrounding code):
//   // bih-lint: allow(<rule>)       this line or the next line
//   // bih-lint: allow-file(<rule>)  whole file, within the first 40 lines
//
// Output is "path:line: [rule] message", one finding per line, then a
// summary. Exit status 1 when anything fired, 0 on a clean tree.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/source.h"

namespace fs = std::filesystem;

namespace {

// File walking, comment/string stripping, the suppression syntax and the
// "path:line: [rule] message" output format live in tools/analysis/ and
// are shared with bih_analyze; this file holds only the lint rules.
using bih::analysis::FileText;
using bih::analysis::Finding;
using bih::analysis::FindToken;
using bih::analysis::HasSuffix;
using bih::analysis::IsHeader;
using bih::analysis::IsIdentChar;
using bih::analysis::LoadTree;
using bih::analysis::ReportFindings;
using bih::analysis::Suppressed;

// --- rule: include-guard ----------------------------------------------------

void CheckIncludeGuard(const FileText& f, std::vector<Finding>* out) {
  if (!IsHeader(f.path)) return;
  bool saw_ifndef = false, saw_define = false;
  std::string guard;
  for (const std::string& line : f.code) {
    std::istringstream is(line);
    std::string tok;
    is >> tok;
    if (!saw_ifndef) {
      if (tok == "#ifndef") {
        is >> guard;
        saw_ifndef = true;
      } else if (tok == "#pragma") {
        std::string once;
        is >> once;
        if (once == "once") return;  // accepted, though #ifndef is the idiom
      } else if (!tok.empty() && tok[0] == '#') {
        break;  // some other directive before any guard: no guard
      }
      continue;
    }
    if (tok == "#define") {
      std::string name;
      is >> name;
      if (name == guard) saw_define = true;
      break;  // the #define must directly follow the #ifndef
    }
    if (!tok.empty()) break;
  }
  if (!(saw_ifndef && saw_define)) {
    if (!Suppressed(f, 0, "include-guard")) {
      out->push_back({f.path, 1, "include-guard",
                      "header has no #ifndef/#define include guard"});
    }
  }
}

// --- rule: naked-mutex ------------------------------------------------------

const char* kNakedMutexTokens[] = {
    "std::mutex",        "std::timed_mutex",       "std::recursive_mutex",
    "std::shared_mutex", "std::shared_timed_mutex", "std::condition_variable",
    "std::condition_variable_any", "std::lock_guard", "std::unique_lock",
    "std::shared_lock",  "std::scoped_lock",
};

void CheckNakedMutex(const FileText& f, std::vector<Finding>* out) {
  for (size_t i = 0; i < f.code.size(); ++i) {
    for (const char* tok : kNakedMutexTokens) {
      if (FindToken(f.code[i], tok) != std::string::npos) {
        if (!Suppressed(f, i, "naked-mutex")) {
          out->push_back({f.path, i + 1, "naked-mutex",
                          std::string(tok) +
                              " used directly; use the annotated wrappers in "
                              "src/common/thread_annotations.h (bih::Mutex, "
                              "bih::MutexLock, bih::CondVar, ...)"});
        }
        break;  // one finding per line is enough
      }
    }
  }
}

// --- rule: raw-io -----------------------------------------------------------
//
// Durability is a protocol, not a call: every fflush/fsync/fdatasync must go
// through the sanctioned sync sites in src/durability/ (SyncFileNow,
// SyncParentDir, WalWriter), where the BIH_NO_FSYNC gate, EINTR retry and
// fault injection live. A stray fflush elsewhere silently forks the
// durability story — it either double-pays the sync tax or, worse, creates
// a second place that decides what "durable" means.

const char* kRawIoTokens[] = {"fflush", "fsync", "fdatasync"};

void CheckRawIo(const FileText& f, std::vector<Finding>* out) {
  // The durability layer is the sanctioned home of these calls.
  if (f.path.find("src/durability/") != std::string::npos) return;
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (const char* tok : kRawIoTokens) {
      size_t pos = FindToken(line, tok);
      if (pos == std::string::npos) continue;
      // Only calls (token directly followed by an open paren); a comment or
      // string mention was already blanked by StripCommentsAndStrings.
      size_t after = pos + std::strlen(tok);
      size_t nb = line.find_first_not_of(' ', after);
      if (nb == std::string::npos || line[nb] != '(') continue;
      if (!Suppressed(f, i, "raw-io")) {
        out->push_back({f.path, i + 1, "raw-io",
                        std::string(tok) +
                            "() outside src/durability/; route durability "
                            "through SyncFileNow/SyncParentDir/WalWriter so "
                            "BIH_NO_FSYNC gating and fault injection apply"});
      }
      break;  // one finding per line is enough
    }
  }
}

// --- rule: raw-socket -------------------------------------------------------
//
// The repo's convention writes socket syscalls with an explicit global
// scope (::socket, ::send, ...), which is also what makes them lintable
// without tripping on std::bind, method calls named send()/accept(), or
// the net layer's own wrappers. The rule flags a global-scope call of any
// of these names outside src/net/: one layer owns the sockets, so the
// EINTR handling, poll-slice deadlines and BIH_FAULT=net hooks there are
// never bypassed. Tests that need a hand-rolled socket (e.g. to feed the
// server a deliberately torn frame) say so with an allow() suppression.

const char* kRawSocketTokens[] = {
    "socket", "bind",        "listen",   "accept",      "connect",
    "send",   "recv",        "shutdown", "setsockopt",  "getsockname",
    "sendto", "recvfrom",    "sendmsg",  "recvmsg",     "getpeername",
};

void CheckRawSocket(const FileText& f, std::vector<Finding>* out) {
  if (f.path.find("src/net/") != std::string::npos) return;
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (const char* tok : kRawSocketTokens) {
      size_t pos = FindToken(line, tok);
      if (pos == std::string::npos) continue;
      // Global-scope call only: "::token(" where the "::" is not the tail
      // of a qualified name (std::bind, boost::asio::connect, ...).
      if (pos < 2 || line[pos - 1] != ':' || line[pos - 2] != ':') continue;
      if (pos >= 3 && (IsIdentChar(line[pos - 3]) || line[pos - 3] == ':')) {
        continue;
      }
      size_t after = pos + std::strlen(tok);
      size_t nb = line.find_first_not_of(' ', after);
      if (nb == std::string::npos || line[nb] != '(') continue;
      if (!Suppressed(f, i, "raw-socket")) {
        out->push_back({f.path, i + 1, "raw-socket",
                        std::string("::") + tok +
                            "() outside src/net/; socket I/O goes through "
                            "net::Client/net::Server so EINTR retries, poll "
                            "deadlines and BIH_FAULT=net injection apply"});
      }
      break;  // one finding per line is enough
    }
  }
}

// --- rule: exec-api ---------------------------------------------------------
//
// The plan tree is the execution API: operators compose as PlanNodes and run
// through Execute()/RunPlan(), which is where ExecOptions, the optimizer,
// cancellation polling and ExecStats live. Calling an operator kernel
// directly bypasses all four, so outside src/exec/ the kernel entry points
// (and the retired exec/operators.h header) are off limits. The SQL front
// end and the benchmark's query classes read only through plans: under
// src/sql/ and in src/workload/queries.cc a member call of an engine's
// Scan() is flagged too.

const char* kExecKernelTokens[] = {
    "ScanAll",       "FilterRows",        "ProjectRows",
    "HashJoinRows",  "MergeJoinRows",     "IndexNestedLoopJoin",
    "HashAggregateRows", "SortRows",      "LimitRows",
    "DistinctRows"};

void CheckExecApi(const FileText& f, std::vector<Finding>* out) {
  // The executor's own implementation (and its headers) are the sanctioned
  // home of the kernels.
  if (f.path.find("src/exec/") != std::string::npos) return;
  for (size_t i = 0; i < f.raw.size(); ++i) {
    // Includes live in raw text (string stripping blanks the path).
    if (f.raw[i].find("#include") != std::string::npos &&
        f.raw[i].find("exec/operators.h") != std::string::npos &&
        !Suppressed(f, i, "exec-api")) {
      out->push_back({f.path, i + 1, "exec-api",
                      "exec/operators.h is retired; build a PlanNode tree "
                      "(exec/plan.h) and run it through Execute()/RunPlan()"});
    }
  }
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (const char* tok : kExecKernelTokens) {
      size_t pos = FindToken(line, tok);
      if (pos == std::string::npos) continue;
      // Only calls: the token directly followed by '('.
      size_t after = pos + std::strlen(tok);
      size_t nb = line.find_first_not_of(' ', after);
      if (nb == std::string::npos || line[nb] != '(') continue;
      if (!Suppressed(f, i, "exec-api")) {
        out->push_back({f.path, i + 1, "exec-api",
                        std::string(tok) +
                            "() outside src/exec/; operator kernels are "
                            "internal — compose a PlanNode tree (exec/plan.h) "
                            "so ExecOptions, the optimizer, cancellation and "
                            "ExecStats apply"});
      }
      break;  // one finding per line is enough
    }
  }
  const bool sql_reader =
      f.path.find("src/sql/") != std::string::npos ||
      f.path.find("src/workload/queries.cc") != std::string::npos;
  if (!sql_reader) return;
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (size_t p = FindToken(line, "Scan"); p != std::string::npos;
         p = FindToken(line, "Scan", p + 4)) {
      bool member = (p > 0 && line[p - 1] == '.') ||
                    (p > 1 && line[p - 1] == '>' && line[p - 2] == '-');
      size_t nb = line.find_first_not_of(' ', p + 4);
      if (!member || nb == std::string::npos || line[nb] != '(') continue;
      if (!Suppressed(f, i, "exec-api")) {
        out->push_back({f.path, i + 1, "exec-api",
                        "engine Scan() in a SQL reader; reads go through a "
                        "plan (PlanSelect, OptimizePlan, Execute) so the "
                        "optimizer's index access and plan counters apply"});
      }
      break;
    }
  }
}

// --- rule: ignored-status ---------------------------------------------------

// Pass 1 (across all files): for every "<ReturnType> Name(" declaration or
// definition, classify Name by return type. A name counts as Status-
// returning only when *no* visible declaration gives it a different return
// type — e.g. the reference model's void Insert() must not make every
// engine->Insert() drop a false positive, and vice versa.
const char* kDeclKeywords[] = {
    "return", "if",     "while",  "for",      "switch", "case",   "else",
    "do",     "new",    "delete", "throw",    "goto",   "sizeof", "co_return",
    "co_await", "and",  "or",     "not",      "operator"};

bool IsDeclKeyword(const std::string& s) {
  for (const char* k : kDeclKeywords) {
    if (s == k) return true;
  }
  return false;
}

void CollectFunctionReturns(const FileText& f, std::set<std::string>* status,
                            std::set<std::string>* other) {
  for (const std::string& line : f.code) {
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] != '(') continue;
      // Function name directly before the paren.
      size_t name_end = i;
      size_t name_start = name_end;
      while (name_start > 0 && IsIdentChar(line[name_start - 1])) --name_start;
      if (name_start == name_end) continue;
      std::string name = line.substr(name_start, name_end - name_start);
      // Back over "Class::" qualifiers (Status Foo::Bar(...)).
      size_t j = name_start;
      while (j >= 2 && line[j - 1] == ':' && line[j - 2] == ':') {
        j -= 2;
        while (j > 0 && IsIdentChar(line[j - 1])) --j;
      }
      while (j > 0 && line[j - 1] == ' ') --j;
      if (j == 0) continue;  // nothing before the name: call or definition?
      char prev = line[j - 1];
      if (IsIdentChar(prev)) {
        size_t a_end = j;
        size_t a_start = a_end;
        while (a_start > 0 && IsIdentChar(line[a_start - 1])) --a_start;
        std::string ret = line.substr(a_start, a_end - a_start);
        if (IsDeclKeyword(ret)) continue;          // "return Foo(...)" etc.
        if (std::isdigit(static_cast<unsigned char>(ret[0]))) continue;
        if (ret == "Status") {
          status->insert(name);
        } else {
          other->insert(name);  // "void Insert(", "bool Append(", ...
        }
      } else if (prev == '*' || prev == '&') {
        other->insert(name);  // pointer/reference return type
      } else if (prev == '>' && (j < 2 || line[j - 2] != '-')) {
        other->insert(name);  // "std::vector<Row> Foo(" — not "obj->Foo("
      }
      // Any other context ('.', '(', ',', "->") is a call, not a signature.
    }
  }
}

// Pass 2: a line that is exactly a bare call statement of a collected name —
// "Foo(...);" or "obj.Foo(...);" or "ptr->Foo(...);" — ignores the Status.
void CheckIgnoredStatus(const FileText& f, const std::set<std::string>& names,
                        std::vector<Finding>* out) {
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    size_t e = line.find_last_not_of(" \t");
    if (line[e] != ';') continue;
    std::string stmt = line.substr(b, e - b + 1);
    // The line must *start* a statement, not continue a multi-line
    // expression ("Status st =\n  Foo();" or "EXPECT_EQ(x,\n  Foo());").
    bool starts_statement = true;
    for (size_t p = i; p-- > 0;) {
      size_t pe = f.code[p].find_last_not_of(" \t");
      if (pe == std::string::npos) continue;  // blank / comment-only line
      char last = f.code[p][pe];
      size_t pb = f.code[p].find_first_not_of(" \t");
      bool preprocessor = f.code[p][pb] == '#';
      starts_statement = last == ';' || last == '{' || last == '}' ||
                         last == ':' || preprocessor;
      break;
    }
    if (!starts_statement) continue;
    // A tail with more closes than opens belongs to an enclosing call.
    int balance = 0;
    for (char c : stmt) {
      if (c == '(') ++balance;
      if (c == ')') --balance;
    }
    if (balance < 0) continue;
    // Statement must be a single call expression ending in ");" with no
    // assignment/return/declaration in front of the callee.
    size_t paren = stmt.find('(');
    if (paren == std::string::npos || stmt[stmt.size() - 2] != ')') continue;
    std::string head = stmt.substr(0, paren);
    // Reject anything with operators that imply the value is consumed or
    // that this is a declaration ("Status st = Foo(...)", "return Foo(...)").
    if (head.find('=') != std::string::npos) continue;
    if (head.find(' ') != std::string::npos) continue;  // "return Foo", "Status Foo"
    if (head.find("BIH_") != std::string::npos) continue;  // macros handle it
    // Callee name: identifier chars at the tail of head, after ./->/::.
    size_t name_start = head.size();
    while (name_start > 0 && IsIdentChar(head[name_start - 1])) --name_start;
    std::string callee = head.substr(name_start);
    if (callee.empty() || !names.count(callee)) continue;
    if (!Suppressed(f, i, "ignored-status")) {
      out->push_back({f.path, i + 1, "ignored-status",
                      "result of Status-returning call '" + callee +
                          "' is dropped; assign and check it, or cast to "
                          "(void) with a comment"});
    }
  }
}

// --- rule: assert-side-effect -----------------------------------------------

void CheckAssertSideEffect(const FileText& f, std::vector<Finding>* out) {
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    size_t pos = FindToken(line, "assert");
    if (pos == std::string::npos) continue;
    // static_assert is compile-time; FindToken already rejects it because
    // '_' is an identifier character, but be explicit for clarity.
    size_t open = line.find('(', pos);
    if (open == std::string::npos) continue;
    // Argument text up to the matching close paren (single line is enough:
    // the repo style keeps asserts on one line).
    int depth = 0;
    size_t close = std::string::npos;
    for (size_t j = open; j < line.size(); ++j) {
      if (line[j] == '(') ++depth;
      if (line[j] == ')' && --depth == 0) {
        close = j;
        break;
      }
    }
    if (close == std::string::npos) close = line.size();
    std::string arg = line.substr(open + 1, close - open - 1);
    bool mutates = arg.find("++") != std::string::npos ||
                   arg.find("--") != std::string::npos;
    if (!mutates) {
      // A lone '=' (not ==, !=, <=, >=) assigns inside the assert.
      for (size_t j = 0; j < arg.size(); ++j) {
        if (arg[j] != '=') continue;
        char prev = j > 0 ? arg[j - 1] : '\0';
        char nxt = j + 1 < arg.size() ? arg[j + 1] : '\0';
        if (nxt == '=' || prev == '=' || prev == '!' || prev == '<' ||
            prev == '>') {
          if (nxt == '=') ++j;  // skip the second char of the operator
          continue;
        }
        mutates = true;
        break;
      }
    }
    if (mutates && !Suppressed(f, i, "assert-side-effect")) {
      out->push_back({f.path, i + 1, "assert-side-effect",
                      "assert() argument has a side effect; NDEBUG builds "
                      "skip it — hoist the mutation out of the assert"});
    }
  }
}

// --- rule: scan-ctx ---------------------------------------------------------

// Engine scan implementations must stay cancellable: every function named
// Scan* in src/engine/system_*.cc either polls the QueryContext or hands the
// rows to a helper that does.
void CheckScanCtx(const FileText& f, std::vector<Finding>* out) {
  std::string base = fs::path(f.path).filename().string();
  if (base.rfind("system_", 0) != 0 || !HasSuffix(base, ".cc")) return;
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    // Function definition heuristic: "Scan<Name>(" appears and the
    // statement opens a brace on this or a following line before a ';'.
    size_t pos = std::string::npos;
    for (size_t from = 0;;) {
      size_t p = line.find("Scan", from);
      if (p == std::string::npos) break;
      bool left_ok = p == 0 || !IsIdentChar(line[p - 1]);
      // Member calls ("part->Scan(", "t->delta.Scan(") are uses, not
      // definitions; qualified definitions ("SystemAEngine::Scan(") stay.
      if (left_ok && p > 0 &&
          (line[p - 1] == '.' ||
           (p > 1 && line[p - 1] == '>' && line[p - 2] == '-'))) {
        left_ok = false;
      }
      if (left_ok) {
        size_t q = p + 4;
        while (q < line.size() && IsIdentChar(line[q])) ++q;
        if (q < line.size() && line[q] == '(') {
          pos = p;
          break;
        }
      }
      from = p + 4;
    }
    if (pos == std::string::npos) continue;
    // Must look like a definition: find '{' before any ';' scanning forward.
    size_t j = i;
    bool is_def = false;
    size_t body_start_line = i;
    for (; j < f.code.size() && j < i + 5; ++j) {
      const std::string& l2 = f.code[j];
      size_t start = j == i ? pos : 0;
      for (size_t k = start; k < l2.size(); ++k) {
        if (l2[k] == ';') {
          is_def = false;
          goto decided;
        }
        if (l2[k] == '{') {
          is_def = true;
          body_start_line = j;
          goto decided;
        }
      }
    }
  decided:
    if (!is_def) continue;
    // Only scan *implementations* are in scope: the signature names a
    // ScanRequest (or the morsel plumbing). Metadata helpers that merely
    // start with "Scan" (ScanSchema, ...) have nothing to poll.
    bool takes_request = false;
    for (size_t k = i; k <= body_start_line && k < f.code.size(); ++k) {
      if (f.code[k].find("ScanRequest") != std::string::npos ||
          f.code[k].find("Morsel") != std::string::npos) {
        takes_request = true;
        break;
      }
    }
    if (!takes_request) continue;
    // Walk the brace-matched body and look for a context poll or a
    // delegation to another Scan*/ParallelScanPartition call.
    int depth = 0;
    bool entered = false;
    bool ok = false;
    size_t end_line = body_start_line;
    for (size_t k = body_start_line; k < f.code.size(); ++k) {
      const std::string& l2 = f.code[k];
      for (char c : l2) {
        if (c == '{') {
          ++depth;
          entered = true;
        }
        if (c == '}') --depth;
      }
      if (entered && k > i) {
        const std::string& b = f.code[k];
        if (b.find("KeepGoing(") != std::string::npos ||
            b.find("CheckNow(") != std::string::npos ||
            b.find("MorselInterrupted(") != std::string::npos ||
            b.find("ParallelScanPartition(") != std::string::npos) {
          ok = true;
        }
        // Delegation: a call (not definition) of another Scan* function.
        size_t sp = b.find("Scan");
        while (!ok && sp != std::string::npos) {
          bool left_ok2 = sp == 0 || !IsIdentChar(b[sp - 1]);
          size_t q = sp + 4;
          while (q < b.size() && IsIdentChar(b[q])) ++q;
          if (left_ok2 && q < b.size() && b[q] == '(') ok = true;
          sp = b.find("Scan", sp + 4);
        }
      }
      if (entered && depth == 0) {
        end_line = k;
        break;
      }
    }
    if (!ok && !Suppressed(f, i, "scan-ctx")) {
      out->push_back({f.path, i + 1, "scan-ctx",
                      "engine scan function does not poll the QueryContext "
                      "(KeepGoing/CheckNow/MorselInterrupted) or delegate to "
                      "a scan helper; long scans must stay cancellable"});
    }
    i = end_line;  // resume after this function body
  }
}

// --- rule: scan-loop --------------------------------------------------------
//
// The partition walk exists once: PartitionScan (src/engine/scan_util.{h,cc})
// owns the context poll, the counters, the temporal and constraint match,
// the morsel leg and the index-access bookkeeping, and each engine supplies
// only its physical traits. A measured gap between two engines should trace
// to those traits, not to two copies of a loop that drifted apart, so under
// src/engine/ no other file may call the loop's building blocks.

const char* kScanLoopTokens[] = {"MatchesTemporal", "ParallelScanPartition",
                                 "RecordIndexUse"};

void CheckScanLoop(const FileText& f, std::vector<Finding>* out) {
  if (f.path.find("src/engine/") == std::string::npos) return;
  const std::string base = fs::path(f.path).filename().string();
  if (base == "scan_util.h" || base == "scan_util.cc") return;
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (const char* tok : kScanLoopTokens) {
      size_t pos = FindToken(line, tok);
      if (pos == std::string::npos) continue;
      size_t nb = line.find_first_not_of(' ', pos + std::strlen(tok));
      if (nb == std::string::npos || line[nb] != '(') continue;
      if (!Suppressed(f, i, "scan-loop")) {
        out->push_back({f.path, i + 1, "scan-loop",
                        std::string(tok) +
                            "() outside engine/scan_util; partition scans "
                            "run through PartitionScan::ScanSlots/ScanRows, "
                            "and an engine supplies only how a slot "
                            "qualifies and becomes a row"});
      }
      break;  // one finding per line is enough
    }
  }
}

// --- driver -----------------------------------------------------------------

const char* kRuleNames[] = {"include-guard",      "naked-mutex",
                            "ignored-status",     "assert-side-effect",
                            "scan-ctx",           "raw-io",
                            "raw-socket",         "exec-api",
                            "scan-loop"};

int Usage() {
  std::fprintf(stderr,
               "usage: bih_lint [--root DIR] [--list-rules] [PATH...]\n"
               "Walks src/ tests/ tools/ bench/ under --root (default \".\")\n"
               "or the explicit PATHs, and reports house-rule violations.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> explicit_paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const char* r : kRuleNames) std::printf("%s\n", r);
      return 0;
    }
    if (arg == "--root") {
      if (i + 1 >= argc) return Usage();
      root = argv[++i];
      continue;
    }
    if (arg == "--help" || arg == "-h") return Usage();
    explicit_paths.push_back(arg);
  }

  std::vector<FileText> texts =
      LoadTree(root, explicit_paths, {"src", "tests", "tools", "bench"});

  // The thread_annotations header is the one place allowed to name the raw
  // primitives; it carries its own allow-file comment, so no special case
  // is needed here.
  std::set<std::string> status_fns, other_fns;
  for (const FileText& f : texts) {
    CollectFunctionReturns(f, &status_fns, &other_fns);
  }
  // Ambiguous names (declared with Status somewhere and something else
  // elsewhere) are dropped: a lint false positive costs more trust than the
  // occasional missed overload, and the compiler's [[nodiscard]] still
  // covers every compiled call site.
  for (const std::string& name : other_fns) status_fns.erase(name);

  std::vector<Finding> findings;
  for (const FileText& f : texts) {
    CheckIncludeGuard(f, &findings);
    CheckNakedMutex(f, &findings);
    CheckIgnoredStatus(f, status_fns, &findings);
    CheckAssertSideEffect(f, &findings);
    CheckScanCtx(f, &findings);
    CheckRawIo(f, &findings);
    CheckRawSocket(f, &findings);
    CheckExecApi(f, &findings);
    CheckScanLoop(f, &findings);
  }

  return ReportFindings(&findings, texts.size(), "bih_lint");
}
