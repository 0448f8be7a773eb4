#include "analysis/passes.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/json.h"

namespace bih {
namespace analysis {

namespace {

const char* kLockOrder = "lock-order";
const char* kGuardCoverage = "guard-coverage";
const char* kBlocking = "blocking-under-lock";

// Default no-blocking set: holding either of these across a device wait
// or a sleep stalls every reader and writer (rw_mu_) or the whole group
// commit staging lane (GroupCommit::mu_ — the leader must drop it before
// SyncGroup's fdatasync, the released-mutex device-wait invariant).
// WalWriter::mu_ is deliberately NOT here: Append's retry backoff and
// Rotate's new-segment create block under it by design (neither is on a
// commit's path: every commit syncs through SyncGroup, which drops the
// mutex for device waits and backoffs). Pass --no-block WalWriter::mu_ to
// audit it anyway.
const char* kDefaultNoBlock[] = {
    "SessionManager::rw_mu_",
    "GroupCommit::mu_",
};

const FileText* FindText(const std::vector<FileText>& texts,
                         const std::string& path) {
  for (const FileText& t : texts) {
    if (t.path == path) return &t;
  }
  return nullptr;
}

bool SuppressedAt(const std::vector<FileText>& texts, const std::string& path,
                  size_t line, const char* rule) {
  const FileText* t = FindText(texts, path);
  return t != nullptr && line > 0 && Suppressed(*t, line - 1, rule);
}

std::string JoinNodes(const std::vector<std::string>& nodes) {
  std::string out;
  for (const std::string& n : nodes) {
    if (!out.empty()) out += " -> ";
    out += n;
  }
  return out;
}

std::string DescribeWitness(const LockEdge& e) {
  if (e.witnesses.empty()) {
    return e.from + " -> " + e.to + " (declared)";
  }
  const Witness& w = e.witnesses.front();
  std::string out = e.from + " -> " + e.to + " observed in " + w.func + " (" +
                    w.file + ":" + std::to_string(w.line) + ")";
  if (!w.chain.empty()) out += " via " + w.chain;
  return out;
}

void RunLockOrderPass(const std::vector<FileText>& texts,
                      const AnalyzeResult& r, std::vector<Finding>* findings) {
  const LockGraph& g = r.graph;

  for (const LockGraph::Cycle& c : g.cycles) {
    // Anchor the finding at the first observed witness; a cycle built
    // purely from declared edges anchors at the first edge's `to` field.
    std::string path;
    size_t line = 0;
    for (const LockEdge* e : c.edges) {
      if (!e->witnesses.empty()) {
        path = e->witnesses.front().file;
        line = e->witnesses.front().line;
        break;
      }
    }
    if (path.empty() && !c.edges.empty()) {
      const FieldDecl* f = nullptr;
      // Declared edges carry no witness; use the graph's resolver-free
      // fallback: report at line 1 of the first file we know about.
      (void)f;
      path = c.edges.front()->to;
      line = 1;
    }
    std::vector<std::string> loop = c.nodes;
    loop.push_back(c.nodes.front());
    std::string msg = "potential deadlock cycle: " + JoinNodes(loop);
    for (const LockEdge* e : c.edges) {
      msg += "; " + DescribeWitness(*e);
    }
    if (SuppressedAt(texts, path, line, kLockOrder)) continue;
    findings->push_back({path, line, kLockOrder, msg});
  }

  // Observed nesting with no declared ordering path.
  for (const auto& kv : g.edges) {
    const LockEdge& e = kv.second;
    if (e.witnesses.empty()) continue;  // declared-only
    if (e.declared || g.DeclaredPath(e.from, e.to)) continue;
    const Witness& w = e.witnesses.front();
    if (SuppressedAt(texts, w.file, w.line, kLockOrder)) continue;
    std::string msg = "observed lock order " + e.from + " -> " + e.to +
                      " in " + w.func;
    if (!w.chain.empty()) msg += " via " + w.chain;
    msg += " has no declared ACQUIRED_AFTER/ACQUIRED_BEFORE path; annotate "
           "the ordering or suppress here";
    findings->push_back({w.file, w.line, kLockOrder, msg});
  }
}

// True when the field's declared type names a class that owns a mutex
// (looked through pointers/smart pointers/containers): such members
// synchronize themselves.
bool InternallySynchronized(const RepoModel& repo, const FieldDecl& f) {
  std::string word;
  for (char c : f.type + " ") {
    if (IsIdentChar(c)) {
      word += c;
      continue;
    }
    if (!word.empty()) {
      auto it = repo.classes.find(word);
      if (it != repo.classes.end() && it->second.owns_mutex) return true;
    }
    word.clear();
  }
  return false;
}

void RunGuardCoveragePass(const std::vector<FileText>& texts,
                          const AnalyzeResult& r,
                          std::vector<Finding>* findings) {
  for (const auto& kv : r.repo.classes) {
    const ClassDecl& cls = kv.second;
    if (!cls.owns_mutex) continue;
    for (const FieldDecl& f : cls.fields) {
      if (f.is_mutex || f.is_condvar) continue;
      if (f.is_static || f.is_const || f.is_atomic) continue;
      if (!f.guarded_by.empty() || !f.pt_guarded_by.empty()) continue;
      if (InternallySynchronized(r.repo, f)) continue;
      if (SuppressedAt(texts, cls.file, f.line, kGuardCoverage)) continue;
      findings->push_back(
          {cls.file, f.line, kGuardCoverage,
           "field '" + f.name + "' of mutex-owning class '" + cls.name +
               "' is neither GUARDED_BY/PT_GUARDED_BY, atomic, const, nor "
               "suppressed with a reason"});
    }
  }
}

void RunBlockingPass(const std::vector<FileText>& texts,
                     const AnalyzeResult& r, const AnalyzeOptions& opts,
                     std::vector<Finding>* findings) {
  std::set<std::string> no_block;
  if (!opts.no_default_no_block) {
    for (const char* m : kDefaultNoBlock) no_block.insert(m);
  }
  for (const std::string& m : opts.no_block) no_block.insert(m);

  std::set<std::string> reported;  // "file:line:mutex" dedup
  for (const BlockObservation& o : r.graph.block_observations) {
    if (o.suppressed) continue;
    for (const std::string& held : o.held) {
      if (o.exempt.count(held) || !no_block.count(held)) continue;
      std::string key =
          o.file + ":" + std::to_string(o.line) + ":" + held;
      if (!reported.insert(key).second) continue;
      std::string msg = "blocking call " + o.what;
      if (!o.chain.empty()) {
        msg += " (via " + o.chain + ", blocks at " + o.origin + ")";
      }
      msg += " while holding " + held +
             ", which is in the no-blocking set; release it first or "
             "suppress here with a reason";
      findings->push_back({o.file, o.line, kBlocking, msg});
    }
  }
}

}  // namespace

AnalyzeResult Analyze(const std::vector<FileText>& texts,
                      const AnalyzeOptions& opts) {
  AnalyzeResult result;
  result.files_scanned = texts.size();
  result.repo = ParseTree(texts);
  LockResolver resolver(result.repo);
  result.graph = BuildLockGraph(result.repo, resolver);
  RunLockOrderPass(texts, result, &result.findings);
  RunGuardCoveragePass(texts, result, &result.findings);
  RunBlockingPass(texts, result, opts, &result.findings);
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              return a.line < b.line;
            });
  return result;
}

std::string ToJson(const AnalyzeResult& result) {
  std::ostringstream out;
  out << "{\n  \"tool\": \"bih_analyze\",\n";
  out << "  \"files_scanned\": " << result.files_scanned << ",\n";
  out << "  \"findings\": [";
  for (size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    out << (i ? ",\n" : "\n");
    out << "    {\"path\": " << JsonQuote(f.path) << ", \"line\": " << f.line
        << ", \"rule\": " << JsonQuote(f.rule)
        << ", \"message\": " << JsonQuote(f.message) << "}";
  }
  out << (result.findings.empty() ? "],\n" : "\n  ],\n");
  out << "  \"lock_graph\": {\n    \"nodes\": [";
  size_t i = 0;
  for (const std::string& n : result.graph.nodes) {
    out << (i++ ? ", " : "") << JsonQuote(n);
  }
  out << "],\n    \"edges\": [";
  i = 0;
  for (const auto& kv : result.graph.edges) {
    const LockEdge& e = kv.second;
    out << (i++ ? ",\n" : "\n");
    out << "      {\"from\": " << JsonQuote(e.from)
        << ", \"to\": " << JsonQuote(e.to)
        << ", \"declared\": " << (e.declared ? "true" : "false")
        << ", \"observed\": " << (e.witnesses.empty() ? "false" : "true")
        << "}";
  }
  out << (result.graph.edges.empty() ? "],\n" : "\n    ],\n");
  out << "    \"cycles\": " << result.graph.cycles.size() << "\n  }\n}\n";
  return out.str();
}

std::string DumpGraph(const LockGraph& graph) {
  std::ostringstream out;
  out << "nodes (" << graph.nodes.size() << "):\n";
  for (const std::string& n : graph.nodes) out << "  " << n << "\n";
  out << "edges (" << graph.edges.size() << "):\n";
  for (const auto& kv : graph.edges) {
    const LockEdge& e = kv.second;
    out << "  " << e.from << " -> " << e.to
        << (e.declared ? " [declared]" : "")
        << (!e.witnesses.empty() ? " [observed]" : "") << "\n";
    for (const Witness& w : e.witnesses) {
      out << "      " << w.func << " (" << w.file << ":" << w.line << ")";
      if (!w.chain.empty()) out << " via " << w.chain;
      out << "\n";
    }
  }
  out << "cycles (" << graph.cycles.size() << "):\n";
  for (const LockGraph::Cycle& c : graph.cycles) {
    std::vector<std::string> loop = c.nodes;
    loop.push_back(c.nodes.front());
    out << "  " << JoinNodes(loop) << "\n";
  }
  return out.str();
}

}  // namespace analysis
}  // namespace bih
