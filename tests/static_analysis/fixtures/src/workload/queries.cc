// Fixture: an engine Scan() called from the benchmark's query classes must
// trip the exec-api rule. Every query there is SQL text run through
// sql::ExecuteSql, so the figures time the path the server runs; a direct
// scan would time a path the server never takes. The directory mirrors the
// tree's layout because the rule keys on the src/workload/queries.cc path.

namespace fixture {

struct Row {};
struct ScanRequest {};
struct Engine {
  template <class Fn>
  void Scan(const ScanRequest&, Fn&&) {}
};

int CountOrders(Engine& engine) {
  int n = 0;
  ScanRequest req;
  engine.Scan(req, [&](const Row&) { return ++n > 0; });  // flagged
  return n;
}

}  // namespace fixture
