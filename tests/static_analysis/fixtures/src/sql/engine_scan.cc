// Fixture: an engine Scan() called from the SQL front end must trip the
// exec-api rule. Under src/sql/ every read goes through a plan
// (PlanSelect, OptimizePlan, Execute), so the optimizer can turn a
// key-pinned predicate into an index probe and the plan node keeps the
// scan's counters. The directory mirrors the tree's layout because the
// rule keys on the src/sql/ path.

namespace fixture {

struct Row {};
struct ScanRequest {};
struct Engine {
  template <class Fn>
  void Scan(const ScanRequest&, Fn&&) {}
};

int CountRows(Engine& engine, Engine* other) {
  int n = 0;
  ScanRequest req;
  engine.Scan(req, [&](const Row&) { return ++n > 0; });   // flagged
  other->Scan(req, [&](const Row&) { return ++n > 0; });   // flagged
  return n;
}

}  // namespace fixture
