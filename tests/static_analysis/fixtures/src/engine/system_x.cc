// Fixture: an engine that walks its partition with a loop of its own must
// trip the scan-loop rule. Under src/engine/ only scan_util.{h,cc} calls
// the loop's building blocks; an engine hands PartitionScan its slot
// predicate and row shaper instead. A private definition of a building
// block trips the rule as well (the three definitions below). The
// directory mirrors the tree's layout because the rule keys on the
// src/engine/ path.

namespace fixture {

struct Row {};
struct ExecStats {};
struct Part {
  int slots = 0;
  const Row& Get(int) const { return row; }
  Row row;
};

bool MatchesTemporal(const Row&) { return true; }
void ParallelScanPartition(const Part&) {}
void RecordIndexUse(ExecStats*) {}

int ScanOwnLoop(const Part& part, ExecStats* stats, bool parallel) {
  if (parallel) {
    ParallelScanPartition(part);                            // flagged
    return 0;
  }
  RecordIndexUse(stats);                                    // flagged
  int hits = 0;
  for (int rid = 0; rid < part.slots; ++rid) {
    if (MatchesTemporal(part.Get(rid))) ++hits;             // flagged
  }
  return hits;
}

}  // namespace fixture
