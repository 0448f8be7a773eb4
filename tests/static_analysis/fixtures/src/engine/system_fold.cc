// Fixture: an engine that folds an ungrouped aggregate with a loop of its
// own must trip the scan-loop rule. Under src/engine/ only
// scan_util.{h,cc} calls the fold's per-slot and merge entry points; an
// engine hands PartitionScan a cell reader instead, and the scan folds and
// merges the morsel partials in one place. A private definition of an
// entry point trips the rule as well.

namespace fixture {

struct AggState {
  long count = 0;
};

void FoldBatch(AggState* st) { ++st->count; }
void MergeStates(const AggState* part, AggState* st) {
  st->count += part->count;
}

long FoldOwnMorsels(int morsels, int slots) {
  AggState total;
  for (int m = 0; m < morsels; ++m) {
    AggState part;
    for (int rid = 0; rid < slots; ++rid) FoldBatch(&part);  // flagged
    MergeStates(&part, &total);                              // flagged
  }
  return total.count;
}

}  // namespace fixture
