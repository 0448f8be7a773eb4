#ifndef TPCBIH_STORAGE_COLUMN_TABLE_H_
#define TPCBIH_STORAGE_COLUMN_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "catalog/schema.h"
#include "common/value.h"
#include "storage/row_table.h"

namespace bih {

// Columnar storage segment: one typed vector per column plus a per-row
// tombstone vector. Models the main/delta fragments of an in-memory column
// store (System C). Strings are dictionary-encoded per column, the classic
// column-store representation, which keeps scans cache-friendly.
class ColumnTable {
 public:
  explicit ColumnTable(Schema schema);

  const Schema& schema() const { return schema_; }

  RowId Append(const Row& row);

  size_t LiveCount() const { return live_count_; }
  size_t SlotCount() const { return size_; }

  bool IsLive(RowId id) const { return id < size_ && !deleted_[id]; }

  Value Get(RowId id, int col) const;
  Row GetRow(RowId id) const;

  // Typed cell access for scan filters, which then build no Value: whether
  // a cell is NULL, and the stored cells of an integer-backed column (int,
  // date, timestamp; a NULL cell holds 0), or null for other column types.
  bool IsNull(RowId id, int col) const {
    return nulls_[id * static_cast<size_t>(schema_.num_columns()) +
                  static_cast<size_t>(col)] != 0;
  }
  const std::vector<int64_t>* Ints(int col) const {
    return std::get_if<std::vector<int64_t>>(
        &columns_[static_cast<size_t>(col)]);
  }
  // The stored cells of a double column (a NULL cell holds 0), or null.
  const std::vector<double>* Doubles(int col) const {
    return std::get_if<std::vector<double>>(
        &columns_[static_cast<size_t>(col)]);
  }
  // The null bitmap, row-major: num_columns() bytes per slot, nonzero for
  // a NULL cell. Scan kernels hoist it (and Ints/Doubles) out of their
  // loops; it is valid until the next write.
  const uint8_t* NullBitmap() const { return nulls_.data(); }

  // In-place single-cell update (System C uses this only for the hidden
  // system-time columns when invalidating a version).
  void Set(RowId id, int col, const Value& v);

  void Delete(RowId id);

  // Full scan over live rows, materializing only the requested columns into
  // `scratch` (arity = needed.size()). fn returning false stops the scan.
  void Scan(const std::vector<int>& needed,
            const std::function<bool(RowId, const Row&)>& fn) const;
  // Full-row scan.
  void Scan(const std::function<bool(RowId, const Row&)>& fn) const;

  // Moves all rows of `from` into this table, clearing `from` (delta->main
  // merge). Row ids change; callers must not retain ids across a merge.
  void Absorb(ColumnTable* from);

  void Clear();

 private:
  struct StringColumn {
    std::vector<std::string> dict;
    std::vector<uint32_t> codes;
    std::unordered_map<std::string, uint32_t> lookup;
    // Dictionary interning is append-only; distinct values per column are
    // few relative to row count in the benchmark data.
    uint32_t Intern(const std::string& s);
  };
  using ColumnData = std::variant<std::vector<int64_t>, std::vector<double>,
                                  StringColumn>;

  Schema schema_;
  std::vector<ColumnData> columns_;
  std::vector<uint8_t> nulls_;  // size_ * num_columns bitmap, byte per cell
  std::vector<uint8_t> deleted_;
  size_t size_ = 0;
  size_t live_count_ = 0;
};

}  // namespace bih

#endif  // TPCBIH_STORAGE_COLUMN_TABLE_H_
