#include "durability/wal.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace bih {

namespace {

// Backoff before retry `attempt` (1-based attempt that just failed):
// 1ms, 2ms, 4ms, ... Bounded by kMaxWriteAttempts so the worst case adds
// single-digit milliseconds to a commit.
std::chrono::milliseconds BackoffDelay(int attempt) {
  return std::chrono::milliseconds(1ll << (attempt - 1));
}

// --- primitive encoders --------------------------------------------------

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutI64(int64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

void PutValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    PutU8(0, out);
  } else if (v.is_int()) {
    PutU8(1, out);
    PutI64(v.AsInt(), out);
  } else if (v.is_double()) {
    PutU8(2, out);
    double d = v.AsDouble();
    char buf[8];
    std::memcpy(buf, &d, 8);
    out->append(buf, 8);
  } else {
    PutU8(3, out);
    PutString(v.AsString(), out);
  }
}

void PutRow(const Row& row, std::string* out) {
  PutU32(static_cast<uint32_t>(row.size()), out);
  for (const Value& v : row) PutValue(v, out);
}

// --- primitive decoders (bounds-checked cursor) --------------------------

struct Cursor {
  const uint8_t* p;
  size_t left;

  bool Get(void* dst, size_t n) {
    if (left < n) return false;
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  bool GetU8(uint8_t* v) { return Get(v, 1); }
  bool GetU32(uint32_t* v) { return Get(v, 4); }
  bool GetI64(int64_t* v) { return Get(v, 8); }
  bool GetString(std::string* s) {
    uint32_t n;
    if (!GetU32(&n) || left < n) return false;
    s->assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
  bool GetValue(Value* v) {
    uint8_t tag;
    if (!GetU8(&tag)) return false;
    switch (tag) {
      case 0:
        *v = Value::Null();
        return true;
      case 1: {
        int64_t i;
        if (!GetI64(&i)) return false;
        *v = Value(i);
        return true;
      }
      case 2: {
        double d;
        if (!Get(&d, 8)) return false;
        *v = Value(d);
        return true;
      }
      case 3: {
        std::string s;
        if (!GetString(&s)) return false;
        *v = Value(std::move(s));
        return true;
      }
      default:
        return false;
    }
  }
  bool GetRow(Row* row) {
    uint32_t n;
    if (!GetU32(&n)) return false;
    // Guard against absurd counts from corrupt frames before reserving.
    if (n > left) return false;
    row->clear();
    row->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Value v;
      if (!GetValue(&v)) return false;
      row->push_back(std::move(v));
    }
    return true;
  }
};

void PutTableDef(const TableDef& def, std::string* out) {
  PutString(def.name, out);
  PutU32(static_cast<uint32_t>(def.schema.num_columns()), out);
  for (const Column& c : def.schema.columns()) {
    PutString(c.name, out);
    PutU8(static_cast<uint8_t>(c.type), out);
  }
  PutU32(static_cast<uint32_t>(def.primary_key.size()), out);
  for (int k : def.primary_key) PutU32(static_cast<uint32_t>(k), out);
  PutU32(static_cast<uint32_t>(def.app_periods.size()), out);
  for (const AppPeriodDef& ap : def.app_periods) {
    PutString(ap.name, out);
    PutU32(static_cast<uint32_t>(ap.begin_col), out);
    PutU32(static_cast<uint32_t>(ap.end_col), out);
  }
  PutU8(def.system_versioned ? 1 : 0, out);
}

bool GetTableDef(Cursor* c, TableDef* def) {
  if (!c->GetString(&def->name)) return false;
  uint32_t ncols;
  if (!c->GetU32(&ncols) || ncols > c->left) return false;
  std::vector<Column> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    Column col;
    uint8_t ty;
    if (!c->GetString(&col.name) || !c->GetU8(&ty)) return false;
    col.type = static_cast<ColumnType>(ty);
    cols.push_back(std::move(col));
  }
  def->schema = Schema(std::move(cols));
  uint32_t npk;
  if (!c->GetU32(&npk) || npk > c->left) return false;
  def->primary_key.clear();
  for (uint32_t i = 0; i < npk; ++i) {
    uint32_t k;
    if (!c->GetU32(&k)) return false;
    def->primary_key.push_back(static_cast<int>(k));
  }
  uint32_t nap;
  if (!c->GetU32(&nap) || nap > c->left) return false;
  def->app_periods.clear();
  for (uint32_t i = 0; i < nap; ++i) {
    AppPeriodDef ap;
    uint32_t b, e;
    if (!c->GetString(&ap.name) || !c->GetU32(&b) || !c->GetU32(&e)) {
      return false;
    }
    ap.begin_col = static_cast<int>(b);
    ap.end_col = static_cast<int>(e);
    def->app_periods.push_back(std::move(ap));
  }
  uint8_t sv;
  if (!c->GetU8(&sv)) return false;
  def->system_versioned = sv != 0;
  return true;
}

const char kWalMagic[8] = {'B', 'I', 'H', 'W', 'A', 'L', '0', '1'};

const uint32_t* CrcTable() {
  static uint32_t table[256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  return table;
}

}  // namespace

uint32_t WalCrc32(const uint8_t* data, size_t n) {
  const uint32_t* table = CrcTable();
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string WalFileMagic() {
  return std::string(kWalMagic, sizeof(kWalMagic));
}

// --- durable-sync primitives ----------------------------------------------

bool DurableSyncEnabled() {
  return std::getenv("BIH_NO_FSYNC") == nullptr;
}

Status SyncFileNow(std::FILE* f, const std::string& path) {
  if (!DurableSyncEnabled()) return Status::OK();
#if defined(__unix__) || defined(__APPLE__)
  const int fd = fileno(f);
  if (fd < 0) {
    return Status::IoError("no descriptor to sync for " + path);
  }
  int rc;
#if defined(__APPLE__)
  while ((rc = fsync(fd)) != 0 && errno == EINTR) {
  }
#else
  while ((rc = fdatasync(fd)) != 0 && errno == EINTR) {
  }
#endif
  if (rc != 0) {
    return Status::IoError("fdatasync failed for " + path + ": " +
                           std::strerror(errno));
  }
#else
  (void)f;
  (void)path;
#endif
  return Status::OK();
}

Status SyncParentDir(const std::string& path) {
  if (!DurableSyncEnabled()) return Status::OK();
#if defined(__unix__) || defined(__APPLE__)
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + dir +
                           " for sync: " + std::strerror(errno));
  }
  int rc;
  while ((rc = fsync(fd)) != 0 && errno == EINTR) {
  }
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("directory fsync failed for " + dir + ": " +
                           std::strerror(saved_errno));
  }
#else
  (void)path;
#endif
  return Status::OK();
}

// --- segment naming -------------------------------------------------------

std::string WalSegmentPath(const std::string& base, uint64_t index) {
  if (index <= 1) return base;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%06llu",
                static_cast<unsigned long long>(index));
  return base + suffix;
}

std::vector<WalSegment> ListWalSegments(const std::string& base) {
  std::vector<WalSegment> segments;
  std::error_code ec;
  if (std::filesystem::exists(base, ec)) {
    segments.push_back(WalSegment{1, base});
  }
  const std::filesystem::path base_path(base);
  const std::string stem = base_path.filename().string() + ".";
  std::filesystem::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= stem.size() || name.compare(0, stem.size(), stem) != 0) {
      continue;
    }
    const std::string suffix = name.substr(stem.size());
    if (suffix.size() < 6 ||
        !std::all_of(suffix.begin(), suffix.end(),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      continue;  // not a segment (e.g. base.ckpt, base.ckpt.tmp)
    }
    const uint64_t index = std::strtoull(suffix.c_str(), nullptr, 10);
    if (index >= 2) segments.push_back(WalSegment{index, entry.path().string()});
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegment& a, const WalSegment& b) {
              return a.index < b.index;
            });
  return segments;
}

Status RemoveWalSegmentsBefore(const std::string& base, uint64_t keep_from,
                               uint64_t* removed) {
  uint64_t count = 0;
  Status first_error = Status::OK();
  for (const WalSegment& seg : ListWalSegments(base)) {
    if (seg.index >= keep_from) continue;
    std::error_code ec;
    const bool did_remove = std::filesystem::remove(seg.path, ec);
    if (ec) {
      if (first_error.ok()) {
        first_error = Status::IoError("cannot remove wal segment " + seg.path +
                                      ": " + ec.message());
      }
    } else if (did_remove) {
      ++count;
    }
  }
  if (removed != nullptr) *removed = count;
  return first_error;
}

void EncodeWalRecord(const WalRecord& rec, std::string* out) {
  out->clear();
  PutU8(static_cast<uint8_t>(rec.kind), out);
  PutU8(rec.flags, out);
  PutI64(rec.ts, out);
  switch (rec.kind) {
    case WalRecord::Kind::kCreateTable:
      PutTableDef(rec.def, out);
      break;
    case WalRecord::Kind::kInsert:
      PutString(rec.table, out);
      PutRow(rec.row, out);
      break;
    case WalRecord::Kind::kBulkLoad:
      PutString(rec.table, out);
      PutU32(static_cast<uint32_t>(rec.rows.size()), out);
      for (const Row& r : rec.rows) PutRow(r, out);
      break;
    case WalRecord::Kind::kUpdateCurrent:
      PutString(rec.table, out);
      PutRow(rec.key, out);
      PutU32(static_cast<uint32_t>(rec.set.size()), out);
      for (const ColumnAssignment& a : rec.set) {
        PutU32(static_cast<uint32_t>(a.column), out);
        PutValue(a.value, out);
      }
      break;
    case WalRecord::Kind::kUpdateSequenced:
    case WalRecord::Kind::kUpdateOverwrite:
      PutString(rec.table, out);
      PutRow(rec.key, out);
      PutU32(static_cast<uint32_t>(rec.period_index), out);
      PutI64(rec.period.begin, out);
      PutI64(rec.period.end, out);
      PutU32(static_cast<uint32_t>(rec.set.size()), out);
      for (const ColumnAssignment& a : rec.set) {
        PutU32(static_cast<uint32_t>(a.column), out);
        PutValue(a.value, out);
      }
      break;
    case WalRecord::Kind::kDeleteCurrent:
      PutString(rec.table, out);
      PutRow(rec.key, out);
      break;
    case WalRecord::Kind::kDeleteSequenced:
      PutString(rec.table, out);
      PutRow(rec.key, out);
      PutU32(static_cast<uint32_t>(rec.period_index), out);
      PutI64(rec.period.begin, out);
      PutI64(rec.period.end, out);
      break;
    case WalRecord::Kind::kCommit:
      break;
    case WalRecord::Kind::kSnapshotRows:
      PutString(rec.table, out);
      PutU32(static_cast<uint32_t>(rec.rows.size()), out);
      for (const Row& r : rec.rows) PutRow(r, out);
      break;
    case WalRecord::Kind::kCheckpointFooter:
      PutI64(static_cast<int64_t>(rec.segments_covered), out);
      break;
  }
}

Status DecodeWalRecord(const uint8_t* data, size_t n, WalRecord* out) {
  Cursor c{data, n};
  uint8_t kind, flags;
  int64_t ts;
  if (!c.GetU8(&kind) || !c.GetU8(&flags) || !c.GetI64(&ts)) {
    return Status::IoError("wal record header truncated");
  }
  if (kind < static_cast<uint8_t>(WalRecord::Kind::kCreateTable) ||
      kind > static_cast<uint8_t>(WalRecord::Kind::kCheckpointFooter)) {
    return Status::IoError("wal record has unknown kind " +
                           std::to_string(kind));
  }
  out->kind = static_cast<WalRecord::Kind>(kind);
  out->flags = flags;
  out->ts = ts;
  bool ok = true;
  auto get_set = [&c](std::vector<ColumnAssignment>* set) {
    uint32_t nset;
    if (!c.GetU32(&nset) || nset > c.left) return false;
    set->clear();
    for (uint32_t i = 0; i < nset; ++i) {
      uint32_t col;
      Value v;
      if (!c.GetU32(&col) || !c.GetValue(&v)) return false;
      set->push_back(ColumnAssignment{static_cast<int>(col), std::move(v)});
    }
    return true;
  };
  switch (out->kind) {
    case WalRecord::Kind::kCreateTable:
      ok = GetTableDef(&c, &out->def);
      break;
    case WalRecord::Kind::kInsert:
      ok = c.GetString(&out->table) && c.GetRow(&out->row);
      break;
    case WalRecord::Kind::kBulkLoad: {
      uint32_t nrows;
      ok = c.GetString(&out->table) && c.GetU32(&nrows) && nrows <= c.left;
      if (ok) {
        out->rows.clear();
        out->rows.reserve(nrows);
        for (uint32_t i = 0; ok && i < nrows; ++i) {
          Row r;
          ok = c.GetRow(&r);
          out->rows.push_back(std::move(r));
        }
      }
      break;
    }
    case WalRecord::Kind::kUpdateCurrent:
      ok = c.GetString(&out->table) && c.GetRow(&out->key) &&
           get_set(&out->set);
      break;
    case WalRecord::Kind::kUpdateSequenced:
    case WalRecord::Kind::kUpdateOverwrite: {
      uint32_t pi = 0;
      ok = c.GetString(&out->table) && c.GetRow(&out->key) && c.GetU32(&pi) &&
           c.GetI64(&out->period.begin) && c.GetI64(&out->period.end) &&
           get_set(&out->set);
      out->period_index = static_cast<int>(pi);
      break;
    }
    case WalRecord::Kind::kDeleteCurrent:
      ok = c.GetString(&out->table) && c.GetRow(&out->key);
      break;
    case WalRecord::Kind::kDeleteSequenced: {
      uint32_t pi = 0;
      ok = c.GetString(&out->table) && c.GetRow(&out->key) && c.GetU32(&pi) &&
           c.GetI64(&out->period.begin) && c.GetI64(&out->period.end);
      out->period_index = static_cast<int>(pi);
      break;
    }
    case WalRecord::Kind::kCommit:
      break;
    case WalRecord::Kind::kSnapshotRows: {
      uint32_t nrows;
      ok = c.GetString(&out->table) && c.GetU32(&nrows) && nrows <= c.left;
      if (ok) {
        out->rows.clear();
        out->rows.reserve(nrows);
        for (uint32_t i = 0; ok && i < nrows; ++i) {
          Row r;
          ok = c.GetRow(&r);
          out->rows.push_back(std::move(r));
        }
      }
      break;
    }
    case WalRecord::Kind::kCheckpointFooter: {
      int64_t covered = 0;
      ok = c.GetI64(&covered) && covered >= 0;
      out->segments_covered = static_cast<uint64_t>(covered);
      break;
    }
  }
  if (!ok || c.left != 0) {
    return Status::IoError("wal record payload malformed");
  }
  return Status::OK();
}

// --- writer --------------------------------------------------------------

WalWriter::~WalWriter() {
  MutexLock lock(mu_);
  // Shared ownership (engine + group-commit coordinator) means destruction
  // only happens after the last waiter is gone, but an in-flight sync must
  // still finish before the FILE* goes away.
  while (sync_inflight_) sync_cv_.Wait(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

Status WalWriter::Open(const std::string& path, FaultInjector* fault,
                       std::unique_ptr<WalWriter>* out) {
  return OpenAt(path, 1, fault, out);
}

Status WalWriter::OpenAt(const std::string& path, uint64_t segment_index,
                         FaultInjector* fault,
                         std::unique_ptr<WalWriter>* out) {
  if (segment_index == 0) segment_index = 1;
  const std::string seg_path = WalSegmentPath(path, segment_index);
  std::FILE* f = std::fopen(seg_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create wal file " + seg_path);
  }
  if (std::fwrite(kWalMagic, 1, sizeof(kWalMagic), f) != sizeof(kWalMagic) ||
      std::fflush(f) != 0) {
    std::fclose(f);
    return Status::IoError("cannot write wal magic to " + seg_path);
  }
  // The empty log itself must survive a crash: sync the file, then the
  // parent directory so the new name is durable too.
  Status st = SyncFileNow(f, seg_path);
  if (st.ok()) st = SyncParentDir(seg_path);
  if (!st.ok()) {
    std::fclose(f);
    return st;
  }
  out->reset(new WalWriter(path, f, fault, sizeof(kWalMagic), segment_index));
  return Status::OK();
}

Status WalWriter::MarkDead(std::string reason) {
  dead_ = true;
  dead_reason_ = std::move(reason);
  return Status::IoError(dead_reason_);
}

Status WalWriter::DeadStatus() const {
  // Deliberately terse and stable: the actionable detail was surfaced once
  // by the call that killed the writer and stays available in dead_reason();
  // a load loop retrying thousands of appends should not spam variants.
  return Status::IoError("wal writer for " + path_ +
                         " is dead; writes are rejected until recovery");
}

void WalWriter::BackoffLocked(int attempt) {
  const auto until = std::chrono::steady_clock::now() + BackoffDelay(attempt);
  while (std::chrono::steady_clock::now() < until) {
    backoff_cv_.WaitFor(mu_, until - std::chrono::steady_clock::now());
  }
}

Status WalWriter::FlushLocked() {
  // fflush failures (EINTR, momentary ENOSPC) leave the stream buffer
  // intact, so the flush can simply be retried. The backoff drops mu_, so
  // re-check for a writer killed meanwhile.
  for (int attempt = 1; std::fflush(file_) != 0; ++attempt) {
    if (attempt >= kMaxWriteAttempts) {
      return MarkDead("wal flush failed for " + path_ + ": " +
                      std::strerror(errno));
    }
    BackoffLocked(attempt);
    if (dead_) return DeadStatus();
  }
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& rec) {
  MutexLock lock(mu_);
  if (dead_) return DeadStatus();
  std::string& payload = payload_buf_;
  EncodeWalRecord(rec, &payload);
  std::string& frame = frame_buf_;
  frame.clear();
  frame.reserve(payload.size() + 8);
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc =
      WalCrc32(reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  frame.append(reinterpret_cast<const char*>(&len), 4);
  frame.append(reinterpret_cast<const char*>(&crc), 4);
  frame.append(payload);

  for (int attempt = 1;; ++attempt) {
    size_t write_len = frame.size();
    if (fault_ != nullptr) {
      FaultInjector::Action a =
          fault_->OnWrite(records_written_ + 1, frame.size());
      if (a.fail) {
        // A clean failure: nothing reached the file, so retrying the same
        // frame is safe. Transient errors pass on a later attempt; a
        // crashed injector keeps failing until the attempts run out.
        if (attempt < kMaxWriteAttempts) {
          std::this_thread::sleep_for(BackoffDelay(attempt));
          continue;
        }
        return MarkDead("injected write failure on wal record " +
                        std::to_string(records_written_ + 1) + " of " + path_);
      }
      if (a.flip) {
        frame[a.flip_offset] = static_cast<char>(
            static_cast<uint8_t>(frame[a.flip_offset]) ^ a.flip_mask);
      }
      if (a.torn) write_len = a.keep_bytes;
    }
    size_t n = std::fwrite(frame.data(), 1, write_len, file_);
    bytes_written_ += n;
    if (n != write_len || write_len != frame.size()) {
      // A short physical write is not retryable: an unknown prefix of the
      // frame is already on disk, and appending the frame again would
      // corrupt the log rather than repair it.
      std::fflush(file_);
      return MarkDead("torn wal write on record " +
                      std::to_string(records_written_ + 1) + " of " + path_);
    }
    ++records_written_;
    return Status::OK();
  }
}

Status WalWriter::Flush() {
  MutexLock lock(mu_);
  if (dead_) return DeadStatus();
  return FlushLocked();
}

uint64_t WalWriter::appended_lsn() const {
  MutexLock lock(mu_);
  return records_written_;
}

Status WalWriter::SyncGroup(uint64_t* durable_upto) {
  return SyncDevice(/*group_flush=*/true, durable_upto);
}

Status WalWriter::SyncDevice(bool group_flush, uint64_t* durable_upto) {
  mu_.lock();
  // One device sync at a time, on a FILE* that stays put: from here until
  // the flag clears, Rotate and the destructor leave file_ alone.
  while (sync_inflight_) sync_cv_.Wait(mu_);
  Status st = dead_ ? DeadStatus() : Status::OK();
  if (st.ok()) {
    sync_inflight_ = true;
    st = FlushLocked();
  }
  if (st.ok() && group_flush) {
    const uint64_t group_index = ++group_syncs_;
    if (fault_ != nullptr && fault_->OnGroupFlush(group_index).fail) {
      // Crash between staging the group and its device sync: the batch sits
      // in the page cache, no transaction in it was ever acknowledged.
      st = MarkDead("injected group-flush crash at group " +
                    std::to_string(group_index) + " of " + path_);
    }
  }
  // Everything appended up to here is staged; that is what this sync makes
  // durable. Appends that land during the device wait ride the next sync.
  const uint64_t target = records_written_;
  for (int attempt = 1; st.ok(); ++attempt) {
    const uint64_t sync_index = syncs_ + 1;
    const bool injected =
        fault_ != nullptr && fault_->OnSync(sync_index).fail;
    std::FILE* f = file_;
    mu_.unlock();
    // The device wait runs unlocked — this is the commit pipeline: later
    // transactions append (and even fflush) into the stream meanwhile.
    std::string cause;
    if (injected) {
      cause =
          "injected sync failure at sync point " + std::to_string(sync_index);
    } else {
      Status sync_st = SyncFileNow(f, path_);
      if (!sync_st.ok()) cause = sync_st.message();
    }
    mu_.lock();
    if (cause.empty()) {
      ++syncs_;
      break;
    }
    // A failed fdatasync leaves the durable prefix unknown but the stream
    // intact; retrying the sync is safe (it either completes, proving the
    // full prefix durable, or the writer dies here).
    if (attempt >= kMaxWriteAttempts) {
      st = MarkDead("wal sync failed for " + path_ + " (" + cause + ")");
      break;
    }
    BackoffLocked(attempt);
  }
  sync_inflight_ = false;
  sync_cv_.NotifyAll();
  mu_.unlock();
  if (st.ok() && durable_upto != nullptr) *durable_upto = target;
  return st;
}

Status WalWriter::Rotate() {
  // Finish the outgoing segment first: rotation must never leave synced
  // and unsynced bytes on different sides of the boundary. The sync's
  // device wait runs unlocked, so a record appended meanwhile is synced by
  // another round before the swap.
  uint64_t synced = 0;
  Status st = SyncDevice(/*group_flush=*/false, &synced);
  mu_.lock();
  for (;;) {
    while (sync_inflight_) sync_cv_.Wait(mu_);
    if (!st.ok() || records_written_ == synced) break;
    mu_.unlock();
    st = SyncDevice(/*group_flush=*/false, &synced);
    mu_.lock();
  }
  if (st.ok()) st = dead_ ? DeadStatus() : StartNextSegment();
  mu_.unlock();
  return st;
}

Status WalWriter::StartNextSegment() {
  const uint64_t rotate_index = rotations_ + 1;
  if (fault_ != nullptr && fault_->OnRotate(rotate_index).fail) {
    return MarkDead("injected rotation failure at rotation " +
                    std::to_string(rotate_index) + " of " + path_);
  }
  const std::string next_path = WalSegmentPath(path_, segment_index_ + 1);
  std::FILE* next = std::fopen(next_path.c_str(), "wb");
  if (next == nullptr) {
    return MarkDead("cannot create wal segment " + next_path);
  }
  if (std::fwrite(kWalMagic, 1, sizeof(kWalMagic), next) !=
          sizeof(kWalMagic) ||
      std::fflush(next) != 0) {
    std::fclose(next);
    return MarkDead("cannot write wal magic to " + next_path);
  }
  Status st = SyncFileNow(next, next_path);
  if (st.ok()) st = SyncParentDir(next_path);
  if (!st.ok()) {
    std::fclose(next);
    return MarkDead("wal rotation sync failed (" + st.message() + ")");
  }
  std::fclose(file_);
  file_ = next;
  ++segment_index_;
  ++rotations_;
  bytes_written_ += sizeof(kWalMagic);
  return Status::OK();
}

// --- reader --------------------------------------------------------------

Status ScanWal(const std::string& path, WalScanResult* out) {
  *out = WalScanResult();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open wal file " + path);
  }
  std::string contents;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) {
    return Status::IoError("read error on wal file " + path);
  }
  out->bytes_total = contents.size();
  if (contents.size() < sizeof(kWalMagic) ||
      std::memcmp(contents.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IoError("bad wal magic in " + path);
  }
  const uint8_t* base = reinterpret_cast<const uint8_t*>(contents.data());
  size_t pos = sizeof(kWalMagic);
  out->bytes_salvaged = pos;
  while (pos < contents.size()) {
    if (contents.size() - pos < 8) {
      out->tail_dropped = true;
      out->tail_reason = "torn frame header at offset " + std::to_string(pos);
      break;
    }
    uint32_t len, crc;
    std::memcpy(&len, base + pos, 4);
    std::memcpy(&crc, base + pos + 4, 4);
    if (contents.size() - pos - 8 < len) {
      out->tail_dropped = true;
      out->tail_reason = "torn record payload at offset " + std::to_string(pos);
      break;
    }
    const uint8_t* payload = base + pos + 8;
    if (WalCrc32(payload, len) != crc) {
      out->tail_dropped = true;
      out->tail_reason = "crc mismatch at offset " + std::to_string(pos);
      break;
    }
    WalRecord rec;
    Status st = DecodeWalRecord(payload, len, &rec);
    if (!st.ok()) {
      out->tail_dropped = true;
      out->tail_reason = st.message() + " at offset " + std::to_string(pos);
      break;
    }
    out->records.push_back(std::move(rec));
    pos += 8 + len;
    out->bytes_salvaged = pos;
  }
  return Status::OK();
}

Status TruncateWalTail(const std::string& path, uint64_t bytes) {
  // Portable truncate: rewrite the prefix. WAL repair is a recovery-time
  // operation, not a hot path.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open wal file " + path);
  std::string contents(bytes, '\0');
  size_t n = std::fread(contents.data(), 1, bytes, f);
  std::fclose(f);
  if (n != bytes) {
    return Status::IoError("wal file " + path + " shorter than salvage point");
  }
  f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot rewrite wal file " + path);
  bool ok = std::fwrite(contents.data(), 1, bytes, f) == bytes;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return Status::IoError("failed truncating wal file " + path);
  return Status::OK();
}

}  // namespace bih
