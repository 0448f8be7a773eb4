#ifndef TPCBIH_COMMON_QUERY_CONTEXT_H_
#define TPCBIH_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace bih {

// Per-query deadline and cancellation token, checked cooperatively inside
// the engines' scan loops and the exec operators. One context serves exactly
// one query execution: the owning thread calls KeepGoing()/CheckNow() while
// it works; any other thread (client, watchdog) may call Cancel() at any
// time. Once a check fails, the verdict is sticky — every later check
// returns false and status() reports why.
//
// Cost model: KeepGoing() is called once per row. The cancellation flag is a
// relaxed atomic load every call; the (much more expensive) clock is only
// sampled every kClockCheckInterval calls, so a deadline is detected within
// that many rows or by the watchdog flipping the cancel flag, whichever
// comes first.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  QueryContext() = default;
  explicit QueryContext(Clock::time_point deadline)
      : has_deadline_(true), deadline_(deadline) {}

  // Convenience: a context whose deadline is `budget` from now.
  static QueryContext WithTimeout(std::chrono::nanoseconds budget) {
    return QueryContext(Clock::now() + budget);
  }

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // Requests cancellation. Safe from any thread; the working thread observes
  // it at its next per-row check.
  void Cancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  // Per-row cooperative check; false once the query must stop. Only the
  // thread executing the query may call this.
  bool KeepGoing();

  // Forces a clock check now (used at operator boundaries and before
  // acquiring locks). Returns the sticky status.
  Status CheckNow();

  // kOk while running; kCancelled / kDeadlineExceeded once interrupted.
  Status status() const;

  static constexpr uint32_t kClockCheckInterval = 64;

 private:
  enum class Verdict : uint8_t { kRunning, kCancelled, kDeadlineExceeded };

  // Classifies an observed interruption: a cancel that arrives after the
  // deadline passed is reported as the deadline (the watchdog cancels
  // overdue queries, and "it ran out of time" is the truthful answer).
  void Fail(bool deadline_passed);

  // Parallel-scan helpers load cancel_ on every row while the query thread
  // bumps calls_since_clock_check_ on every row. Sharing a cache line, the
  // two streams contend whenever the context's stack address happens to
  // put both fields on one line; on a 2-thread System C scan over the wire
  // that made the served median 50-70% slower. Each half gets its own line.
  alignas(64) std::atomic<bool> cancel_{false};
  alignas(64) bool has_deadline_ = false;
  Clock::time_point deadline_{};
  Verdict verdict_ = Verdict::kRunning;  // written by the query thread only
  uint32_t calls_since_clock_check_ = 0;
};

}  // namespace bih

#endif  // TPCBIH_COMMON_QUERY_CONTEXT_H_
