// In-memory span recorder for the benchmark's traced passes.
//
// The driver wraps every call it makes into the product (sampler, planner,
// plan-ahead service, store backend, simulator, heartbeat monitor) in a
// ScopedSpan. A span records its name, the iteration it belongs to, its start
// and end on the steady clock, and its parent: the innermost span still open
// on the same thread. Spans of one iteration share its id; spans a pool
// worker opens for that iteration have no parent (their cause is a queued
// task, not an enclosing call). Nothing is recorded while the recorder is
// disabled — a ScopedSpan then costs one relaxed load and no clock read.
#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = none
  const char* name = "";
  int64_t iteration = -1;
  int32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Set by the driver when it drains a pass's spans.
  int64_t pass = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

int64_t NowNs();

class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Moves out every finished span of every thread. Call only while no
  // traced work runs (between passes).
  std::vector<Span> Drain();

 private:
  friend class ScopedSpan;
  std::atomic<bool> enabled_{false};
};

class ScopedSpan {
 public:
  ScopedSpan(const char* name, int64_t iteration);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Drops the span unrecorded. Must be the innermost open span.
  void Discard();

 private:
  bool active_ = false;
  Span span_;
};

// Writes the spans and a per-name self-time table as one JSON document. A
// span's self time is its duration minus the durations of its direct
// children (children on one thread nest, so they never overlap each other).
bool WriteTrace(const std::string& path, const std::string& header_json,
                const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_
