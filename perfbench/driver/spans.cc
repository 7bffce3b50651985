#include "perfbench/driver/spans.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

// One thread's spans. Shared-owned by the registry so the log outlives a
// pool worker that exits before the driver drains.
struct ThreadLog {
  std::mutex mu;
  int32_t index = 0;
  std::vector<Span> done;        // guarded by mu
  std::vector<uint64_t> open;    // ids of open spans; owner thread only
};

std::mutex registry_mu;
std::vector<std::shared_ptr<ThreadLog>> registry;  // guarded by registry_mu
std::atomic<uint64_t> next_span_id{1};

ThreadLog& LocalLog() {
  thread_local std::shared_ptr<ThreadLog> log = [] {
    auto created = std::make_shared<ThreadLog>();
    std::lock_guard<std::mutex> lock(registry_mu);
    created->index = static_cast<int32_t>(registry.size());
    registry.push_back(created);
    return created;
  }();
  return *log;
}

struct SelfTime {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

std::vector<SelfTime> SelfTimes(const std::vector<Span>& spans);

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

std::vector<Span> SpanRecorder::Drain() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(registry_mu);
  for (const std::shared_ptr<ThreadLog>& log : registry) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    out.insert(out.end(), log->done.begin(), log->done.end());
    log->done.clear();
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name, int64_t iteration) {
  if (!SpanRecorder::Get().enabled()) {
    return;
  }
  active_ = true;
  ThreadLog& log = LocalLog();
  span_.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = log.open.empty() ? 0 : log.open.back();
  span_.name = name;
  span_.iteration = iteration;
  span_.thread = log.index;
  log.open.push_back(span_.id);
  span_.start_ns = NowNs();
}

void ScopedSpan::Discard() {
  if (active_) {
    active_ = false;
    LocalLog().open.pop_back();
  }
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  span_.end_ns = NowNs();
  ThreadLog& log = LocalLog();
  log.open.pop_back();
  std::lock_guard<std::mutex> lock(log.mu);
  log.done.push_back(span_);
}

namespace {

std::vector<SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_ms;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_ms[s.parent] += s.ms();
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans) {
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_ms += s.ms();
    const auto it = child_ms.find(s.id);
    t.self_ms += s.ms() - (it == child_ms.end() ? 0.0 : it->second);
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) {
    out.push_back(t);
  }
  return out;
}

}  // namespace

bool WriteTrace(const std::string& path, const std::string& header_json,
                const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"run\": %s,\n\"self_time\": [", header_json.c_str());
  bool first = true;
  for (const SelfTime& t : SelfTimes(spans)) {
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"count\": %lld, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", t.name.c_str(),
                 static_cast<long long>(t.count), t.total_ms, t.self_ms);
    first = false;
  }
  std::fprintf(f, "],\n\"spans\": [");
  first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s\n  {\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"pass\": %lld, \"iteration\": %lld, \"thread\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}",
                 first ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.pass),
                 static_cast<long long>(s.iteration), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    first = false;
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
