// Plan-lifecycle benchmark driver.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out <dir>]
//
// Pins the process to one CPU, sets the workload up five times (set-up time
// is their median) and keeps the last set-up. Then plays passes until
// --seconds of timed passes have run (and at least the workload's ledger
// passes). After every pass, outside the timed region, the fetched plan bytes
// are checked against from-scratch serial planning; after the loop a short
// Trainer::RunEpoch must reproduce the first pass. The last stdout line is
// one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run alternates untraced and traced passes, so the
// ratio of their rates is the tracing overhead. Diagnostics (machine
// fingerprint, CPU steal, fidelity detail) go to stderr; a traced run also
// writes its spans to <out>/trace-<workload>-seed<n>.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/driver/check.h"
#include "perfbench/driver/host.h"
#include "perfbench/driver/lifecycle.h"
#include "perfbench/driver/spans.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench";
};

constexpr int kSetups = 5;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

// The highest of these percentiles with at least ten samples beyond it.
double TailQuantile(size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) {
      return q;
    }
  }
  return 0.5;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  // p50, tail (see TailQuantile) and sample count of a timing.
  void AddTiming(const std::string& name, const std::vector<double>& values,
                 const std::string& unit) {
    Add(name + ".p50", Median(values), unit);
    Add(name + ".tail", Quantile(values, TailQuantile(values.size())), unit);
    Add(name + ".n", static_cast<double>(values.size()), "count");
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// What the traced passes saw, folded pass by pass.
struct LayerSamples {
  std::map<std::string, std::vector<double>> span_ms;  // per call, by name
  std::vector<double> heartbeat_ms;                    // per iteration
  double trip_ms = 0.0;
  double trip_covered_ms = 0.0;
  std::vector<IterationRecord> records;  // every traced iteration
  int64_t plan_calls = 0;
  int64_t seeded_plan_calls = 0;
  std::vector<Span> spans;

  void Fold(int64_t pass, std::vector<Span> drained, const PassResult& r) {
    std::map<uint64_t, const Span*> by_id;
    std::map<int64_t, double> heartbeat_by_iteration;
    for (Span& s : drained) {
      s.pass = pass;
      by_id[s.id] = &s;
    }
    for (const Span& s : drained) {
      const std::string name = s.name;
      if (name == "service.heartbeat") {
        heartbeat_by_iteration[s.iteration] += s.ms();
      } else {
        span_ms[name].push_back(s.ms());
      }
      if (name == "trip") {
        trip_ms += s.ms();
      }
      const auto parent = by_id.find(s.parent);
      if (parent != by_id.end() && std::string(parent->second->name) == "trip") {
        trip_covered_ms += s.ms();
      }
    }
    for (const auto& [iteration, ms] : heartbeat_by_iteration) {
      heartbeat_ms.push_back(ms);
    }
    records.insert(records.end(), r.records.begin(), r.records.end());
    plan_calls += r.plan_calls;
    seeded_plan_calls += r.seeded_plan_calls;
    spans.insert(spans.end(), drained.begin(), drained.end());
  }
};

void AddPlannerMetrics(const std::vector<double>& plan_ms,
                       const std::vector<IterationRecord>& planned,
                       int32_t max_tmax_candidates, Metrics* m) {
  std::vector<double> order, partition, schedule;
  double oracle_hits = 0, oracle_queries = 0, stage_hits = 0, stage_lookups = 0;
  double prefix_hits = 0, prefix_lookups = 0, prefix_rows = 0, pruned = 0;
  double candidate_budget = 0, modes = 0, planning_ms = 0, measured_ms = 0;
  for (const IterationRecord& r : planned) {
    const dynapipe::runtime::PlanningStats& s = r.stats;
    order.push_back(s.order_ms);
    partition.push_back(s.partition_ms);
    schedule.push_back(s.schedule_ms);
    oracle_hits += static_cast<double>(s.cost_cache_hits);
    oracle_queries += static_cast<double>(s.cost_cache_hits + s.cost_cache_misses);
    stage_hits += static_cast<double>(s.stage_cache_hits);
    stage_lookups += static_cast<double>(s.stage_cache_hits + s.stage_cache_misses);
    prefix_hits += static_cast<double>(s.prefix_cache_hits);
    prefix_lookups +=
        static_cast<double>(s.prefix_cache_hits + s.prefix_cache_misses);
    prefix_rows +=
        static_cast<double>(s.prefix_window_rows_reused + s.prefix_f_rows_reused);
    pruned += static_cast<double>(s.warmstart_pruned);
    candidate_budget +=
        static_cast<double>(max_tmax_candidates) * s.recompute_modes_tried;
    modes += s.recompute_modes_tried;
    planning_ms += r.planning_ms;
    measured_ms += r.measured_ms;
  }
  const double n = static_cast<double>(planned.size());
  m->AddTiming("runtime.plan_ms", plan_ms, "ms");
  m->Add("runtime.plan_iter_ratio", Ratio(planning_ms, measured_ms), "ratio");
  m->Add("runtime.recompute_modes_tried", Ratio(modes, n), "modes/plan");
  m->AddTiming("mb.order_ms", order, "ms");
  m->AddTiming("mb.partition_ms", partition, "ms");
  m->AddTiming("schedule.schedule_ms", schedule, "ms");
  m->Add("cost.oracle_queries", Ratio(oracle_queries, n), "queries/plan");
  m->Add("cost.oracle_hit_rate", Ratio(oracle_hits, oracle_queries), "ratio");
  m->Add("cost.stage_cache_lookups", Ratio(stage_lookups, n), "lookups/plan");
  m->Add("cost.stage_cache_hit_rate", Ratio(stage_hits, stage_lookups), "ratio");
  m->Add("mb.prefix_lookups", Ratio(prefix_lookups, n), "lookups/plan");
  m->Add("mb.prefix_hit_rate", Ratio(prefix_hits, prefix_lookups), "ratio");
  m->Add("mb.prefix_rows_reused", Ratio(prefix_rows, n), "rows/plan");
  m->Add("mb.warmstart_pruned", Ratio(pruned, n), "candidates/plan");
  m->Add("mb.warmstart_pruned_share", Ratio(pruned, candidate_budget), "ratio");
}

int Run(const Args& args) {
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  const Seeds seeds = DeriveSeeds(args.seed);
  SpanRecorder& recorder = SpanRecorder::Get();
  // Every thread of the process runs on one CPU. Spread over the vCPUs of a
  // shared 4-vCPU host, rates did not repeat: t5-ahead's pooled passes moved
  // by 20-30% between runs, CPU time per iteration with them, as the fan-out
  // work and thread hand-offs of a pass followed the host's timing; the mux
  // workload's socket hand-offs waited for the host to run the woken vCPU.
  // On one CPU a pass measures the work it does. The pool's parallel
  // speed-up is what this leaves unmeasured.
  const int pinned_cpu = PinToCurrentCpu();
  if (pinned_cpu < 0) {
    std::fprintf(stderr, "perfbench: could not pin to one CPU\n");
    return 1;
  }

  // --- Set-up, repeated; the last one is kept. On a replay workload the
  // timed passes plan nothing, so a traced run traces the last set-up's
  // cold-planning pass for the planner rows.
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  std::vector<Span> setup_spans;
  for (int i = 0; i < kSetups; ++i) {
    bench.reset();
    recorder.set_enabled(args.trace && workload->replay && i + 1 == kSetups);
    const int64_t start = NowNs();
    bench = std::make_unique<Bench>(*workload, seeds, args.out_dir);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    recorder.set_enabled(false);
    setup_spans = recorder.Drain();
    if (bench->warmup().failed) {
      std::fprintf(stderr, "perfbench: set-up pass failed: %s\n",
                   bench->warmup().failure.c_str());
      return 1;
    }
  }
  PlanBytes replay_reference;
  if (workload->replay) {
    replay_reference = ReferencePlans(*bench, bench->PassBatches(0));
  }

  // --- Timed passes.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string failure;
  std::vector<double> rates, cpu_ms_per_iter, traced_rates;
  double untraced_wall = 0.0, untraced_cpu = 0.0, timed_wall = 0.0;
  double check_s = 0.0;
  std::vector<IterationRecord> ledger_records, pass0_records;
  LayerSamples layers;
  const int64_t steal_start = StealTicks();
  int64_t passes = 0;
  for (int64_t p = 0;; ++p) {
    const bool traced = args.trace && p % 2 == 1;
    recorder.set_enabled(traced);
    PassResult r = bench->RunPass(p);
    recorder.set_enabled(false);
    ++passes;
    timed_wall += r.wall_s;

    const int64_t check_start = NowNs();
    PlanBytes fresh;
    if (!workload->replay) {
      fresh = ReferencePlans(*bench, bench->PassBatches(p));
    }
    const PlanBytes& reference = workload->replay ? replay_reference : fresh;
    const int64_t mismatches = CountMismatches(r, reference);
    check_s += static_cast<double>(NowNs() - check_start) / 1e9;
    attempted += static_cast<int64_t>(std::max(reference.size(), r.fetched.size()));
    failed += r.failed ? std::max<int64_t>(mismatches, 1) : mismatches;
    if (r.failed || mismatches > 0) {
      failure = r.failed ? r.failure
                         : std::to_string(mismatches) +
                               " iteration(s) fetched plan bytes that differ "
                               "from serial planning in pass " +
                               std::to_string(p);
      break;
    }

    if (p == 0) {
      pass0_records = r.records;
    }
    if (p < kLedgerPasses) {
      ledger_records.insert(ledger_records.end(), r.records.begin(),
                            r.records.end());
    }
    const double rate = static_cast<double>(r.iterations) / r.wall_s;
    if (traced) {
      traced_rates.push_back(rate);
      layers.Fold(p, recorder.Drain(), r);
    } else {
      rates.push_back(rate);
      cpu_ms_per_iter.push_back(1000.0 * r.cpu_s / static_cast<double>(r.iterations));
      untraced_wall += r.wall_s;
      untraced_cpu += r.cpu_s;
    }
    if (p + 1 >= kLedgerPasses && timed_wall >= args.seconds &&
        (!args.trace || !traced_rates.empty())) {
      break;
    }
  }
  const int64_t steal_end = StealTicks();
  const double peak_rss_mb = PeakRssMb();

  FidelityResult fidelity;
  if (failure.empty()) {
    fidelity = CheckFidelity(*bench, pass0_records);
    if (!fidelity.ok) {
      failure = "Trainer::RunEpoch does not reproduce the driver's pass 0";
    }
  }
  const bool correct = failure.empty();
  const double parallelism = Ratio(untraced_cpu, untraced_wall);
  const int64_t steal_ticks =
      steal_start < 0 || steal_end < 0 ? 0 : steal_end - steal_start;

  std::string setups_json = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setups_json += (i == 0 ? "" : ", ") + std::to_string(setup_s[i]);
  }
  setups_json += "]";
  const std::string diagnostics =
      "{\"workload\": \"" + args.workload + "\", \"seed\": " +
      std::to_string(args.seed) + ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"fingerprint\": " + FingerprintJson() +
      ", \"pinned_cpu\": " + std::to_string(pinned_cpu) +
      ", \"steal_ticks\": " + std::to_string(steal_ticks) +
      ", \"parallelism\": " + std::to_string(parallelism) +
      ", \"passes\": " + std::to_string(passes) +
      ", \"pass_rate_quartiles\": [" + std::to_string(Quantile(rates, 0.25)) +
      ", " + std::to_string(Median(rates)) + ", " +
      std::to_string(Quantile(rates, 0.75)) + "]" +
      ", \"timed_s\": " + std::to_string(timed_wall) +
      ", \"check_s\": " + std::to_string(check_s) +
      ", \"setup_s\": " + setups_json + ", \"fidelity\": " +
      (fidelity.detail.empty() ? "null" : fidelity.detail) +
      ", \"failure\": \"" + JsonEscape(failure) + "\"}";
  std::fprintf(stderr, "perfbench diagnostics: %s\n", diagnostics.c_str());

  Metrics m;
  if (!args.trace) {
    const SimLedger ledger = LedgerOf(ledger_records, ledger_records.size());
    m.Add("iters_per_s", Median(rates), "iter/s");
    m.Add("cpu_ms_per_iter", Median(cpu_ms_per_iter), "ms");
    m.Add("sim_tokens_per_s", ledger.tokens_per_s(), "tok/s");
    m.Add("padding_efficiency", ledger.padding_efficiency(), "ratio");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("peak_rss_mb", peak_rss_mb, "MB");
    m.Add("completed_share",
          Ratio(static_cast<double>(attempted - failed),
                static_cast<double>(attempted)),
          "ratio");
  } else {
    // Planner rows come from the traced timed passes, or — when those only
    // replayed cached plans — from the traced set-up pass that planned.
    std::vector<IterationRecord> planned;
    for (const IterationRecord& r : layers.records) {
      if (!r.plan_cache_hit) {
        planned.push_back(r);
      }
    }
    std::vector<double> plan_ms = layers.span_ms["runtime.plan"];
    int64_t plan_calls = layers.plan_calls;
    int64_t seeded_calls = layers.seeded_plan_calls;
    if (planned.empty()) {
      planned = bench->warmup().records;
      plan_calls = bench->warmup().plan_calls;
      seeded_calls = bench->warmup().seeded_plan_calls;
      plan_ms.clear();
      for (const Span& s : setup_spans) {
        if (std::string(s.name) == "runtime.plan") {
          plan_ms.push_back(s.ms());
        }
      }
    }
    AddPlannerMetrics(plan_ms, planned,
                      dynapipe::bench::BenchPlanner().max_tmax_candidates, &m);

    double cache_hits = 0, bytes = 0, instructions = 0;
    std::vector<double> model_error;
    for (const IterationRecord& r : layers.records) {
      cache_hits += r.plan_cache_hit ? 1 : 0;
      bytes += static_cast<double>(r.plan_bytes);
      instructions += static_cast<double>(r.instructions);
      model_error.push_back(std::abs(r.predicted_ms - r.measured_ms) / r.measured_ms);
    }
    const double iterations = static_cast<double>(layers.records.size());
    m.AddTiming("service.next_plan_ms", layers.span_ms["service.next_plan"], "ms");
    m.Add("service.seeded_plan_share",
          Ratio(static_cast<double>(seeded_calls), static_cast<double>(plan_calls)),
          "ratio");
    m.Add("service.plan_cache_hit_rate", Ratio(cache_hits, iterations), "ratio");
    m.Add("common.parallelism", parallelism, "cpu/wall");
    m.Add("common.steal_ticks", static_cast<double>(steal_ticks), "ticks");
    m.Add("common.nproc", NumCpus(), "count");
    m.AddTiming("transport.publish_ms", layers.span_ms["transport.publish"], "ms");
    m.AddTiming("transport.fetch_ms", layers.span_ms["transport.fetch"], "ms");
    m.Add("transport.plan_bytes", Ratio(bytes, iterations), "bytes/iter");
    m.AddTiming("sim.execute_ms", layers.span_ms["sim.execute"], "ms");
    m.Add("sim.instructions", Ratio(instructions, iterations), "instr/iter");
    m.AddTiming("service.heartbeat_ms", layers.heartbeat_ms, "ms");
    m.AddTiming("data.sample_ms", layers.span_ms["data.sample"], "ms");
    m.AddTiming("cost.model_error", model_error, "ratio");
    m.AddTiming("trip.ms", layers.span_ms["trip"], "ms");
    m.Add("trip.unattributed_share",
          Ratio(layers.trip_ms - layers.trip_covered_ms, layers.trip_ms), "ratio");
    m.Add("trip.trace_overhead", Ratio(Median(rates), Median(traced_rates)),
          "ratio");

    std::vector<Span> all_spans = setup_spans;
    for (Span& s : all_spans) {
      s.pass = -1;
    }
    all_spans.insert(all_spans.end(), layers.spans.begin(), layers.spans.end());
    const std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (!WriteTrace(path, diagnostics, all_spans)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), m.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
