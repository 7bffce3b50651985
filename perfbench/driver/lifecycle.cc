#include "perfbench/driver/lifecycle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <unordered_map>
#include <utility>

#include <unistd.h>

#include "bench/bench_util.h"
#include "perfbench/driver/host.h"
#include "perfbench/driver/spans.h"
#include "perfbench/driver/timed_store.h"
#include "src/common/rng.h"
#include "src/data/flan_generator.h"
#include "src/runtime/ground_truth.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_ahead_service.h"
#include "src/sim/cluster_sim.h"
#include "src/transport/mux.h"
#include "src/transport/shm_store.h"

namespace perfbench {
namespace dp = dynapipe;

namespace {

// The FLAN-like traffic every workload shares: the figure benches' task
// mixture, planner and profile settings (bench/bench_util.h), 2048-token
// inputs, exact lengths.
constexpr int64_t kDatasetSamples = 12'000;
constexpr int32_t kFlanTasks = 48;
// The mixture GenerateFlanLikeDataset builds for the benches' dataset seed
// (42). The mixture is the workload's traffic definition, so it stays fixed;
// the workload seed draws the samples from it.
constexpr uint64_t kBenchDatasetSeed = 42;
constexpr int32_t kMaxInputLen = 2048;
constexpr double kNoiseStddev = 0.05;
// Pins the plan-cache population to this benchmark's one planner config.
constexpr uint64_t kPlanCacheConfigHash = 0x5045524642454e43ull;

const Workload kWorkloads[] = {
    {"gpt-inline", dp::model::ModelArch::kGpt, 4, {1, 1, 4}, 65'536,
     /*lookahead=*/0, /*pool_threads=*/0, /*plan_cache=*/false,
     StoreBackend::kShm, /*replay=*/false},
    {"t5-ahead", dp::model::ModelArch::kT5, 4, {1, 2, 2}, 65'536,
     /*lookahead=*/4, /*pool_threads=*/2, /*plan_cache=*/true,
     StoreBackend::kShm, /*replay=*/false},
    {"gpt-replay-mux", dp::model::ModelArch::kGpt, 16, {4, 1, 4}, 262'144,
     /*lookahead=*/0, /*pool_threads=*/0, /*plan_cache=*/true,
     StoreBackend::kMux, /*replay=*/true},
};

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::atomic<uint64_t> store_counter{0};

// GenerateFlanLikeDataset's sampling loop over a fixed task mixture.
dp::data::Dataset SampleFlanDataset(uint64_t seed) {
  std::vector<dp::data::TaskSpec> tasks = dp::data::MakeFlanLikeTaskMixture(
      kFlanTasks, dp::Rng(kBenchDatasetSeed).NextU64());
  std::vector<double> cdf;
  double total_weight = 0.0;
  for (const dp::data::TaskSpec& task : tasks) {
    total_weight += task.mixture_weight;
    cdf.push_back(total_weight);
  }
  const int32_t length_cap = dp::data::FlanGeneratorOptions{}.length_cap;
  dp::Rng rng(seed);
  std::vector<dp::data::Sample> samples;
  for (int64_t n = 0; n < kDatasetSamples; ++n) {
    const double u = rng.NextDouble() * total_weight;
    const size_t task_id = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const dp::data::TaskSpec& task = tasks[task_id];
    dp::data::Sample s;
    s.id = static_cast<uint64_t>(n);
    s.task_id = static_cast<int32_t>(task_id);
    const double in_len =
        rng.NextLogNormal(task.input_log_mean, task.input_log_stddev);
    const double tg_len =
        rng.NextLogNormal(task.target_log_mean, task.target_log_stddev);
    s.input_len = std::clamp(static_cast<int32_t>(std::lround(in_len)), 1,
                             length_cap);
    s.target_len = std::clamp(static_cast<int32_t>(std::lround(tg_len)), 1,
                              length_cap);
    samples.push_back(s);
  }
  return dp::data::Dataset(std::move(tasks), std::move(samples));
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

uint64_t Seeds::Shuffle(int64_t pass) const {
  return SplitMix(shuffle_base ^ SplitMix(static_cast<uint64_t>(pass + 2)));
}

Seeds DeriveSeeds(uint64_t seed) {
  Seeds s;
  s.dataset = SplitMix(seed ^ 0x64617461ull);       // "data"
  s.noise = SplitMix(seed ^ 0x6e6f697365ull);       // "noise"
  s.shuffle_base = SplitMix(seed ^ 0x73687566ull);  // "shuf"
  return s;
}

Bench::Bench(const Workload& workload, const Seeds& seeds,
             const std::string& socket_dir)
    : workload_(workload), seeds_(seeds),
      dataset_(SampleFlanDataset(seeds.dataset)),
      config_(dp::model::ModelConfig::ForCluster(workload.arch,
                                                 workload.num_gpus)),
      cost_model_(dp::cost::PipelineCostModel::Profile(
          config_, hw_, workload.parallel, dp::bench::BenchProfile())),
      planner_options_(dp::bench::BenchPlanner()) {
  if (workload_.pool_threads > 0) {
    pool_.emplace(workload_.pool_threads);
    planner_options_.pool = &*pool_;
  }
  // The epoch-spanning planner caches a Trainer keeps across RunEpoch calls.
  planner_options_.cost_oracle =
      std::make_shared<dp::cost::CachedCostOracle>(cost_model_);
  planner_options_.prefix_cache = std::make_shared<dp::mb::PrefixWindowCache>();
  planner_options_.stage_cost_cache =
      std::make_shared<dp::cost::StageCostCache>();
  if (workload_.plan_cache) {
    plan_cache_ = std::make_shared<dp::service::PlanCache>(
        dp::service::PlanCacheOptions{});
  }
  if (workload_.backend == StoreBackend::kMux) {
    socket_path_ = socket_dir + "/pb-" + std::to_string(::getpid()) + "-" +
                   std::to_string(store_counter.fetch_add(1)) + ".sock";
    server_store_.emplace(dp::runtime::InstructionStoreOptions{
        /*serialized=*/true, /*capacity=*/0});
    socket_.emplace(socket_path_);
    server_.emplace(&*socket_, &*server_store_);
    mux_client_ = dp::transport::MuxInstructionStore::OverUnixSocket(socket_path_);
  }
  warmup_ = RunPass(-1);
}

Bench::~Bench() {
  mux_client_.reset();
  server_.reset();
}

dp::data::MiniBatchSamplerOptions Bench::SamplerOptionsFor(int64_t pass) const {
  dp::data::MiniBatchSamplerOptions so;
  so.global_batch_tokens = workload_.batch_tokens;
  so.max_input_len = kMaxInputLen;
  // RunEpochImpl's default target cap: max_input_len / 4 for T5, none for GPT.
  so.max_target_len = workload_.arch == dp::model::ModelArch::kT5
                          ? std::max(1, kMaxInputLen / 4)
                          : 0;
  so.seed = seeds_.Shuffle(workload_.replay ? 0 : pass);
  return so;
}

std::vector<std::vector<dp::data::Sample>> Bench::PassBatches(
    int64_t pass, int64_t max_iterations) const {
  dp::data::MiniBatchSampler sampler(dataset_, SamplerOptionsFor(pass));
  std::vector<std::vector<dp::data::Sample>> batches;
  while (sampler.HasNext() &&
         (max_iterations <= 0 ||
          static_cast<int64_t>(batches.size()) < max_iterations)) {
    std::vector<dp::data::Sample> mb = sampler.Next();
    if (!mb.empty()) {
      batches.push_back(std::move(mb));
    }
  }
  return batches;
}

dp::runtime::TrainerOptions Bench::TrainerOptionsFor(
    int64_t pass, int64_t max_iterations) const {
  dp::runtime::TrainerOptions to;
  to.global_batch_tokens = workload_.batch_tokens;
  to.max_input_len = kMaxInputLen;
  to.sampler_seed = SamplerOptionsFor(pass).seed;
  to.max_iterations = static_cast<int32_t>(max_iterations);
  to.noise_stddev = kNoiseStddev;
  to.noise_seed = seeds_.noise;
  to.planning_threads = workload_.pool_threads;
  to.plan_lookahead = workload_.lookahead;
  to.plan_cache = workload_.plan_cache;
  to.serialize_plans = true;
  if (workload_.backend == StoreBackend::kShm) {
    to.plan_store_backend =
        dp::runtime::TrainerOptions::PlanStoreBackend::kSharedMemory;
  } else {
    to.plan_store_backend =
        dp::runtime::TrainerOptions::PlanStoreBackend::kUnixSocketMux;
    to.plan_store_socket_path = socket_path_ + ".trainer";
  }
  return to;
}

PassResult Bench::RunPass(int64_t pass, int64_t max_iterations) {
  PassResult out;
  const int64_t wall_start = NowNs();
  const double cpu_start = ProcessCpuSeconds();
  const bool traced = SpanRecorder::Get().enabled();
  const dp::model::ParallelConfig& parallel = workload_.parallel;

  dp::data::MiniBatchSampler sampler(dataset_, SamplerOptionsFor(pass));

  dp::runtime::SimGroundTruth ground_truth(config_, hw_, parallel,
                                           kNoiseStddev, seeds_.noise);
  dp::sim::ClusterSimOptions sim_opts;
  sim_opts.static_memory_mb = ground_truth.StaticMemoryMb();
  sim_opts.memory_limit_mb = hw_.usable_memory_mb();

  dp::service::HeartbeatMonitorOptions monitor_opts;
  monitor_opts.straggler_multiple = 2.0;
  monitor_opts.expected_replicas = parallel.dp;
  dp::service::HeartbeatMonitor monitor(monitor_opts);

  const dp::runtime::IterationPlanner planner(cost_model_, planner_options_);
  // A shared-memory segment reclaims its slots and arena only when no plan is
  // resident, so — like RunEpochImpl — each pass gets a fresh one.
  std::shared_ptr<dp::runtime::InstructionStoreInterface> backend = mux_client_;
  if (backend == nullptr) {
    backend = dp::transport::ShmInstructionStore::Create(
        "/perfbench-" + std::to_string(::getpid()) + "-" +
            std::to_string(store_counter.fetch_add(1)),
        dp::transport::ShmStoreOptions{});
  }
  auto store = std::make_shared<TimedStore>(std::move(backend));

  // Planner spans learn their iteration from the batch: sample ids are
  // unique within a pass, so the first one names the batch.
  std::mutex ids_mu;
  std::unordered_map<uint64_t, int64_t> iteration_of;
  const auto iteration_for = [&](const std::vector<dp::data::Sample>& mb) {
    if (!traced) {
      return int64_t{-1};
    }
    std::lock_guard<std::mutex> lock(ids_mu);
    const auto it = iteration_of.find(mb.front().id);
    return it == iteration_of.end() ? int64_t{-1} : it->second;
  };
  int64_t pulled = 0;
  auto source = [&]() -> std::vector<dp::data::Sample> {
    while (sampler.HasNext() &&
           (max_iterations <= 0 || pulled < max_iterations)) {
      ScopedSpan span("data.sample", pulled);
      std::vector<dp::data::Sample> mb = sampler.Next();
      if (!mb.empty()) {
        if (traced) {
          std::lock_guard<std::mutex> lock(ids_mu);
          iteration_of[mb.front().id] = pulled;
        }
        ++pulled;
        return mb;
      }
    }
    return {};
  };
  std::atomic<int64_t> plan_calls{0};
  std::atomic<int64_t> seeded_calls{0};
  auto plan_fn = [&](const std::vector<dp::data::Sample>& mb) {
    ScopedSpan span("runtime.plan", iteration_for(mb));
    plan_calls.fetch_add(1, std::memory_order_relaxed);
    return planner.PlanIteration(mb);
  };

  dp::service::PlanAheadOptions sopts;
  sopts.lookahead = workload_.lookahead;
  sopts.pool = pool_.has_value() ? &*pool_ : nullptr;
  sopts.fold_target_lengths = workload_.arch == dp::model::ModelArch::kGpt;
  sopts.store = store;
  if (plan_cache_ != nullptr) {
    sopts.plan_cache = plan_cache_;
    sopts.config_hash = kPlanCacheConfigHash;
    sopts.seeded_plan_fn = [&](const std::vector<dp::data::Sample>& mb,
                               const dp::runtime::PlanSeed* seed) {
      ScopedSpan span("runtime.plan", iteration_for(mb));
      plan_calls.fetch_add(1, std::memory_order_relaxed);
      if (seed != nullptr) {
        seeded_calls.fetch_add(1, std::memory_order_relaxed);
      }
      return planner.PlanIteration(mb, seed);
    };
  }

  {
    dp::service::PlanAheadService service(plan_fn, source, sopts);
    for (int64_t it = 0; !out.failed; ++it) {
      ScopedSpan trip("trip", it);
      std::optional<dp::service::ServicedPlan> serviced;
      {
        ScopedSpan next("service.next_plan", it);
        serviced = service.NextPlan();
        if (!serviced.has_value()) {
          next.Discard();
          trip.Discard();
          break;
        }
      }
      ++out.iterations;
      const dp::runtime::IterationPlan& plan = serviced->plan;
      if (!plan.feasible) {
        out.failed = true;
        out.failure = "iteration " + std::to_string(it) +
                      " planning failed: " + plan.infeasible_reason;
        break;
      }
      IterationRecord rec;
      rec.predicted_ms = plan.predicted_iteration_ms;
      rec.microbatches = plan.total_microbatches();
      rec.recompute = plan.recompute;
      rec.plan_cache_hit = serviced->plan_cache_hit;
      rec.stats = plan.stats;
      rec.planning_ms = plan.planning_time_ms;
      rec.padding = plan.padding;
      std::vector<dp::sim::ExecutionPlan> fetched;
      double measured = 0.0;
      for (size_t d = 0; d < plan.replicas.size(); ++d) {
        const int32_t replica = static_cast<int32_t>(d);
        dp::sim::ExecutionPlan exec;
        {
          ScopedSpan span("service.fetch", it);
          exec = service.FetchExecPlan(it, replica);
        }
        dp::sim::SimResult res;
        {
          ScopedSpan span("sim.execute", it);
          dp::sim::ClusterSim cluster(parallel.pp, &ground_truth, sim_opts);
          res = cluster.Run(exec);
        }
        if (res.deadlocked || res.oom) {
          out.failed = true;
          out.failure = "iteration " + std::to_string(it) + " replica " +
                        std::to_string(d) + " " + res.diagnostic;
          break;
        }
        measured = std::max(measured, res.makespan_ms);
        {
          ScopedSpan span("service.heartbeat", it);
          monitor.OnHeartbeat(replica, it, res.makespan_ms);
        }
        for (const dp::sim::DevicePlan& device : exec.devices) {
          rec.instructions += static_cast<int64_t>(device.instructions.size());
        }
        fetched.push_back(std::move(exec));
      }
      if (out.failed) {
        break;
      }
      dp::service::IterationHeartbeatStats hb;
      {
        ScopedSpan span("service.heartbeat", it);
        hb = monitor.ForIteration(it);
      }
      if (hb.replicas_reported != parallel.dp) {
        out.failed = true;
        out.failure = "iteration " + std::to_string(it) + ": " +
                      std::to_string(hb.replicas_reported) + " of " +
                      std::to_string(parallel.dp) + " replicas reported";
        break;
      }
      rec.measured_ms = measured + cost_model_.DpGradSyncMs();
      for (const dp::runtime::ReplicaPlan& replica : plan.replicas) {
        for (const dp::mb::MicroBatch& m : replica.micro_batches) {
          rec.real_tokens += m.real_tokens();
        }
      }
      rec.plan_bytes = store->BytesFor(it);
      out.records.push_back(rec);
      out.fetched.push_back(std::move(fetched));
    }
  }
  out.plan_calls = plan_calls.load();
  out.seeded_plan_calls = seeded_calls.load();
  out.wall_s = static_cast<double>(NowNs() - wall_start) / 1e9;
  out.cpu_s = ProcessCpuSeconds() - cpu_start;
  return out;
}

}  // namespace perfbench
