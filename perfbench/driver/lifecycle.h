// The plan lifecycle of Trainer::RunEpochImpl, driven from outside through the
// public entry points it uses:
//
//   MiniBatchSampler::Next -> PlanAheadService::NextPlan (PlanFn ->
//   IterationPlanner::PlanIteration) -> PlanAheadService::FetchExecPlan over
//   the workload's store backend -> ClusterSim::Run ->
//   HeartbeatMonitor::OnHeartbeat / ForIteration
//
// A Bench is one workload's set-up: dataset, cost-model profile, planner
// caches, plan cache, pool, the mux workload's long-lived plan server (an
// InstructionStoreServer on a Unix socket fronted by a mux client), and one
// warm-up pass. RunPass then plays one epoch-like pass the way RunEpochImpl
// plays an epoch: a fresh sampler, ground truth, heartbeat monitor, planner
// (over the shared caches), shared-memory segment (shm workloads) and
// PlanAheadService.
#ifndef PERFBENCH_DRIVER_LIFECYCLE_H_
#define PERFBENCH_DRIVER_LIFECYCLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/cost/pipeline_cost_model.h"
#include "src/data/dataset.h"
#include "src/data/minibatch_sampler.h"
#include "src/model/hardware_spec.h"
#include "src/model/model_config.h"
#include "src/runtime/instruction_store.h"
#include "src/runtime/planner.h"
#include "src/runtime/trainer.h"
#include "src/service/plan_cache.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace perfbench {

enum class StoreBackend { kShm, kMux };

struct Workload {
  const char* name;
  dynapipe::model::ModelArch arch;
  int32_t num_gpus;
  dynapipe::model::ParallelConfig parallel;
  int64_t batch_tokens;
  // 0 plans inline on the consumer thread; > 0 plans ahead on the pool.
  int32_t lookahead;
  // Pool shared by the plan-ahead service and the planner's fan-outs; 0 = none.
  int32_t pool_threads;
  bool plan_cache;
  StoreBackend backend;
  // Timed passes replay the shuffle set-up planned into the plan cache;
  // otherwise every pass draws a shuffle no earlier pass used.
  bool replay;
};

const Workload* FindWorkload(const std::string& name);

// sim_tokens_per_s and padding_efficiency cover exactly the first this many
// passes, so they repeat exactly for a seed however fast the host runs.
inline constexpr int64_t kLedgerPasses = 4;
// Iterations of the Trainer::RunEpoch fidelity run.
inline constexpr int64_t kFidelityIterations = 4;

// Every input derives from the one workload seed.
struct Seeds {
  uint64_t dataset = 0;
  uint64_t noise = 0;
  uint64_t shuffle_base = 0;
  // Sampler seed of a pass; pass -1 is the set-up warm-up.
  uint64_t Shuffle(int64_t pass) const;
};
Seeds DeriveSeeds(uint64_t seed);

struct IterationRecord {
  int64_t real_tokens = 0;
  dynapipe::mb::PaddingStats padding;
  double predicted_ms = 0.0;
  double measured_ms = 0.0;
  int32_t microbatches = 0;
  dynapipe::model::RecomputeMode recompute = dynapipe::model::RecomputeMode::kNone;
  bool plan_cache_hit = false;
  dynapipe::runtime::PlanningStats stats;
  double planning_ms = 0.0;
  int64_t plan_bytes = 0;
  int64_t instructions = 0;
};

struct PassResult {
  int64_t iterations = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // Deadlock, OOM, infeasible plan or a short heartbeat report; the pass
  // stopped at the failing iteration (counted in `iterations`).
  bool failed = false;
  std::string failure;
  int64_t plan_calls = 0;
  int64_t seeded_plan_calls = 0;
  std::vector<IterationRecord> records;
  // Fetched execution plans, [iteration][replica], for the byte check.
  std::vector<std::vector<dynapipe::sim::ExecutionPlan>> fetched;
};

class Bench {
 public:
  // The whole set-up, warm-up pass included. `socket_dir` holds the mux
  // workload's Unix socket.
  Bench(const Workload& workload, const Seeds& seeds,
        const std::string& socket_dir);
  ~Bench();

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Plays one pass; `max_iterations` > 0 stops it early.
  PassResult RunPass(int64_t pass, int64_t max_iterations = 0);

  // The mini-batches pass `pass` draws, regenerated for the byte check.
  std::vector<std::vector<dynapipe::data::Sample>> PassBatches(
      int64_t pass, int64_t max_iterations = 0) const;

  // TrainerOptions equivalent to this workload, for the fidelity check.
  dynapipe::runtime::TrainerOptions TrainerOptionsFor(
      int64_t pass, int64_t max_iterations) const;
  dynapipe::data::MiniBatchSamplerOptions SamplerOptionsFor(int64_t pass) const;

  const Workload& workload() const { return workload_; }
  const dynapipe::data::Dataset& dataset() const { return dataset_; }
  const dynapipe::cost::PipelineCostModel& cost_model() const {
    return cost_model_;
  }
  const dynapipe::model::ModelConfig& config() const { return config_; }
  const dynapipe::model::HardwareSpec& hardware() const { return hw_; }
  const PassResult& warmup() const { return warmup_; }

 private:

  const Workload& workload_;
  Seeds seeds_;
  std::string socket_path_;
  dynapipe::data::Dataset dataset_;
  dynapipe::model::ModelConfig config_;
  dynapipe::model::HardwareSpec hw_;
  dynapipe::cost::PipelineCostModel cost_model_;
  dynapipe::runtime::PlannerOptions planner_options_;
  std::shared_ptr<dynapipe::service::PlanCache> plan_cache_;
  // Mux backend only: the server side, declared before the client so the
  // client disconnects first.
  std::optional<dynapipe::runtime::InstructionStore> server_store_;
  std::optional<dynapipe::transport::UnixSocketTransport> socket_;
  std::optional<dynapipe::transport::InstructionStoreServer> server_;
  std::shared_ptr<dynapipe::runtime::InstructionStoreInterface> mux_client_;
  // Last: joined before anything its tasks touch is destroyed.
  std::optional<dynapipe::ThreadPool> pool_;
  PassResult warmup_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LIFECYCLE_H_
