#include "perfbench/driver/check.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/service/plan_serde.h"

namespace perfbench {
namespace dp = dynapipe;

namespace {

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// One iteration's step of SimLedger::digest.
uint64_t DigestStep(uint64_t h, int32_t microbatches,
                    dp::model::RecomputeMode recompute, double predicted_ms,
                    double measured_ms) {
  h = Fnv(h, static_cast<uint64_t>(microbatches));
  h = Fnv(h, static_cast<uint64_t>(recompute));
  h = Fnv(h, Bits(predicted_ms));
  return Fnv(h, Bits(measured_ms));
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

void AddPadding(dp::mb::PaddingStats* sum, const dp::mb::PaddingStats& p) {
  sum->real_input_tokens += p.real_input_tokens;
  sum->padded_input_tokens += p.padded_input_tokens;
  sum->real_target_tokens += p.real_target_tokens;
  sum->padded_target_tokens += p.padded_target_tokens;
}

}  // namespace

PlanBytes ReferencePlans(
    const Bench& bench,
    const std::vector<std::vector<dp::data::Sample>>& batches) {
  dp::runtime::PlannerOptions opts = dp::bench::BenchPlanner();
  opts.cost_cache = false;
  opts.incremental_planning = false;
  const dp::runtime::IterationPlanner planner(bench.cost_model(), opts);
  PlanBytes out(batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    const dp::runtime::IterationPlan plan = planner.PlanIteration(batches[i]);
    for (const dp::runtime::ReplicaPlan& replica : plan.replicas) {
      out[i].push_back(dp::service::EncodeExecutionPlan(replica.exec_plan));
    }
  }
  return out;
}

int64_t CountMismatches(const PassResult& pass, const PlanBytes& reference) {
  int64_t mismatches = 0;
  for (size_t i = 0; i < std::max(pass.fetched.size(), reference.size()); ++i) {
    if (i >= pass.fetched.size() || i >= reference.size()) {
      ++mismatches;
      continue;
    }
    const std::vector<dp::sim::ExecutionPlan>& got = pass.fetched[i];
    bool same = got.size() == reference[i].size();
    for (size_t d = 0; same && d < got.size(); ++d) {
      same = dp::service::EncodeExecutionPlan(got[d]) == reference[i][d];
    }
    mismatches += same ? 0 : 1;
  }
  return mismatches;
}

double SimLedger::tokens_per_s() const {
  return train_ms <= 0.0 ? 0.0
                         : static_cast<double>(real_tokens) / (train_ms / 1000.0);
}

double SimLedger::padding_efficiency() const {
  return padding.overall_efficiency();
}

SimLedger LedgerOf(const std::vector<IterationRecord>& records, size_t count) {
  SimLedger ledger;
  ledger.digest = kFnvBasis;
  for (size_t i = 0; i < std::min(count, records.size()); ++i) {
    const IterationRecord& r = records[i];
    ++ledger.iterations;
    ledger.real_tokens += r.real_tokens;
    ledger.train_ms += r.measured_ms;
    AddPadding(&ledger.padding, r.padding);
    ledger.plan_bytes += r.plan_bytes;
    ledger.digest = DigestStep(ledger.digest, r.microbatches, r.recompute,
                               r.predicted_ms, r.measured_ms);
  }
  return ledger;
}

FidelityResult CheckFidelity(const Bench& bench,
                             const std::vector<IterationRecord>& pass0) {
  const int64_t k = kFidelityIterations;
  dp::runtime::Trainer trainer(bench.config(), bench.hardware(),
                               bench.workload().parallel,
                               dp::bench::BenchProfile());
  const dp::runtime::EpochResult epoch = trainer.RunEpoch(
      bench.dataset(), dp::bench::BenchPlanner(), bench.TrainerOptionsFor(0, k));

  SimLedger product;
  product.digest = kFnvBasis;
  product.iterations = epoch.iterations;
  product.real_tokens = epoch.real_tokens;
  product.train_ms = epoch.train_time_ms;
  product.padding = epoch.padding;
  product.plan_bytes = epoch.serialized_plan_bytes;
  for (const dp::runtime::IterationRecord& r : epoch.records) {
    product.digest = DigestStep(product.digest, r.num_microbatches,
                                r.recompute, r.predicted_ms, r.measured_ms);
  }
  const SimLedger driver = LedgerOf(pass0, static_cast<size_t>(k));

  FidelityResult result;
  result.ok = epoch.feasible && product.iterations == driver.iterations &&
              product.tokens_per_s() == driver.tokens_per_s() &&
              product.padding_efficiency() == driver.padding_efficiency() &&
              product.plan_bytes == driver.plan_bytes &&
              product.digest == driver.digest;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"iterations\": [%lld, %lld], \"sim_tokens_per_s\": [%.17g, "
                "%.17g], \"padding_efficiency\": [%.17g, %.17g], "
                "\"plan_bytes\": [%lld, %lld], \"digest\": [\"%016llx\", "
                "\"%016llx\"], \"feasible\": %s}",
                static_cast<long long>(driver.iterations),
                static_cast<long long>(product.iterations),
                driver.tokens_per_s(), product.tokens_per_s(),
                driver.padding_efficiency(), product.padding_efficiency(),
                static_cast<long long>(driver.plan_bytes),
                static_cast<long long>(product.plan_bytes),
                static_cast<unsigned long long>(driver.digest),
                static_cast<unsigned long long>(product.digest),
                epoch.feasible ? "true" : "false");
  result.detail = buf;
  return result;
}

}  // namespace perfbench
