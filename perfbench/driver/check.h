// Correctness checks that run outside the timed region.
//
// Byte check: every fetched execution plan must encode to exactly the bytes
// of a from-scratch serial plan of the same mini-batch — a planner with the
// cost oracle, the incremental caches and the pool all off.
//
// Fidelity check: a short Trainer::RunEpoch of the workload's configuration
// must reproduce the driver's own pass — the same simulated tokens/s, padding
// efficiency, wire bytes and per-iteration record digest — so the outside-in
// loop cannot drift away from the product loop.
#ifndef PERFBENCH_DRIVER_CHECK_H_
#define PERFBENCH_DRIVER_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/driver/lifecycle.h"

namespace perfbench {

// Encoded reference plans, [iteration][replica], from one serial planner.
using PlanBytes = std::vector<std::vector<std::string>>;
PlanBytes ReferencePlans(
    const Bench& bench,
    const std::vector<std::vector<dynapipe::data::Sample>>& batches);

// Iterations whose fetched plans differ from `reference`, over the longer of
// the two (an iteration or replica missing on either side differs).
int64_t CountMismatches(const PassResult& pass, const PlanBytes& reference);

// Simulated results of a run of iterations, as RunEpoch reports them.
struct SimLedger {
  int64_t iterations = 0;
  int64_t real_tokens = 0;
  double train_ms = 0.0;
  dynapipe::mb::PaddingStats padding;
  int64_t plan_bytes = 0;
  // FNV-1a over every iteration's micro-batch count, recompute mode,
  // predicted and measured time (bitwise).
  uint64_t digest = 0;

  double tokens_per_s() const;
  double padding_efficiency() const;
};
SimLedger LedgerOf(const std::vector<IterationRecord>& records, size_t count);

struct FidelityResult {
  bool ok = false;
  std::string detail;
};
// `pass0` holds the records of the driver's first timed pass.
FidelityResult CheckFidelity(const Bench& bench,
                             const std::vector<IterationRecord>& pass0);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_CHECK_H_
