#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/multi_system.h"

/// \file
/// The benchmark's three named workloads (e2ebench/README.md records why
/// each exists and which layers it loads). A workload is a batch job: one
/// RunMultiQuerySystem call generates its whole input, so the measure is
/// simulated updates per wall second at the stated size.
///
/// Every walk, churn and run seed derives from the single benchmark seed;
/// the same (workload, seed, instance) always yields the same inputs.

namespace e2ebench {

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Inputs of one workload instance, built and validated through the
/// library's public entry points (ExpandChurn, ParseNetSpec,
/// MultiQueryConfig::Validate) — the part of a run timed as `setup_s`.
struct Workload {
  std::string name;
  asf::MultiQueryConfig config;
  /// Independent instances in the workload's set. A run measures every
  /// instance: summing over several independent simulations keeps a
  /// run's totals close to those of another seed's run.
  std::size_t instances = 1;
};

/// Builds and validates instance `instance` (< Workload::instances) of
/// workload `name` for `seed`. `spill_dir` is the existing, empty
/// directory churn_spill spills retired queries into; the other
/// workloads ignore it. Engine settings (`shards`, `dispatch`) stay at
/// their defaults: one thread, auto dispatch.
asf::Result<Workload> BuildWorkload(const std::string& name,
                                    std::uint64_t seed, std::size_t instance,
                                    const std::string& spill_dir);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
