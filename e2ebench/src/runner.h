#ifndef E2EBENCH_RUNNER_H_
#define E2EBENCH_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/multi_system.h"
#include "obs/profiler.h"
#include "spans.h"
#include "workloads.h"

/// \file
/// Checked engine calls. Every call builds the workload's inputs afresh
/// (a `setup_s` sample, the mean of several builds), runs
/// RunMultiQuerySystem in its own empty spill directory, and passes the
/// correctness gate: the run invariants of digest.h, an unchanged digest
/// against earlier calls of the same variant, instance and seed, and an
/// empty spill directory afterwards.

namespace e2ebench {

/// What a call changes about the workload's configuration. The ledger
/// subtracts variants from the base run to time layers from outside.
enum class Variant {
  kBase,        ///< the workload as defined
  kOracleOff,   ///< oracle sampling off (times the tolerance layer)
  kInstantNet,  ///< instant delivery (times the net layer)
};

struct Call {
  asf::MultiQueryResult result;
  double wall_s = 0;    ///< wall time of the RunMultiQuerySystem call
  std::string digest;
  std::string failure;  ///< empty when the call passed the gate
};

class Runner {
 public:
  /// `scratch_dir` must exist; each call makes and removes its own
  /// subdirectory there.
  Runner(std::string workload, std::uint64_t seed, std::string scratch_dir);

  /// Builds the inputs of `instance` once more, only to time them.
  asf::Status TimeSetup(std::size_t instance);

  /// One checked call of `instance`; `profiler` (may be null) attaches
  /// through the public ObsHooks.
  Call Run(Variant variant, std::size_t instance,
           asf::obs::Profiler* profiler);

  /// Records a "setup" and an "engine" span inside every later call;
  /// null (the default) records nothing.
  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }
  SpanRecorder* recorder() const { return recorder_; }

  /// The inputs as the last call built them (valid after one call).
  const Workload& workload() const { return workload_; }

  const std::vector<double>& setup_seconds() const { return setup_s_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::string& first_failure() const { return first_failure_; }
  /// The base variant's digests, one per instance run so far, joined.
  std::string base_digest() const;

  /// Counts a failure found outside Run (the ledger's replay checks).
  void Fail(const std::string& why);

 private:
  /// Makes a fresh empty spill directory and builds `instance`'s inputs
  /// against it, appending the build time to setup_s_.
  asf::Status Setup(std::size_t instance, std::string* dir);

  std::string name_;
  std::uint64_t seed_;
  std::string scratch_;
  std::uint64_t next_dir_ = 0;
  SpanRecorder* recorder_ = nullptr;
  Workload workload_;
  std::vector<double> setup_s_;
  std::map<std::pair<Variant, std::size_t>, std::string> digests_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
};

/// Wall seconds since `start`.
double SecondsSince(std::chrono::steady_clock::time_point start);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

}  // namespace e2ebench

#endif  // E2EBENCH_RUNNER_H_
