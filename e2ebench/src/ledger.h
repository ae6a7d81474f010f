#ifndef E2EBENCH_LEDGER_H_
#define E2EBENCH_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/multi_system.h"
#include "runner.h"
#include "spans.h"

/// \file
/// The per-layer ledger: a separate traced run that times each layer from
/// outside the program, through public entry points only. Spans are
/// recorded around every call the benchmark makes into a layer, kept in
/// memory and written out at the end. The layer names are the src/
/// module names; e2ebench/README.md says which end-to-end metric each
/// layer metric should move, on which workload.

namespace e2ebench {

/// The stream layer replayed alone: MakeStreams + StreamSet::Start +
/// Scheduler::RunUntil with a handler that only records event times.
struct StreamReplay {
  double seconds = 0;
  /// Update times of each stream, in order.
  std::vector<std::vector<asf::SimTime>> times;
  std::uint64_t events = 0;
  /// Updates the engine counts: those arriving while a query is live.
  std::uint64_t engine_updates = 0;
};
StreamReplay ReplayStreams(const asf::MultiQueryConfig& config);

/// The sim layer replayed alone: the recorded update times pushed back
/// through Scheduler::ScheduleAt / Step, each stream's next event
/// scheduled from its previous one as the streams do, with callbacks
/// that do nothing else.
struct SchedulerReplay {
  double seconds = 0;
  std::uint64_t events = 0;
};
SchedulerReplay ReplayScheduler(const StreamReplay& streams);

/// The query lifecycle replayed alone: the workload's deployment
/// schedule, in time order, through FilterArena::Acquire, Deploy on
/// every stream, and Release.
struct LifecycleReplay {
  double seconds = 0;
  std::uint64_t deploys = 0;
  std::uint64_t retires = 0;
  std::uint64_t ops() const { return deploys + retires; }
};
LifecycleReplay ReplayLifecycle(const asf::MultiQueryConfig& config);

/// A named metric with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Runs traced rounds of the workload's first instance until `seconds`
/// have passed (at least one round) and returns every per-layer metric,
/// in the order BENCHMARK.json lists them. Spans go to the runner's
/// recorder; gate failures, including replays that disagree with the
/// engine's counts, are counted in `runner`.
std::vector<Metric> TraceWorkload(Runner* runner, double seconds);

}  // namespace e2ebench

#endif  // E2EBENCH_LEDGER_H_
