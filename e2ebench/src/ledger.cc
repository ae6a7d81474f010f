#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "digest.h"
#include "filter/filter_arena.h"
#include "obs/profiler.h"
#include "sim/scheduler.h"

namespace e2ebench {
namespace {

using asf::SimTime;

/// When a deployment is installed and (if before the horizon) retired,
/// as the engine resolves them.
SimTime DeployAt(const asf::MultiQueryConfig& config,
                 const asf::QueryDeployment& dep) {
  return dep.start < 0 ? config.query_start : dep.start;
}
bool Retires(const asf::MultiQueryConfig& config,
             const asf::QueryDeployment& dep) {
  return dep.end < config.duration;
}

/// Live-query count after every lifecycle instant, as (time, live)
/// change points in time order. Deploys run before retirements at equal
/// times, and both before stream events at that time, as in the engine.
std::vector<std::pair<SimTime, std::int64_t>> LiveSteps(
    const asf::MultiQueryConfig& config) {
  std::vector<std::pair<SimTime, int>> events;
  for (const auto& dep : config.queries) {
    events.emplace_back(DeployAt(config, dep), +1);
    if (Retires(config, dep)) events.emplace_back(dep.end, -1);
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.first < b.first || (a.first == b.first && a.second > b.second);
  });
  std::vector<std::pair<SimTime, std::int64_t>> steps;
  std::int64_t live = 0;
  for (const auto& [t, delta] : events) {
    live += delta;
    if (!steps.empty() && steps.back().first == t) {
      steps.back().second = live;
    } else {
      steps.emplace_back(t, live);
    }
  }
  return steps;
}

asf::FilterConstraint ReplayConstraint(const asf::QuerySpec& query) {
  if (query.type == asf::QuerySpec::Type::kRange) {
    return asf::FilterConstraint::Range(
        asf::Interval(query.range_lo, query.range_hi));
  }
  return asf::FilterConstraint::Range(
      asf::Interval(query.query_point - 100, query.query_point + 100));
}

/// The scheduler replay's state: each callback advances one stream's
/// cursor and schedules that stream's next recorded update.
struct SchedulerReplayState {
  asf::Scheduler scheduler;
  const std::vector<std::vector<SimTime>>* times = nullptr;
  std::vector<std::size_t> cursor;

  void ScheduleNext(asf::StreamId id) {
    const std::vector<SimTime>& t = (*times)[id];
    if (cursor[id] < t.size()) {
      scheduler.ScheduleAt(t[cursor[id]++], [this, id] { ScheduleNext(id); });
    }
  }
};

double Sum(const asf::obs::ProfileReport& report,
           std::initializer_list<asf::obs::Phase> phases) {
  double s = 0;
  for (const asf::obs::Phase p : phases) s += report.of(p);
  return s;
}

/// Wall seconds of one traced round, by what measured them.
struct Round {
  double untraced = 0;     ///< base run, no profiler
  double traced = 0;       ///< base run, profiler attached
  double oracle_off = 0;   ///< traced, oracle sampling off
  double instant = 0;      ///< traced, instant delivery (= traced if so)
  asf::obs::ProfileReport profile;          ///< of the traced run
  asf::obs::ProfileReport instant_profile;  ///< of the instant run
  double stream = 0;
  double sim = 0;
  double lifecycle = 0;

  double dispatch() const {
    return Sum(profile, {asf::obs::Phase::kDispatch,
                         asf::obs::Phase::kIndexRebuild});
  }
  /// Protocol reaction: the delivery callbacks under instant delivery,
  /// where delivering is nothing but reacting.
  double reaction() const {
    return instant_profile.of(asf::obs::Phase::kNetFlush);
  }
  /// What delayed, faulty delivery adds over instant delivery.
  double net_cost() const { return traced - instant; }
  double oracle() const { return traced - oracle_off; }
  double spill_io() const { return profile.of(asf::obs::Phase::kSpillIo); }
  /// Traced wall the layers above account for. The stream replay
  /// includes the sim replay (its callbacks are the scheduler's events).
  double attributed() const {
    return stream + lifecycle + dispatch() + reaction() + net_cost() +
           oracle() + spill_io();
  }
};

template <typename F>
double MedianOf(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return Median(v);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Queries the engine retired before the horizon.
std::uint64_t Retired(const asf::MultiQueryResult& result, SimTime horizon) {
  std::uint64_t retired = 0;
  for (const auto& q : result.queries) {
    if (q.retired_at < horizon) ++retired;
  }
  return retired;
}

}  // namespace

StreamReplay ReplayStreams(const asf::MultiQueryConfig& config) {
  StreamReplay out;
  out.times.resize(config.source.NumStreams());
  const auto start = std::chrono::steady_clock::now();
  {
    std::unique_ptr<asf::StreamSet> streams = asf::MakeStreams(config.source);
    asf::Scheduler scheduler;
    streams->set_update_handler(
        [&out](asf::StreamId id, asf::Value, SimTime t) {
          out.times[id].push_back(t);
        });
    streams->Start(&scheduler, config.duration);
    scheduler.RunUntil(config.duration);
    out.events = streams->updates_generated();
  }
  out.seconds = SecondsSince(start);

  const auto steps = LiveSteps(config);
  for (const auto& times : out.times) {
    for (const SimTime t : times) {
      const auto it = std::upper_bound(
          steps.begin(), steps.end(), t,
          [](SimTime x, const auto& step) { return x < step.first; });
      if (it != steps.begin() && std::prev(it)->second > 0) {
        ++out.engine_updates;
      }
    }
  }
  return out;
}

SchedulerReplay ReplayScheduler(const StreamReplay& streams) {
  SchedulerReplay out;
  const auto start = std::chrono::steady_clock::now();
  {
    SchedulerReplayState state;
    state.times = &streams.times;
    state.cursor.assign(streams.times.size(), 0);
    for (asf::StreamId id = 0; id < streams.times.size(); ++id) {
      state.ScheduleNext(id);
    }
    while (state.scheduler.Step()) {
    }
    out.events = state.scheduler.dispatched();
  }
  out.seconds = SecondsSince(start);
  return out;
}

LifecycleReplay ReplayLifecycle(const asf::MultiQueryConfig& config) {
  struct Event {
    SimTime t;
    bool deploy;
    std::size_t query;
  };
  std::vector<Event> events;
  for (std::size_t q = 0; q < config.queries.size(); ++q) {
    const auto& dep = config.queries[q];
    events.push_back({DeployAt(config, dep), true, q});
    if (Retires(config, dep)) events.push_back({dep.end, false, q});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.t < b.t || (a.t == b.t && a.deploy > b.deploy);
                   });

  LifecycleReplay out;
  const std::size_t n = config.source.NumStreams();
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::size_t> column_of(config.queries.size(),
                                       asf::FilterArena::kNoColumn);
    std::vector<std::size_t> owner;  // column -> query
    asf::FilterArena arena(n);
    arena.set_relocation_callback([&](std::size_t from, std::size_t to) {
      owner[to] = owner[from];
      column_of[owner[to]] = to;
    });
    for (const Event& ev : events) {
      if (ev.deploy) {
        const std::size_t c = arena.Acquire();
        owner.resize(std::max(owner.size(), c + 1));
        owner[c] = ev.query;
        column_of[ev.query] = c;
        const asf::FilterConstraint constraint =
            ReplayConstraint(config.queries[ev.query].query);
        for (asf::StreamId id = 0; id < n; ++id) {
          arena.Deploy(id, c, constraint, 500.0);
        }
        ++out.deploys;
      } else {
        arena.Release(column_of[ev.query]);
        column_of[ev.query] = asf::FilterArena::kNoColumn;
        ++out.retires;
      }
    }
  }
  out.seconds = SecondsSince(start);
  return out;
}

std::vector<Metric> TraceWorkload(Runner* runner, double seconds) {
  SpanRecorder* const recorder = runner->recorder();
  std::vector<Round> rounds;
  Call first;  // the first traced call: source of every count below
  SimTime horizon = 0;
  std::uint64_t first_stream_events = 0;
  SchedulerReplay first_sim;
  LifecycleReplay first_lifecycle;

  {
    ScopedSpan span(recorder, "call.warm_up");  // caches, allocator
    runner->Run(Variant::kBase, 0, nullptr);
  }
  const auto start = std::chrono::steady_clock::now();
  do {
    ScopedSpan round_span(recorder, "round");
    Round r;
    {
      ScopedSpan span(recorder, "call.untraced");
      r.untraced = runner->Run(Variant::kBase, 0, nullptr).wall_s;
    }
    Call traced;
    {
      ScopedSpan span(recorder, "call.traced");
      asf::obs::Profiler profiler;
      traced = runner->Run(Variant::kBase, 0, &profiler);
      r.traced = traced.wall_s;
      r.profile = profiler.Merged();
    }
    const asf::MultiQueryConfig config = runner->workload().config;
    StreamReplay streams;
    {
      ScopedSpan span(recorder, "replay.stream");
      streams = ReplayStreams(config);
    }
    SchedulerReplay sim;
    {
      ScopedSpan span(recorder, "replay.sim");
      sim = ReplayScheduler(streams);
    }
    LifecycleReplay lifecycle;
    {
      ScopedSpan span(recorder, "replay.lifecycle");
      lifecycle = ReplayLifecycle(config);
    }
    {
      ScopedSpan span(recorder, "call.oracle_off");
      asf::obs::Profiler profiler;
      r.oracle_off = runner->Run(Variant::kOracleOff, 0, &profiler).wall_s;
    }
    if (!config.net.DelaysDelivery()) {
      r.instant = r.traced;
      r.instant_profile = r.profile;
    } else {
      ScopedSpan span(recorder, "call.net_instant");
      asf::obs::Profiler profiler;
      r.instant = runner->Run(Variant::kInstantNet, 0, &profiler).wall_s;
      r.instant_profile = profiler.Merged();
    }
    r.stream = streams.seconds;
    r.sim = sim.seconds;
    r.lifecycle = lifecycle.seconds;

    // The replays must see what the engine saw.
    const asf::MultiQueryResult& res = traced.result;
    const std::uint64_t retired = Retired(res, config.duration);
    if (traced.failure.empty() &&
        (streams.engine_updates != res.updates_generated ||
         sim.events != streams.events ||
         lifecycle.deploys != res.queries.size() ||
         lifecycle.retires != retired)) {
      runner->Fail("replays disagree with the engine: updates " +
                   std::to_string(streams.engine_updates) + " vs " +
                   std::to_string(res.updates_generated) + ", deploys " +
                   std::to_string(lifecycle.deploys) + " vs " +
                   std::to_string(res.queries.size()) + ", retires " +
                   std::to_string(lifecycle.retires) + " vs " +
                   std::to_string(retired));
    }
    if (rounds.empty()) {
      first = std::move(traced);
      horizon = config.duration;
      first_stream_events = streams.events;
      first_sim = sim;
      first_lifecycle = lifecycle;
    }
    rounds.push_back(r);
  } while (SecondsSince(start) < seconds);

  const asf::MultiQueryResult& res = first.result;
  const asf::NetStats& net = res.net;
  std::uint64_t reported = 0, probes = 0, deploys = 0, reinits = 0,
                maintenance = 0;
  for (const auto& q : res.queries) {
    reported += q.updates_reported;
    reinits += q.reinits;
    maintenance += q.messages.MaintenanceTotal();
    for (int p = 0; p < asf::kNumMessagePhases; ++p) {
      const auto phase = static_cast<asf::MessagePhase>(p);
      probes += q.messages.count(phase, asf::MessageType::kProbeRequest) +
                q.messages.count(phase, asf::MessageType::kRegionProbeRequest);
      deploys += q.messages.count(phase, asf::MessageType::kFilterDeploy);
    }
  }
  const OracleTotals oracle = SumOracle(res);
  const asf::SpillTelemetry& spill = res.spill;
  const double traced = MedianOf(rounds, [](const Round& r) {
    return r.traced;
  });
  const double stream_s = MedianOf(rounds, [](const Round& r) {
    return r.stream;
  });
  const double sim_s = MedianOf(rounds, [](const Round& r) { return r.sim; });
  const double lifecycle_s = MedianOf(rounds, [](const Round& r) {
    return r.lifecycle;
  });
  const double unattributed = MedianOf(rounds, [](const Round& r) {
    return r.traced - r.attributed();
  });
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  return {
      {"stream.updates", d(first_stream_events), "count"},
      {"stream.replay_s", stream_s, "s"},
      {"stream.ns_per_update", 1e9 * Ratio(stream_s, d(first_stream_events)),
       "ns"},
      {"sim.events", d(first_sim.events), "count"},
      {"sim.replay_s", sim_s, "s"},
      {"sim.ns_per_event", 1e9 * Ratio(sim_s, d(first_sim.events)), "ns"},
      {"filter.dispatch_s",
       MedianOf(rounds, [](const Round& r) { return r.dispatch(); }), "s"},
      {"filter.scan_dispatches", d(res.dispatch.scan_dispatches), "count"},
      {"filter.index_dispatches", d(res.dispatch.index_dispatches), "count"},
      {"filter.crossings_per_update",
       Ratio(d(net.crossings), d(res.updates_generated)), "ratio"},
      {"filter.lifecycle_ops", d(first_lifecycle.ops()), "count"},
      {"filter.lifecycle_us_per_op",
       1e6 * Ratio(lifecycle_s, d(first_lifecycle.ops())), "us"},
      {"engine.deploys", d(res.queries.size()), "count"},
      {"engine.retires", d(Retired(res, horizon)), "count"},
      {"engine.peak_live", d(res.peak_live_queries), "count"},
      {"engine.unattributed_s", unattributed, "s"},
      {"engine.unattributed_share", Ratio(unattributed, traced), "ratio"},
      {"protocol.reaction_s",
       MedianOf(rounds, [](const Round& r) { return r.reaction(); }), "s"},
      {"protocol.updates_reported", d(reported), "count"},
      {"protocol.probes", d(probes), "count"},
      {"protocol.deploys", d(deploys), "count"},
      {"protocol.reinits", d(reinits), "count"},
      {"protocol.msgs_per_crossing", Ratio(d(maintenance), d(net.crossings)),
       "ratio"},
      {"net.wire_msgs",
       d(net.update_messages + net.deploy_messages + net.control_rpcs),
       "count"},
      {"net.delivered_frac",
       Ratio(d(net.delivered_crossings), d(net.crossings)), "ratio"},
      {"net.dropped_loss", d(net.dropped_loss), "count"},
      {"net.dropped_partition", d(net.dropped_partition), "count"},
      {"net.deploy_retransmits", d(net.deploy_retransmits), "count"},
      {"net.probe_failovers", d(net.probe_failovers), "count"},
      {"net.in_flight_at_end", d(net.in_flight_at_end), "count"},
      {"net.flush_s",
       MedianOf(rounds,
                [](const Round& r) {
                  return r.profile.of(asf::obs::Phase::kNetFlush);
                }),
       "s"},
      {"net.cost_share",
       MedianOf(rounds,
                [](const Round& r) { return Ratio(r.net_cost(), r.traced); }),
       "ratio"},
      {"net.staleness_mean", net.delay.mean(), "simtime"},
      {"tolerance.oracle_checks", d(oracle.checks), "count"},
      {"tolerance.oracle_s",
       MedianOf(rounds, [](const Round& r) { return r.oracle(); }), "s"},
      {"tolerance.viol_rate", Ratio(d(oracle.violations), d(oracle.checks)),
       "ratio"},
      {"storage.records", d(spill.records_spilled), "count"},
      {"storage.spilled_bytes", d(spill.spilled_bytes), "bytes"},
      {"storage.file_bytes", d(spill.file_bytes), "bytes"},
      {"storage.space_amp", Ratio(d(spill.file_bytes), d(spill.spilled_bytes)),
       "ratio"},
      {"storage.pool_hit_rate", spill.PoolHitRate(), "ratio"},
      {"storage.io_share",
       MedianOf(rounds,
                [](const Round& r) { return Ratio(r.spill_io(), r.traced); }),
       "ratio"},
      {"trace.overhead",
       MedianOf(rounds,
                [](const Round& r) { return r.traced / r.untraced - 1; }),
       "ratio"},
      {"trace.coverage",
       MedianOf(rounds,
                [](const Round& r) { return r.attributed() / r.traced; }),
       "ratio"},
  };
}

}  // namespace e2ebench
