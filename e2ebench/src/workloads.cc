#include "workloads.h"

#include <utility>

#include "common/rng.h"
#include "engine/churn.h"

namespace e2ebench {
namespace {

using asf::MultiQueryConfig;
using asf::ProtocolKind;
using asf::QueryDeployment;
using asf::QuerySpec;
using asf::Result;
using asf::SimTime;
using asf::Status;

/// Simulated horizons, sized so one RunMultiQuerySystem call takes about
/// a second on one core (a run then takes medians over many calls).
constexpr SimTime kStaticHorizon = 20000;  // ~1M stream updates
constexpr SimTime kChurnHorizon = 2000;
constexpr SimTime kFaultyHorizon = 400;

/// Simulated time between oracle samples. Each workload samples on a
/// fixed grid; the spacing keeps the oracle a minor share of wall time
/// (a sample judges every live query against the whole population).
constexpr SimTime kStaticOracleGrid = 100;
constexpr SimTime kChurnOracleGrid = 25;
constexpr SimTime kFaultyOracleGrid = 10;

/// Instances per workload set: more where a single simulation's totals
/// swing most from seed to seed (faulty delivery, then query churn).
constexpr std::size_t kStaticInstances = 1;
constexpr std::size_t kChurnInstances = 3;
constexpr std::size_t kFaultyInstances = 4;

/// Seed `i` of an instance's derived family: 0 = random walks, 1 = engine
/// run, 2 = churn schedule.
std::uint64_t DerivedSeed(std::uint64_t instance_seed, std::uint64_t i) {
  return asf::MixSeed(instance_seed, i);
}

MultiQueryConfig BaseConfig(std::size_t num_streams, SimTime horizon,
                            SimTime oracle_grid, std::uint64_t seed) {
  MultiQueryConfig config;
  asf::RandomWalkConfig walk;
  walk.num_streams = num_streams;
  walk.seed = DerivedSeed(seed, 0);
  config.source = asf::SourceSpec::Walk(walk);
  config.duration = horizon;
  config.seed = DerivedSeed(seed, 1);
  config.oracle.sample_interval = oracle_grid;
  return config;
}

QueryDeployment Deployment(std::string name, const QuerySpec& query,
                           ProtocolKind protocol) {
  QueryDeployment dep;
  dep.name = std::move(name);
  dep.query = query;
  dep.protocol = protocol;
  dep.fraction.eps_plus = 0.2;
  dep.fraction.eps_minus = 0.2;
  dep.rank_r = 2;
  return dep;
}

/// 64 static range queries over 1,000 streams, alternating ZT-NRP and
/// FT-NRP, ranges staggered as in micro_dispatch's engine_q64.
Result<MultiQueryConfig> StaticRange(std::uint64_t seed) {
  MultiQueryConfig config =
      BaseConfig(1000, kStaticHorizon, kStaticOracleGrid, seed);
  for (std::size_t q = 0; q < 64; ++q) {
    const double lo = 100.0 + 50.0 * static_cast<double>(q % 16);
    std::string name = "q";
    name += std::to_string(q);
    config.queries.push_back(Deployment(
        std::move(name), QuerySpec::Range(lo, lo + 100.0),
        q % 2 == 0 ? ProtocolKind::kZtNrp : ProtocolKind::kFtNrp));
  }
  auto net = asf::ParseNetSpec("instant");
  if (!net.ok()) return net.status();
  config.net = std::move(net).value();
  return config;
}

/// The ROADMAP churn workload: Poisson arrivals at rate 0.6 with mean
/// lifetime 250 (default FT-NRP mix) over 1,600 streams, retired queries
/// spilling to `spill_dir`.
Result<MultiQueryConfig> ChurnSpill(std::uint64_t seed,
                                    const std::string& spill_dir) {
  MultiQueryConfig config =
      BaseConfig(1600, kChurnHorizon, kChurnOracleGrid, seed);
  asf::ChurnSpec spec;
  spec.arrival_rate = 0.6;
  spec.mean_lifetime = 250;
  spec.seed = DerivedSeed(seed, 2);
  auto deployments = asf::ExpandChurn(spec, config.duration);
  if (!deployments.ok()) return deployments.status();
  config.queries = std::move(deployments).value();
  auto net = asf::ParseNetSpec("instant");
  if (!net.ok()) return net.status();
  config.net = std::move(net).value();
  config.spill.dir = spill_dir;
  return config;
}

/// One query per protocol over 1,000 streams under a composite faulty
/// network: latency with jitter, burst loss, bounded reordering and one
/// partition window at 40-45% of the horizon.
Result<MultiQueryConfig> FaultyNet(std::uint64_t seed) {
  MultiQueryConfig config =
      BaseConfig(1000, kFaultyHorizon, kFaultyOracleGrid, seed);
  const QuerySpec range = QuerySpec::Range(400, 600);
  const QuerySpec knn = QuerySpec::Knn(10, 500);
  config.queries = {
      Deployment("no_filter", range, ProtocolKind::kNoFilter),
      Deployment("zt_nrp", range, ProtocolKind::kZtNrp),
      Deployment("ft_nrp", range, ProtocolKind::kFtNrp),
      Deployment("rtp", knn, ProtocolKind::kRtp),
      Deployment("zt_rp", knn, ProtocolKind::kZtRp),
      Deployment("ft_rp", knn, ProtocolKind::kFtRp),
  };
  const std::string spec =
      "latency:2:1+loss:0.05:3+reorder:4+partition:" +
      std::to_string(0.40 * config.duration) + "," +
      std::to_string(0.45 * config.duration);
  auto net = asf::ParseNetSpec(spec);
  if (!net.ok()) return net.status();
  config.net = std::move(net).value();
  return config;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"static_range",
                                                 "churn_spill", "faulty_net"};
  return names;
}

Result<Workload> BuildWorkload(const std::string& name, std::uint64_t seed,
                               std::size_t instance,
                               const std::string& spill_dir) {
  const std::uint64_t instance_seed = asf::MixSeed(seed, 16 + instance);
  Workload workload;
  workload.name = name;
  Result<MultiQueryConfig> config = Status::InvalidArgument(
      "unknown workload '" + name + "' (static_range, churn_spill, "
      "faulty_net)");
  if (name == "static_range") {
    workload.instances = kStaticInstances;
    config = StaticRange(instance_seed);
  } else if (name == "churn_spill") {
    workload.instances = kChurnInstances;
    config = ChurnSpill(instance_seed, spill_dir);
  } else if (name == "faulty_net") {
    workload.instances = kFaultyInstances;
    config = FaultyNet(instance_seed);
  }
  if (!config.ok()) return config.status();
  if (instance >= workload.instances) {
    return Status::InvalidArgument(name + " has " +
                                   std::to_string(workload.instances) +
                                   " instances");
  }
  workload.config = std::move(config).value();
  const Status valid = workload.config.Validate();
  if (!valid.ok()) return valid;
  return workload;
}

}  // namespace e2ebench
