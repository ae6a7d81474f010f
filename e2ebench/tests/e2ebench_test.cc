// The benchmark's own tests: workload generation is deterministic per
// seed, every call passes the correctness gate, and the layer replays see
// the same update and deploy/retire counts as the engine run.

#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "digest.h"
#include "ledger.h"
#include "runner.h"
#include "workloads.h"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;

/// A fresh empty directory under $E2EBENCH_SCRATCH (set by
/// `run.py --self-test`), else under the system temp dir.
std::string TempDir(const std::string& tag) {
  const char* scratch = std::getenv("E2EBENCH_SCRATCH");
  const fs::path base =
      scratch != nullptr ? fs::path(scratch) : fs::temp_directory_path();
  const fs::path dir = base / ("e2ebench_test_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Everything about a built workload that its seed determines.
std::string Fingerprint(const Workload& w) {
  const asf::MultiQueryConfig& c = w.config;
  std::string out = w.name + " walk_seed=" +
                    std::to_string(c.source.walk.seed) +
                    " streams=" + std::to_string(c.source.NumStreams()) +
                    " run_seed=" + std::to_string(c.seed) +
                    " horizon=" + std::to_string(c.duration) +
                    " net=" + c.net.ToString() + "\n";
  for (const auto& q : c.queries) {
    out += q.name + " " + std::to_string(static_cast<int>(q.protocol)) + " " +
           std::to_string(q.query.range_lo) + " " +
           std::to_string(q.query.range_hi) + " " +
           std::to_string(q.query.query_point) + " " +
           std::to_string(q.start) + " " + std::to_string(q.end) + "\n";
  }
  return out;
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, GenerationIsDeterministicPerSeed) {
  const std::string dir = TempDir("gen");
  auto a = BuildWorkload(GetParam(), 7, 0, dir);
  auto b = BuildWorkload(GetParam(), 7, 0, dir);
  auto c = BuildWorkload(GetParam(), 8, 0, dir);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok() && c.ok());
  EXPECT_EQ(Fingerprint(*a), Fingerprint(*b));
  EXPECT_NE(Fingerprint(*a), Fingerprint(*c));
  // Instances are independent simulations of the same workload.
  const std::size_t instances = a->instances;
  if (instances > 1) {
    auto other = BuildWorkload(GetParam(), 7, instances - 1, dir);
    ASSERT_TRUE(other.ok());
    EXPECT_NE(Fingerprint(*a), Fingerprint(*other));
  }
  EXPECT_FALSE(BuildWorkload(GetParam(), 7, instances, dir).ok());
  EXPECT_EQ(a->config.shards, 1u);
  EXPECT_EQ(a->config.dispatch, asf::DispatchPolicy::kAuto);
  fs::remove_all(dir);
}

TEST_P(WorkloadTest, CallsPassTheGateAndRepeatTheirDigest) {
  const std::string dir = TempDir("gate");
  Runner runner(GetParam(), 3, dir);
  const Call first = runner.Run(Variant::kBase, 0, nullptr);
  const Call second = runner.Run(Variant::kBase, 0, nullptr);
  EXPECT_EQ(first.failure, "");
  EXPECT_EQ(second.failure, "");
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(runner.failed(), 0u) << runner.first_failure();
  EXPECT_EQ(runner.attempted(), 2u);
  EXPECT_EQ(runner.setup_seconds().size(), 2u);
  // Every call's spill directory is gone; nothing accumulates.
  EXPECT_TRUE(fs::is_empty(dir));
  if (GetParam() == "churn_spill") {
    EXPECT_GT(first.result.spill.records_spilled, 0u);
  }
  fs::remove_all(dir);
}

TEST_P(WorkloadTest, ReplaysSeeTheEngineCounts) {
  const std::string dir = TempDir("replay");
  Runner runner(GetParam(), 5, dir);
  const Call call = runner.Run(Variant::kBase, 0, nullptr);
  ASSERT_EQ(call.failure, "");
  const asf::MultiQueryConfig& config = runner.workload().config;

  const StreamReplay streams = ReplayStreams(config);
  EXPECT_EQ(streams.engine_updates, call.result.updates_generated);
  EXPECT_GE(streams.events, streams.engine_updates);
  EXPECT_EQ(ReplayScheduler(streams).events, streams.events);

  const LifecycleReplay lifecycle = ReplayLifecycle(config);
  std::uint64_t retired = 0;
  for (const auto& q : call.result.queries) {
    if (q.retired_at < config.duration) ++retired;
  }
  EXPECT_EQ(lifecycle.deploys, call.result.queries.size());
  EXPECT_EQ(lifecycle.retires, retired);
  if (GetParam() == "churn_spill") EXPECT_GT(retired, 0u);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::ValuesIn(WorkloadNames()));

TEST(WorkloadTest, UnknownWorkloadIsRefused) {
  EXPECT_FALSE(BuildWorkload("no_such_workload", 1, 0, "").ok());
}

TEST(DigestTest, ViolationsUnderInstantDeliveryFailTheGate) {
  asf::MultiQueryConfig config;
  config.oracle.sample_interval = 10;
  asf::MultiQueryResult result;
  result.queries.resize(1);
  result.queries[0].oracle_checks = 10;
  EXPECT_EQ(CheckRun(config, result), "");
  result.queries[0].oracle_violations = 1;
  EXPECT_NE(CheckRun(config, result), "");
  config.net.kind = asf::NetConfig::Kind::kFixedLatency;
  config.net.latency = 2;
  EXPECT_EQ(CheckRun(config, result), "");
}

TEST(DigestTest, BrokenCrossingConservationFailsTheGate) {
  asf::MultiQueryConfig config;
  asf::MultiQueryResult result;
  result.net.crossings = 5;
  result.net.delivered_crossings = 3;
  result.net.dropped_loss = 1;
  EXPECT_NE(CheckRun(config, result), "");
  result.net.in_flight_crossings_at_end = 1;
  EXPECT_EQ(CheckRun(config, result), "");
}

TEST(DigestTest, DigestCoversMessageCounts) {
  asf::MultiQueryResult a;
  a.queries.resize(1);
  asf::MultiQueryResult b = a;
  EXPECT_EQ(Digest(a), Digest(b));
  b.queries[0].messages.Count(asf::MessageType::kProbeRequest);
  EXPECT_NE(Digest(a), Digest(b));
}

}  // namespace
}  // namespace e2ebench
