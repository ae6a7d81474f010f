/// The repository's end-to-end benchmark (e2ebench/README.md).
///
///   e2ebench --workload <static_range|churn_spill|faulty_net> --seed <n>
///            --seconds <s> --trace <0|1> --scratch <dir>
///
/// --trace 0 repeats the workload's RunMultiQuerySystem call for
/// --seconds and reports the end-to-end metrics as medians over calls;
/// --trace 1 runs the separate traced rounds of ledger.h and reports the
/// per-layer metrics. Every call passes the correctness gate (runner.h).
/// The last stdout line is one JSON object:
///   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
/// Usually launched through e2ebench/run.py, which builds this binary.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "digest.h"
#include "ledger.h"
#include "metrics/provenance.h"
#include "runner.h"
#include "spans.h"
#include "workloads.h"

namespace e2ebench {
namespace {

/// Setup-only builds made before each timed call, so setup_s is a median
/// over many samples spread across the whole run.
constexpr int kSetupRepsPerCall = 5;
/// The fewest passes over the workload's instances a run makes, however
/// short --seconds is.
constexpr int kMinPasses = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir>\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) return false;
    } else if (key == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->scratch.empty() &&
         args->seconds > 0;
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Only a failed call can make a metric non-finite (a zero wall time),
/// and then the result already reads "correct": false.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The end-to-end metrics. Passes over the workload's instances repeat
/// until --seconds have passed; each instance's call time is the median
/// over its calls, and the counts are sums over instances.
std::vector<Metric> MeasureEndToEnd(Runner* runner, double seconds) {
  const std::size_t instances = runner->workload().instances;
  runner->Run(Variant::kBase, 0, nullptr);  // warm-up: caches, allocator
  std::vector<std::vector<double>> walls(instances);
  std::vector<asf::MultiQueryResult> results(instances);
  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < kMinPasses || SecondsSince(start) < seconds;
       ++pass) {
    for (std::size_t i = 0; i < instances; ++i) {
      for (int r = 0; r < kSetupRepsPerCall; ++r) {
        const asf::Status setup = runner->TimeSetup(i);
        if (!setup.ok()) runner->Fail("setup: " + setup.ToString());
      }
      Call call = runner->Run(Variant::kBase, i, nullptr);
      if (!call.failure.empty()) continue;
      walls[i].push_back(call.wall_s);
      if (walls[i].size() == 1) results[i] = std::move(call.result);
    }
  }
  double updates = 0, seconds_per_set = 0, maintenance = 0;
  OracleTotals oracle;
  for (std::size_t i = 0; i < instances; ++i) {
    updates += static_cast<double>(results[i].updates_generated);
    seconds_per_set += Median(walls[i]);
    maintenance += static_cast<double>(results[i].PhysicalMaintenanceTotal());
    const OracleTotals totals = SumOracle(results[i]);
    oracle.checks += totals.checks;
    oracle.violations += totals.violations;
  }
  return {
      {"updates_per_s", seconds_per_set > 0 ? updates / seconds_per_set : 0,
       "updates/s"},
      {"setup_s", Median(runner->setup_seconds()), "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"maint_msgs", maintenance, "messages"},
      {"oracle_pass_rate",
       oracle.checks == 0
           ? 0.0
           : 1.0 - static_cast<double>(oracle.violations) /
                       static_cast<double>(oracle.checks),
       "ratio"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");

  // Environment guard: numbers from another build or dispatch routing
  // are not this benchmark's numbers.
  if (std::getenv("ASF_DISPATCH") != nullptr) {
    return Usage("ASF_DISPATCH is set; it re-routes auto dispatch. Unset it.");
  }
  std::string provenance;
  for (const auto& [key, value] : asf::BuildProvenance()) {
    if (key == "build_type" && value != "Release") {
      return Usage(("not a Release build (" + value + ")").c_str());
    }
    provenance += JsonString(key) + ": " + JsonString(value) + ", ";
  }
  provenance += "\"nproc\": " +
                std::to_string(std::thread::hardware_concurrency()) +
                ", \"seed\": " + std::to_string(args.seed) +
                ", \"workload\": " + JsonString(args.workload);

  Runner runner(args.workload, args.seed, args.scratch);
  const asf::Status setup = runner.TimeSetup(0);
  if (!setup.ok()) return Usage(setup.ToString().c_str());

  std::vector<Metric> metrics;
  if (args.trace) {
    SpanRecorder recorder;
    runner.set_recorder(&recorder);
    metrics = TraceWorkload(&runner, args.seconds);
    runner.set_recorder(nullptr);
    const std::string path = args.scratch + "/trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".json";
    std::ofstream(path) << "{\"provenance\": {" << provenance
                        << "}, \"spans\": " << recorder.ToJson() << "}\n";
    provenance += ", \"spans\": " + JsonString(path);
  } else {
    metrics = MeasureEndToEnd(&runner, args.seconds);
  }

  std::printf("{\"provenance\": {%s, \"digest\": %s}}\n", provenance.c_str(),
              JsonString(runner.base_digest()).c_str());
  if (!runner.first_failure().empty()) {
    std::printf("{\"first_failure\": %s}\n",
                JsonString(runner.first_failure()).c_str());
  }
  std::string out = "{\"correct\": ";
  out += runner.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(runner.attempted());
  out += ", \"failed\": " + std::to_string(runner.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
