#include "runner.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <utility>

#include <malloc.h>
#include <unistd.h>

#include "digest.h"

namespace e2ebench {

namespace fs = std::filesystem;

namespace {

/// Input builds averaged into one setup_s sample.
constexpr int kBuildsPerSample = 10;

}  // namespace

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Runner::Runner(std::string workload, std::uint64_t seed,
               std::string scratch_dir)
    : name_(std::move(workload)),
      seed_(seed),
      scratch_(std::move(scratch_dir)) {}

asf::Status Runner::Setup(std::size_t instance, std::string* dir) {
  *dir = scratch_ + "/spill-" + std::to_string(::getpid()) + "-" +
         std::to_string(next_dir_++);
  std::error_code ec;
  if (!fs::create_directory(*dir, ec)) {
    return asf::Status::InvalidArgument("cannot create spill directory " +
                                        *dir + ": " + ec.message());
  }
  // One sample is the mean of several back-to-back builds: a single
  // build takes microseconds, too little to time steadily on its own.
  ScopedSpan span(recorder_, "setup");
  asf::Result<Workload> built = asf::Status::Internal("not built");
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kBuildsPerSample; ++i) {
    built = BuildWorkload(name_, seed_, instance, *dir);
    if (!built.ok()) {
      fs::remove_all(*dir, ec);
      return built.status();
    }
  }
  setup_s_.push_back(SecondsSince(start) / kBuildsPerSample);
  workload_ = std::move(built).value();
  return asf::Status::OK();
}

asf::Status Runner::TimeSetup(std::size_t instance) {
  std::string dir;
  ASF_RETURN_IF_ERROR(Setup(instance, &dir));
  std::error_code ec;
  fs::remove(dir, ec);
  return asf::Status::OK();
}

Call Runner::Run(Variant variant, std::size_t instance,
                 asf::obs::Profiler* profiler) {
  ++attempted_;
  Call call;
  std::string dir;
  const asf::Status setup = Setup(instance, &dir);
  if (!setup.ok()) {
    call.failure = "setup: " + setup.ToString();
    Fail(call.failure);
    return call;
  }
  asf::MultiQueryConfig config = workload_.config;
  if (variant == Variant::kOracleOff) config.oracle.sample_interval = 0;
  if (variant == Variant::kInstantNet) config.net = asf::NetConfig();
  config.obs.profiler = profiler;

  asf::Result<asf::MultiQueryResult> result = asf::Status::Internal("");
  {
    ScopedSpan span(recorder_, "engine");
    const auto start = std::chrono::steady_clock::now();
    result = asf::RunMultiQuerySystem(config);
    call.wall_s = SecondsSince(start);
  }

  // Scratch hygiene: the engine must leave its spill directory empty.
  std::error_code ec;
  std::size_t leftovers = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    (void)entry;
    ++leftovers;
  }
  fs::remove_all(dir, ec);
  // Hand freed heap back to the system, so the process's peak RSS is the
  // largest call's footprint rather than the fragmentation of all calls.
  malloc_trim(0);

  if (!result.ok()) {
    call.failure = "run: " + result.status().ToString();
  } else {
    call.result = std::move(result).value();
    call.digest = Digest(call.result);
    call.failure = CheckRun(config, call.result);
    auto [it, first] = digests_.emplace(std::pair(variant, instance),
                                        call.digest);
    if (call.failure.empty() && !first && it->second != call.digest) {
      call.failure = "digest " + call.digest + " differs from " +
                     it->second + " of an earlier run of this seed";
    }
  }
  if (call.failure.empty() && leftovers != 0) {
    call.failure = std::to_string(leftovers) +
                   " files left in the spill directory after the run";
  }
  if (!call.failure.empty()) Fail(call.failure);
  return call;
}

std::string Runner::base_digest() const {
  std::string out;
  for (const auto& [key, digest] : digests_) {
    if (key.first != Variant::kBase) continue;
    out += out.empty() ? digest : "," + digest;
  }
  return out;
}

void Runner::Fail(const std::string& why) {
  ++failed_;
  if (first_failure_.empty()) first_failure_ = why;
}

}  // namespace e2ebench
