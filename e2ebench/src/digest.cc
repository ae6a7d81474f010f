#include "digest.h"

#include <cinttypes>
#include <cstdio>

#include "net/message.h"

namespace e2ebench {
namespace {

void Append(std::string* out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, key, value);
  *out += buf;
}

/// %a prints the exact binary value, so equal text means equal doubles.
void Append(std::string* out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%a", key, value);
  *out += buf;
}

void AppendStats(std::string* out, const char* key,
                 const asf::OnlineStats& stats) {
  *out += std::string(" ") + key + "{";
  Append(out, "n", stats.count());
  Append(out, "mean", stats.mean());
  Append(out, "var", stats.variance());
  Append(out, "min", stats.min());
  Append(out, "max", stats.max());
  *out += " }";
}

std::string DigestText(const asf::MultiQueryResult& result) {
  std::string out;
  for (const auto& q : result.queries) {
    out += q.name + ":";
    for (int p = 0; p < asf::kNumMessagePhases; ++p) {
      for (int t = 0; t < asf::kNumMessageTypes; ++t) {
        out += ' ';
        out += std::to_string(
            q.messages.count(static_cast<asf::MessagePhase>(p),
                             static_cast<asf::MessageType>(t)));
      }
    }
    Append(&out, "reported", q.updates_reported);
    Append(&out, "reinits", q.reinits);
    AppendStats(&out, "answer", q.answer_size);
    Append(&out, "checks", q.oracle_checks);
    Append(&out, "violations", q.oracle_violations);
    Append(&out, "in_flight_violations", q.oracle_violations_in_flight);
    Append(&out, "max_f_plus", q.max_f_plus);
    Append(&out, "max_f_minus", q.max_f_minus);
    Append(&out, "max_worst_rank", std::uint64_t{q.max_worst_rank});
    AppendStats(&out, "delay", q.update_delay);
    Append(&out, "deployed_at", q.deployed_at);
    Append(&out, "retired_at", q.retired_at);
    out += "\n";
  }
  out += "run:";
  Append(&out, "updates", result.updates_generated);
  Append(&out, "physical_updates", result.physical_updates);
  Append(&out, "peak_live", std::uint64_t{result.peak_live_queries});
  out += "\nnet: " + result.net.ToString() + "\n";
  const asf::NetStats& n = result.net;
  out += "net_counters:";
  Append(&out, "crossings", n.crossings);
  Append(&out, "delivered", n.delivered_crossings);
  Append(&out, "dropped_loss", n.dropped_loss);
  Append(&out, "dropped_partition", n.dropped_partition);
  Append(&out, "dropped_retired", n.dropped_retired);
  Append(&out, "in_flight", n.in_flight_crossings_at_end);
  Append(&out, "deploy_retransmits", n.deploy_retransmits);
  Append(&out, "probe_failovers", n.probe_failovers);
  AppendStats(&out, "staleness", n.delay);
  out += "\n";
  return out;
}

}  // namespace

std::string Digest(const asf::MultiQueryResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : DigestText(result)) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

OracleTotals SumOracle(const asf::MultiQueryResult& result) {
  OracleTotals totals;
  for (const auto& q : result.queries) {
    totals.checks += q.oracle_checks;
    totals.violations += q.oracle_violations;
  }
  return totals;
}

std::string CheckRun(const asf::MultiQueryConfig& config,
                     const asf::MultiQueryResult& result) {
  const OracleTotals oracle = SumOracle(result);
  if (config.oracle.sample_interval > 0 && oracle.checks == 0) {
    return "the oracle made no checks";
  }
  if (!config.net.DelaysDelivery() && oracle.violations != 0) {
    return std::to_string(oracle.violations) +
           " oracle violations under instant delivery";
  }
  const asf::NetStats& n = result.net;
  const std::uint64_t accounted = n.delivered_crossings + n.dropped_loss +
                                  n.dropped_partition + n.dropped_retired +
                                  n.in_flight_crossings_at_end;
  if (n.crossings != accounted) {
    return "crossing conservation broken: " + std::to_string(n.crossings) +
           " crossings, " + std::to_string(accounted) + " accounted for";
  }
  return "";
}

}  // namespace e2ebench
