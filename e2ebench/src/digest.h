#ifndef E2EBENCH_DIGEST_H_
#define E2EBENCH_DIGEST_H_

#include <cstdint>
#include <string>

#include "engine/multi_system.h"

/// \file
/// The correctness gate every benchmark run passes through: a digest of
/// everything a run reports that must be deterministic per (config,
/// seed), and the invariants a run must satisfy.

namespace e2ebench {

/// A fingerprint of a result's deterministic outputs, as 16 hex digits:
/// FNV-1a 64 over a canonical text of the per-query messages by type and
/// phase, updates reported, reinits, answer-size stats, oracle checks and
/// violations, lifecycle window and delay stats, then the run-level
/// counters and net counters. Wall-clock fields, dispatch path accounting
/// and spill telemetry are excluded: they are performance telemetry, free
/// to differ between identical runs.
std::string Digest(const asf::MultiQueryResult& result);

/// Oracle totals over all queries.
struct OracleTotals {
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
};
OracleTotals SumOracle(const asf::MultiQueryResult& result);

/// The invariants of one run of `config`; returns "" when they hold,
/// else a diagnosis. With oracle sampling on, the oracle must have
/// checked something, and under instant delivery any violation is a
/// failure (DESIGN.md §7). Every run must satisfy the crossing
/// conservation invariant of DESIGN.md §11.
std::string CheckRun(const asf::MultiQueryConfig& config,
                     const asf::MultiQueryResult& result);

}  // namespace e2ebench

#endif  // E2EBENCH_DIGEST_H_
