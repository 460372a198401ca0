// The three benchmark workloads and one end-to-end pass over each: set up,
// ingest the logs into a queryable warehouse, diagnose, drill down, and run
// the diagnosis SQL mix.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/milliscope.h"
#include "fleet/fleet_collection.h"
#include "flow/attribution.h"
#include "flow/materializer.h"
#include "ledger.h"
#include "util.h"

namespace perfbench {

enum class Kind { kOnlineFlat, kFleetTree, kPosthoc };

struct Spec {
  std::string name;
  Kind kind = Kind::kOnlineFlat;
  mscope::core::TestbedConfig cfg;
  int setups_per_pass = 1;  ///< set-ups timed per pass (the last is kept)

  [[nodiscard]] bool online() const { return kind != Kind::kPosthoc; }
};

/// Rounds of the SQL mix per pass (50 queries).
inline constexpr int kSqlRounds = 10;

/// The workload named `name` with inputs drawn from `seed`; throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Spec make_spec(const std::string& name, std::uint64_t seed);

/// The input seed of pass `pass` of a run with seed `seed` (pass 0 uses the
/// run's seed itself).
[[nodiscard]] constexpr std::uint64_t input_seed(std::uint64_t seed,
                                                 int pass) {
  return seed + static_cast<std::uint64_t>(pass) * 0x9E3779B97F4A7C15ULL;
}

/// One end-to-end pass: set-up, ingest, diagnosis and drill-down, flow
/// tables written, then the SQL phase. Kept alive after it ran so its
/// warehouse, logs and results can be checked; the scratch directories go
/// with it.
struct Pass {
  Spec spec;
  std::unique_ptr<ScratchDir> logs;
  std::unique_ptr<ScratchDir> wal;
  std::unique_ptr<mscope::core::Experiment> exp;
  std::unique_ptr<mscope::core::OnlineVsbDetector> detector;
  std::unique_ptr<mscope::db::Database> db;
  std::unique_ptr<mscope::fleet::ShardedWarehouse> sharded;
  std::unique_ptr<mscope::core::OnlineCollection> online;
  std::unique_ptr<mscope::fleet::FleetCollection> fleet;
  const mscope::db::Catalog* catalog = nullptr;
  mscope::transform::DataTransformer::Report batch_report;

  // End-to-end measurements.
  std::vector<double> setup_s;  ///< one per set-up
  double ingest_s = 0;          ///< first log byte to last visible row
  double finish_s = 0;          ///< finish() or DataTransformer::run
  double ttd_s = 0;             ///< last log line to diagnosis + drill-down
  double total_s = 0;           ///< the whole pass, SQL phase included
  std::uint64_t records = 0;    ///< log rows made queryable
  std::vector<double> stale_ms; ///< per record, virtual ms
  std::map<std::string, std::vector<double>> stale_by_table;
  std::vector<std::pair<std::string, double>> query_ms;

  // Outputs.
  std::vector<mscope::core::Diagnosis> diagnoses;
  std::vector<mscope::flow::DrillDown> drills;
  mscope::flow::Result flows;
  std::map<std::string, std::unique_ptr<mscope::db::Table>> last_result;

  [[nodiscard]] double drill_agree_ratio() const;
  /// Everything a same-seed pass must reproduce: row counts per table,
  /// diagnoses and drill-down verdicts.
  [[nodiscard]] std::string fingerprint() const;
  /// Per-node log_records/log_bytes: the input the seed produced.
  [[nodiscard]] std::string input_fingerprint() const;
};

/// Runs one pass. With a ledger every call into the program is a phase of
/// it, and `observe` switches on the online collection's own observability.
[[nodiscard]] std::unique_ptr<Pass> run_pass(const Spec& spec, Ledger* ledger,
                                             bool observe);

/// The SQL phase: one client in a closed loop over the diagnosis mix for
/// kSqlRounds rounds against the pass's warehouse, appending to
/// Pass::query_ms. Keeps each query kind's last result for the checks.
void run_sql(Pass& p, Ledger* ledger);

/// The testbed alone (no collection, no warehouse) with the same seed and
/// configuration: the sim-only control. Returns its wall seconds.
[[nodiscard]] double run_control(const Spec& spec, Ledger* ledger);

}  // namespace perfbench
