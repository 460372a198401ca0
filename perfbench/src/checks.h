// Output checks, all computed outside the timed regions: the warehouse
// against a reference warehouse, each SQL result of the diagnosis mix
// against a brute-force scan, and the diagnosed windows against the
// Scenario-A flush schedule.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/testbed.h"
#include "db/catalog.h"
#include "db/database.h"
#include "db/table.h"

namespace perfbench {

/// Rows missing from or extra in a warehouse against a reference. A row
/// whose cells differ from the reference row at the same position counts
/// once as missing and once as extra.
struct RowCheck {
  std::uint64_t reference_rows = 0;
  std::uint64_t missing = 0;
  std::uint64_t extra = 0;
  std::vector<std::string> notes;  ///< one line per mismatching table

  [[nodiscard]] double loss_ratio() const {
    return reference_rows == 0
               ? 1.0
               : static_cast<double>(missing + extra) /
                     static_cast<double>(reference_rows);
  }
};

/// Compares every table of `reference` (and every table `got` has beyond
/// it) cell by cell. Tables named mscope_* (self-observability and flow
/// outputs) are not part of the log-derived warehouse and are skipped.
[[nodiscard]] RowCheck compare_warehouses(const mscope::db::Catalog& got,
                                          const mscope::db::Catalog& reference);

/// A reference warehouse built by the streaming transformer from whole log
/// files: each file of run_dir/<node>/ ingested in one piece, then
/// finalized, with the static metadata load_warehouse records. It checks a
/// batch-transformed warehouse through independent table-building code.
void stream_reference(const mscope::core::TestbedConfig& cfg,
                      const std::filesystem::path& run_dir,
                      mscope::db::Database& out);

/// Rows of the log-derived dynamic tables (not ms_* metadata, not mscope_*).
[[nodiscard]] std::uint64_t log_rows(const mscope::db::Catalog& db);
[[nodiscard]] bool is_log_table(const std::string& name);

/// One query of the diagnosis SQL mix.
struct Query {
  std::string key;  ///< pit, pushback, blame, flow
  std::string sql;
};

/// The tables the SQL mix reads: the front tier's first replica and the
/// MySQL replica Scenario A stalls.
inline constexpr const char* kFrontTable = "ev_apache_web1";
inline constexpr const char* kDbTable = "ev_mysql_db1";

/// The diagnosis SQL mix, one closed-loop round: the Fig. 2 PIT bucket-max
/// (twice: it is the dashboard query), the Fig. 6 push-back join, the
/// slow-request blame join and an aggregate over mscope_flow_requests.
/// Five slots keep the p50 and p90 of the pooled samples inside one query
/// kind's spread instead of on a boundary between two kinds.
[[nodiscard]] std::vector<Query> sql_mix();

/// A result as sorted rows of numeric cells (NaN stands for NULL).
using ResultSet = std::vector<std::vector<double>>;
[[nodiscard]] ResultSet to_result_set(const mscope::db::Table& t);

/// The expected result of `q` by a brute-force scan over Table::at.
[[nodiscard]] ResultSet brute_force(const Query& q,
                                    const mscope::db::Catalog& db);

[[nodiscard]] bool same_result(const ResultSet& a, const ResultSet& b);

/// Diagnosed windows against the Scenario-A schedule: every flush must be
/// pinned on db1/disk-io, and no window may appear away from a flush.
struct DiagCheck {
  int expected = 0;  ///< flush windows in the run
  int pinned = 0;    ///< flushes with a window pinned on db1/disk-io
  int wrong = 0;     ///< windows at a flush that name another culprit
  int spurious = 0;  ///< windows at no flush

  /// Flushes not pinned plus spurious windows, out of expected plus
  /// spurious (a wrong window already leaves its flush unpinned).
  [[nodiscard]] double miss_ratio() const {
    const int base = expected + spurious;
    return base == 0 ? 1.0
                     : static_cast<double>((expected - pinned) + spurious) /
                           static_cast<double>(base);
  }
};

[[nodiscard]] DiagCheck check_diagnoses(
    const mscope::core::TestbedConfig& cfg,
    const std::vector<mscope::core::Diagnosis>& diagnoses);

}  // namespace perfbench
