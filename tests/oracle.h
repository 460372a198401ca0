#pragma once

// Brute-force reference answers for the SQL engine's parity tests: plain
// row loops over Table::at, with none of the engine's batching, zone maps or
// index pushdown. Time keys go through as_int and aggregated values through
// as_double; cells that do not convert are skipped.

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/table.h"
#include "db/value.h"
#include "util/simtime.h"
#include "util/stats.h"

namespace mscope::test::oracle {

/// Ids, ascending, of the rows of `t` for which `pred(t, row)` holds.
template <class Pred>
std::vector<std::size_t> rows_where(const db::Table& t, Pred pred) {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    if (pred(t, r)) out.push_back(r);
  }
  return out;
}

/// Every row of `t`.
inline std::vector<std::size_t> all_rows(const db::Table& t) {
  return rows_where(t, [](const db::Table&, std::size_t) { return true; });
}

/// Rows whose numeric `col` lies in [lo, hi), comparing the cell's exact
/// value (a Double cell is not rounded).
inline std::vector<std::size_t> rows_in_range(const db::Table& t,
                                              const std::string& col,
                                              double lo, double hi) {
  const std::size_t c = *t.column_index(col);
  return rows_where(t, [&](const db::Table& tt, std::size_t r) {
    const auto v = db::as_double(tt.at(r, c));
    return v && *v >= lo && *v < hi;
  });
}

/// The listed rows of `t`, all columns, in the order given.
inline db::Table select(const db::Table& t,
                        const std::vector<std::size_t>& rows) {
  db::Table out("oracle", t.schema());
  for (const std::size_t r : rows) {
    db::Table::Row row;
    for (std::size_t c = 0; c < t.column_count(); ++c) {
      row.push_back(t.at(r, c));
    }
    out.insert(std::move(row));
  }
  return out;
}

enum class Agg { kCount, kMean, kMax, kMin, kSum };

struct AggSpec {
  Agg kind = Agg::kCount;
  std::string column;  ///< ignored for kCount
};

/// Groups `rows` of `t` into buckets of `time_col` / `bucket` and aggregates
/// each group. Result columns: bucket_usec (Int, the bucket's start), then
/// one column per aggregate (Int for kCount, Double otherwise), one row per
/// non-empty bucket in ascending order.
inline db::Table group_by_bucket(const db::Table& t,
                                 const std::vector<std::size_t>& rows,
                                 const std::string& time_col,
                                 util::SimTime bucket,
                                 const std::vector<AggSpec>& aggs) {
  if (bucket <= 0) throw std::invalid_argument("group_by_bucket: bucket <= 0");
  const std::size_t tc = *t.column_index(time_col);
  db::Schema schema{{"bucket_usec", db::DataType::kInt}};
  std::vector<std::size_t> cols;
  for (const auto& a : aggs) {
    if (a.kind == Agg::kCount) {
      schema.push_back({"count", db::DataType::kInt});
      cols.push_back(0);
    } else {
      schema.push_back({"agg_" + std::to_string(schema.size()),
                        db::DataType::kDouble});
      cols.push_back(*t.column_index(a.column));
    }
  }
  std::map<std::int64_t, std::vector<util::RunningStats>> groups;
  for (const std::size_t r : rows) {
    const auto ts = db::as_int(t.at(r, tc));
    if (!ts) continue;
    auto& stats = groups[*ts / bucket];
    stats.resize(aggs.size());
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      if (aggs[i].kind == Agg::kCount) {
        stats[i].add(1.0);
      } else if (const auto v = db::as_double(t.at(r, cols[i]))) {
        stats[i].add(*v);
      }
    }
  }
  db::Table out("oracle", std::move(schema));
  for (const auto& [key, stats] : groups) {
    db::Table::Row row{db::Value{key * bucket}};
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      switch (aggs[i].kind) {
        case Agg::kCount:
          row.push_back(
              db::Value{static_cast<std::int64_t>(stats[i].count())});
          break;
        case Agg::kMean: row.push_back(db::Value{stats[i].mean()}); break;
        case Agg::kMax: row.push_back(db::Value{stats[i].max()}); break;
        case Agg::kMin: row.push_back(db::Value{stats[i].min()}); break;
        case Agg::kSum: row.push_back(db::Value{stats[i].sum()}); break;
      }
    }
    out.insert(std::move(row));
  }
  return out;
}

/// Hash inner join of `a` and `b` on one column each, keyed by the cell's
/// string form (so Int 7 and Double 7.0 join); NULL keys never match. Result
/// columns are "<a name>.<col>" then "<b name>.<col>".
inline db::Table hash_join(const db::Table& a, const std::string& a_col,
                           const db::Table& b, const std::string& b_col) {
  const std::size_t ac = *a.column_index(a_col);
  const std::size_t bc = *b.column_index(b_col);
  db::Schema schema;
  for (const auto& c : a.schema()) {
    schema.push_back({a.name() + "." + c.name, c.type});
  }
  for (const auto& c : b.schema()) {
    schema.push_back({b.name() + "." + c.name, c.type});
  }
  std::unordered_map<std::string, std::vector<std::size_t>> build;
  for (std::size_t r = 0; r < b.row_count(); ++r) {
    const db::Value key = b.at(r, bc);
    if (!db::is_null(key)) build[db::value_to_string(key)].push_back(r);
  }
  db::Table out("oracle", std::move(schema));
  for (std::size_t r = 0; r < a.row_count(); ++r) {
    const db::Value key = a.at(r, ac);
    if (db::is_null(key)) continue;
    const auto it = build.find(db::value_to_string(key));
    if (it == build.end()) continue;
    for (const std::size_t m : it->second) {
      db::Table::Row row;
      for (std::size_t c = 0; c < a.column_count(); ++c) {
        row.push_back(a.at(r, c));
      }
      for (std::size_t c = 0; c < b.column_count(); ++c) {
        row.push_back(b.at(m, c));
      }
      out.insert(std::move(row));
    }
  }
  return out;
}

}  // namespace mscope::test::oracle
