#include "core/metrics.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <span>
#include <stdexcept>
#include <tuple>

#include "db/index.h"

namespace mscope::core {

double PitSeries::peak_to_average() const {
  if (overall_avg_ms <= 0.0) return 0.0;
  double peak = 0.0;
  for (const auto& s : max_rt_ms) peak = std::max(peak, s.value);
  return peak / overall_avg_ms;
}

namespace {

PitSeries pit_from_events(const Series& completions_rt_ms, SimTime bucket) {
  PitSeries out;
  out.bucket = bucket;
  out.max_rt_ms = util::rebucket(completions_rt_ms, bucket, util::BucketOp::kMax);
  out.avg_rt_ms =
      util::rebucket(completions_rt_ms, bucket, util::BucketOp::kMean);
  util::RunningStats all;
  std::vector<double> values;
  values.reserve(completions_rt_ms.size());
  for (const auto& s : completions_rt_ms) {
    all.add(s.value);
    values.push_back(s.value);
  }
  out.overall_avg_ms = all.mean();
  out.overall_p50_ms = util::percentile(values, 50);
  return out;
}

/// (time, value) samples of one table in time order: a walk of the sorted
/// TimeIndex on `time_column`, whose (time, row) order is exactly a stable
/// time-sort of the rows. Rows whose value cell is not numeric are skipped;
/// a time column that is not numeric has no index and no timed cell, so it
/// yields an empty series. Throws std::out_of_range if a column is missing.
Series index_walk(const db::Table& t, const std::string& time_column,
                  const std::string& value_column) {
  const auto tc = t.column_index(time_column);
  const auto vc = t.column_index(value_column);
  if (!tc || !vc) {
    throw std::out_of_range("table '" + t.name() + "' has no column '" +
                            (tc ? value_column : time_column) + "'");
  }
  const db::TimeIndex* idx = t.time_index(*tc);
  if (idx == nullptr) return {};
  Series out;
  out.reserve(idx->size());
  for (const auto& e : idx->entries()) {
    if (const auto v = db::as_double(t.at(e.row, *vc))) {
      out.push_back({e.time, *v});
    }
  }
  return out;
}

}  // namespace

PitSeries pit_response_time(const std::vector<sim::RequestPtr>& completed,
                            SimTime bucket) {
  Series rt;
  rt.reserve(completed.size());
  for (const auto& r : completed) {
    if (r->response_time() >= 0) {
      rt.push_back({r->client_recv, util::to_msec(r->response_time())});
    }
  }
  return pit_from_events(rt, bucket);
}

PitSeries pit_response_time_db(const db::Catalog& db,
                               const std::string& apache_table,
                               SimTime bucket) {
  return pit_response_time_db_multi(db, {apache_table}, bucket);
}

PitSeries pit_response_time_db_multi(
    const db::Catalog& db, const std::vector<std::string>& apache_tables,
    SimTime bucket) {
  // Each table's series comes back already time-ordered off its ud_usec
  // index, so combining replicas is a sorted merge — no O(n log n) re-sort
  // of the concatenation. std::merge takes from the left range on ties,
  // which reproduces the old stable-sort-of-concatenation order exactly.
  Series rt;
  for (const auto& name : apache_tables) {
    const db::Table& t = db.get(name);
    // (completion time, response time): duration_usec is Apache's %D field.
    Series part = index_walk(t, "ud_usec", "duration_usec");
    if (rt.empty()) {
      rt = std::move(part);
    } else {
      Series merged;
      merged.reserve(rt.size() + part.size());
      std::merge(rt.begin(), rt.end(), part.begin(), part.end(),
                 std::back_inserter(merged),
                 [](const auto& a, const auto& b) { return a.time < b.time; });
      rt = std::move(merged);
    }
  }
  for (auto& s : rt) s.value /= 1000.0;  // usec -> ms
  return pit_from_events(rt, bucket);
}

Series queue_length_db(const db::Catalog& db, const std::string& event_table,
                       SimTime bucket, SimTime t_begin, SimTime t_end) {
  return queue_length_db_multi(db, {event_table}, bucket, t_begin, t_end);
}

Series queue_length_db_multi(const db::Catalog& db,
                             const std::vector<std::string>& event_tables,
                             SimTime bucket, SimTime t_begin, SimTime t_end) {
  // The +1/-1 delta stream is assembled *pre-sorted* by merging each event
  // table's ua_usec and ud_usec index walks, so the integrator skips its
  // O(n log n) sort. Equal-time deltas keep the order the scan-and-sort path
  // produced — (table, row, arrival-before-departure) — because the
  // transient peak inside a bucket depends on it.
  struct Stream {
    std::span<const db::TimeIndex::Entry> entries;
    std::size_t i = 0;
    const db::Table* table = nullptr;
    std::size_t other_col = 0;  ///< counterpart column (must be non-NULL)
    std::size_t rank = 0;       ///< table position in event_tables
    bool arrival = false;
  };
  std::vector<Stream> streams;
  std::size_t total = 0;
  for (std::size_t k = 0; k < event_tables.size(); ++k) {
    const db::Table& t = db.get(event_tables[k]);
    const auto ua = t.column_index("ua_usec");
    const auto ud = t.column_index("ud_usec");
    if (!ua || !ud) continue;
    const db::TimeIndex* ia = t.time_index(*ua);
    const db::TimeIndex* id = t.time_index(*ud);
    if (ia == nullptr || id == nullptr) continue;
    streams.push_back({ia->entries(), 0, &t, *ud, k, true});
    streams.push_back({id->entries(), 0, &t, *ua, k, false});
    total += ia->size() + id->size();
  }

  Series deltas;
  deltas.reserve(total);
  for (;;) {
    Stream* best = nullptr;
    for (auto& s : streams) {
      // Skip entries whose counterpart timestamp is NULL: the row never
      // entered (or never left) the tier's queue as far as the log shows.
      while (s.i < s.entries.size() &&
             !db::as_int(s.table->at(s.entries[s.i].row, s.other_col))) {
        ++s.i;
      }
      if (s.i >= s.entries.size()) continue;
      if (best == nullptr) {
        best = &s;
        continue;
      }
      const auto& a = s.entries[s.i];
      const auto& b = best->entries[best->i];
      const auto key_a = std::tuple(a.time, s.rank, a.row, !s.arrival);
      const auto key_b =
          std::tuple(b.time, best->rank, b.row, !best->arrival);
      if (key_a < key_b) best = &s;
    }
    if (best == nullptr) break;
    deltas.push_back(
        {best->entries[best->i].time, best->arrival ? +1.0 : -1.0});
    ++best->i;
  }
  return util::integrate_deltas_sorted(deltas, bucket, t_begin, t_end);
}

Series queue_length_truth(const std::vector<sim::RequestPtr>& completed,
                          int tier, SimTime bucket, SimTime t_begin,
                          SimTime t_end) {
  Series deltas;
  for (const auto& r : completed) {
    const auto& rec = r->records[static_cast<std::size_t>(tier)];
    for (const auto& v : rec.visits) {
      if (v.upstream_arrival < 0 || v.upstream_departure < 0) continue;
      deltas.push_back({v.upstream_arrival, +1.0});
      deltas.push_back({v.upstream_departure, -1.0});
    }
  }
  return util::integrate_deltas(std::move(deltas), bucket, t_begin, t_end);
}

Series resource_series(const db::Catalog& db, const std::string& table,
                       const std::string& column) {
  const db::Table* t = db.find(table);
  if (t == nullptr) return {};
  if (!t->column_index(column) || !t->column_index("ts_usec")) return {};
  return index_walk(*t, "ts_usec", column);
}

std::vector<InteractionStats> interaction_breakdown(
    const db::Catalog& db, const std::string& apache_table,
    double vlrt_factor) {
  const db::Table* t = db.find(apache_table);
  std::vector<InteractionStats> out;
  if (t == nullptr) return out;
  const auto url_col = t->column_index("url");
  const auto dur_col = t->column_index("duration_usec");
  if (!url_col || !dur_col) return out;

  // Pass 1: the median RT defines the VLRT threshold.
  std::vector<double> all_ms;
  all_ms.reserve(t->row_count());
  for (db::RowCursor cur = t->scan(); cur.next();) {
    if (const auto d = db::as_int(cur.row()[*dur_col])) {
      all_ms.push_back(static_cast<double>(*d) / 1000.0);
    }
  }
  const double threshold = vlrt_factor * util::percentile(all_ms, 50);

  // Pass 2: group by servlet path.
  struct Acc {
    util::RunningStats rt;
    std::size_t vlrt = 0;
  };
  std::map<std::string, Acc> groups;
  for (db::RowCursor cur = t->scan(); cur.next();) {
    const db::Value& u = cur.row()[*url_col];
    const auto d = db::as_int(cur.row()[*dur_col]);
    if (db::is_null(u) || !d) continue;
    std::string path = db::value_to_string(u);
    const auto q = path.find('?');
    if (q != std::string::npos) path.resize(q);
    auto& acc = groups[path];
    const double ms = static_cast<double>(*d) / 1000.0;
    acc.rt.add(ms);
    if (threshold > 0 && ms > threshold) ++acc.vlrt;
  }
  out.reserve(groups.size());
  for (const auto& [path, acc] : groups) {
    out.push_back({path, acc.rt.count(), acc.rt.mean(), acc.rt.max(),
                   acc.vlrt});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const InteractionStats& a, const InteractionStats& b) {
                     return a.count > b.count;
                   });
  return out;
}

Series throughput(const std::vector<sim::RequestPtr>& completed,
                  SimTime bucket) {
  Series events;
  events.reserve(completed.size());
  for (const auto& r : completed) {
    if (r->client_recv >= 0) events.push_back({r->client_recv, 1.0});
  }
  Series counts = util::rebucket(events, bucket, util::BucketOp::kCount);
  const double per_sec = 1e6 / static_cast<double>(bucket);
  for (auto& s : counts) s.value *= per_sec;
  return counts;
}

double mean_response_ms(const std::vector<sim::RequestPtr>& completed) {
  util::RunningStats stats;
  for (const auto& r : completed) {
    if (r->response_time() >= 0)
      stats.add(util::to_msec(r->response_time()));
  }
  return stats.mean();
}

double response_percentile_ms(const std::vector<sim::RequestPtr>& completed,
                              double q) {
  std::vector<double> rt;
  rt.reserve(completed.size());
  for (const auto& r : completed) {
    if (r->response_time() >= 0) rt.push_back(util::to_msec(r->response_time()));
  }
  return util::percentile(rt, q);
}

}  // namespace mscope::core
