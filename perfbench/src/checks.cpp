#include "checks.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "db/value.h"
#include "transform/streaming.h"

namespace perfbench {

namespace db = mscope::db;

namespace {

constexpr double kNull = std::numeric_limits<double>::quiet_NaN();

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::size_t col(const db::Table& t, const std::string& name) {
  const auto c = t.column_index(name);
  if (!c) throw std::runtime_error(t.name() + " has no column " + name);
  return *c;
}

/// One numeric column read cell by cell through Table::at.
std::vector<double> numbers(const db::Table& t, const std::string& name) {
  const std::size_t c = col(t, name);
  std::vector<double> out(t.row_count());
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r] = db::as_double(t.at(r, c)).value_or(kNull);
  }
  return out;
}

std::vector<std::string> texts(const db::Table& t, const std::string& name) {
  const std::size_t c = col(t, name);
  std::vector<std::string> out(t.row_count());
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r] = db::value_to_string(t.at(r, c));
  }
  return out;
}

double floor_bucket(double t, double w) { return std::floor(t / w) * w; }

void sort_rows(ResultSet& rs) {
  std::sort(rs.begin(), rs.end(), [](const auto& a, const auto& b) {
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      const double x = std::isnan(a[i]) ? -1e300 : a[i];
      const double y = std::isnan(b[i]) ? -1e300 : b[i];
      if (x != y) return x < y;
    }
    return a.size() < b.size();
  });
}

/// Per-second (or per-bucket) join aggregate of the push-back and blame
/// queries: every front-tier row paired with every DB visit of its request.
template <class Fn>
void for_each_join_pair(const db::Table& front, const db::Table& back,
                        Fn&& fn) {
  const auto front_ids = texts(front, "req_id");
  const auto back_ids = texts(back, "req_id");
  std::unordered_map<std::string, std::vector<std::size_t>> by_id;
  for (std::size_t r = 0; r < back_ids.size(); ++r) {
    by_id[back_ids[r]].push_back(r);
  }
  for (std::size_t r = 0; r < front_ids.size(); ++r) {
    const auto it = by_id.find(front_ids[r]);
    if (it == by_id.end()) continue;
    for (std::size_t b : it->second) fn(r, b);
  }
}

}  // namespace

bool is_log_table(const std::string& name) {
  return !starts_with(name, "ms_") && !starts_with(name, "mscope_");
}

void stream_reference(const mscope::core::TestbedConfig& cfg,
                      const std::filesystem::path& run_dir,
                      db::Database& out) {
  namespace fs = std::filesystem;
  using mscope::core::Testbed;
  out.record_experiment("run", "RUBBoS n-tier experiment", cfg.workload,
                        cfg.duration);
  for (int tier = 0; tier < Testbed::kTiers; ++tier) {
    for (int r = 0; r < cfg.nodes_per_tier[static_cast<std::size_t>(tier)];
         ++r) {
      out.record_node(Testbed::replica_name(tier, r),
                      Testbed::services()[static_cast<std::size_t>(tier)],
                      cfg.cores_per_node);
    }
  }
  mscope::transform::StreamingTransformer st(out);
  std::vector<fs::path> nodes;
  for (const auto& e : fs::directory_iterator(run_dir)) {
    if (e.is_directory()) nodes.push_back(e.path());
  }
  std::sort(nodes.begin(), nodes.end());
  for (const auto& dir : nodes) {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.is_regular_file()) files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& f : files) {
      std::ifstream in(f, std::ios::binary);
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      st.ingest(dir.filename().string(), f.filename().string(),
                std::move(bytes));
    }
  }
  st.finalize();
}

std::uint64_t log_rows(const db::Catalog& catalog) {
  std::uint64_t n = 0;
  for (const auto& name : catalog.table_names()) {
    if (is_log_table(name)) n += catalog.get(name).row_count();
  }
  return n;
}

RowCheck compare_warehouses(const db::Catalog& got,
                            const db::Catalog& reference) {
  RowCheck out;
  for (const auto& name : reference.table_names()) {
    if (starts_with(name, "mscope_")) continue;
    const db::Table& ref = reference.get(name);
    out.reference_rows += ref.row_count();
    const db::Table* t = got.find(name);
    if (t == nullptr) {
      out.missing += ref.row_count();
      out.notes.push_back(name + ": missing table");
      continue;
    }
    if (t->schema() != ref.schema()) {
      out.missing += ref.row_count();
      out.extra += t->row_count();
      out.notes.push_back(name + ": schema differs");
      continue;
    }
    std::uint64_t differing = 0;
    auto a = t->scan();
    auto b = ref.scan();
    while (true) {
      const bool more_a = a.next();
      const bool more_b = b.next();
      if (!more_a && !more_b) break;
      if (more_a && !more_b) {
        ++out.extra;
      } else if (!more_a) {
        ++out.missing;
      } else if (a.row() != b.row()) {
        ++differing;
      }
    }
    out.missing += differing;
    out.extra += differing;
    if (differing != 0 || t->row_count() != ref.row_count()) {
      out.notes.push_back(name + ": " + std::to_string(t->row_count()) +
                          " rows vs " + std::to_string(ref.row_count()) +
                          " reference, " + std::to_string(differing) +
                          " differing");
    }
  }
  for (const auto& name : got.table_names()) {
    if (starts_with(name, "mscope_") || reference.exists(name)) continue;
    out.extra += got.get(name).row_count();
    out.notes.push_back(name + ": table absent from the reference");
  }
  return out;
}

std::vector<Query> sql_mix() {
  const std::string front_table = kFrontTable;
  const std::string db_table = kDbTable;
  const Query pit{"pit",
                  "SELECT BUCKET(ua_usec, 50000) AS bucket_usec, "
                  "MAX(duration_usec) AS pit_usec FROM " +
                      front_table + " GROUP BY BUCKET(ua_usec, 50000)"};
  const Query pushback{
      "pushback",
      "SELECT BUCKET(a.ua_usec, 1000000) AS sec, COUNT(*) AS reqs, "
      "MAX(a.duration_usec) AS apache_peak_usec, "
      "MAX(m.ud_usec - m.ua_usec) AS mysql_peak_usec FROM " +
          front_table + " AS a JOIN " + db_table +
          " AS m ON a.req_id = m.req_id "
          "GROUP BY BUCKET(a.ua_usec, 1000000) ORDER BY sec"};
  const Query blame{
      "blame",
      "SELECT COUNT(*) AS slow_visits, AVG(m.ud_usec - m.ua_usec) AS "
      "avg_mysql_usec, MAX(m.ud_usec - m.ua_usec) AS peak_mysql_usec FROM " +
          front_table + " AS a JOIN " + db_table +
          " AS m ON a.req_id = m.req_id WHERE a.duration_usec > 100000"};
  const Query flow{"flow",
                   "SELECT COUNT(*) AS slow, AVG(excl_mysql_usec) AS "
                   "avg_mysql_excl_usec FROM mscope_flow_requests "
                   "WHERE rt_usec > 100000"};
  return {pit, pushback, pit, blame, flow};
}

ResultSet to_result_set(const db::Table& t) {
  ResultSet rs(t.row_count(), std::vector<double>(t.column_count()));
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    for (std::size_t c = 0; c < t.column_count(); ++c) {
      rs[r][c] = db::as_double(t.at(r, c)).value_or(kNull);
    }
  }
  sort_rows(rs);
  return rs;
}

ResultSet brute_force(const Query& q, const db::Catalog& catalog) {
  ResultSet rs;
  if (q.key == "pit") {
    const db::Table& a = catalog.get(kFrontTable);
    const auto ua = numbers(a, "ua_usec");
    const auto dur = numbers(a, "duration_usec");
    std::map<double, double> peak;
    for (std::size_t r = 0; r < ua.size(); ++r) {
      const double b = floor_bucket(ua[r], 50000);
      auto [it, fresh] = peak.try_emplace(b, dur[r]);
      if (!fresh) it->second = std::max(it->second, dur[r]);
    }
    for (const auto& [b, m] : peak) rs.push_back({b, m});
  } else if (q.key == "pushback" || q.key == "blame") {
    const db::Table& a = catalog.get(kFrontTable);
    const db::Table& m = catalog.get(kDbTable);
    const auto a_ua = numbers(a, "ua_usec");
    const auto a_dur = numbers(a, "duration_usec");
    const auto m_ua = numbers(m, "ua_usec");
    const auto m_ud = numbers(m, "ud_usec");
    if (q.key == "pushback") {
      struct Agg {
        double n = 0, a_peak = -1e300, m_peak = -1e300;
      };
      std::map<double, Agg> by_sec;
      for_each_join_pair(a, m, [&](std::size_t i, std::size_t j) {
        Agg& g = by_sec[floor_bucket(a_ua[i], 1000000)];
        g.n += 1;
        g.a_peak = std::max(g.a_peak, a_dur[i]);
        g.m_peak = std::max(g.m_peak, m_ud[j] - m_ua[j]);
      });
      for (const auto& [sec, g] : by_sec) {
        rs.push_back({sec, g.n, g.a_peak, g.m_peak});
      }
    } else {
      double n = 0, sum = 0, peak = -1e300;
      for_each_join_pair(a, m, [&](std::size_t i, std::size_t j) {
        if (!(a_dur[i] > 100000)) return;
        const double d = m_ud[j] - m_ua[j];
        n += 1;
        sum += d;
        peak = std::max(peak, d);
      });
      rs.push_back({n, n > 0 ? sum / n : kNull, n > 0 ? peak : kNull});
    }
  } else if (q.key == "flow") {
    const db::Table& f = catalog.get("mscope_flow_requests");
    const auto rt = numbers(f, "rt_usec");
    const auto excl = numbers(f, "excl_mysql_usec");
    double n = 0, sum = 0;
    for (std::size_t r = 0; r < rt.size(); ++r) {
      if (!(rt[r] > 100000)) continue;
      n += 1;
      sum += excl[r];
    }
    rs.push_back({n, n > 0 ? sum / n : kNull});
  } else {
    throw std::runtime_error("no brute-force oracle for query " + q.key);
  }
  sort_rows(rs);
  return rs;
}

bool same_result(const ResultSet& a, const ResultSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (std::size_t c = 0; c < a[r].size(); ++c) {
      const double x = a[r][c];
      const double y = b[r][c];
      if (std::isnan(x) || std::isnan(y)) {
        if (std::isnan(x) != std::isnan(y)) return false;
        continue;
      }
      // AVG sums may be taken in another order: allow rounding only.
      if (std::fabs(x - y) > 1e-9 * std::max(1.0, std::fabs(y))) return false;
    }
  }
  return true;
}

DiagCheck check_diagnoses(const mscope::core::TestbedConfig& cfg,
                          const std::vector<mscope::core::Diagnosis>& ds) {
  using mscope::util::SimTime;
  DiagCheck out;
  const auto& a = *cfg.scenario_a;
  // A flush occupies the disk for flush_bytes at its 150 MB/s transfer
  // rate; its window opens during that stall or in the drain right after.
  const auto stall = static_cast<SimTime>(
      static_cast<double>(a.flush_bytes) / 150e6 * 1e6);
  std::vector<SimTime> flushes;
  for (SimTime t = a.first_flush; t < cfg.duration; t += a.interval) {
    flushes.push_back(t);
  }
  out.expected = static_cast<int>(flushes.size());
  std::vector<bool> pinned(flushes.size(), false);
  for (const auto& d : ds) {
    int at = -1;
    for (std::size_t k = 0; k < flushes.size(); ++k) {
      if (d.window.begin >= flushes[k] &&
          d.window.begin <= flushes[k] + stall + mscope::util::kSec) {
        at = static_cast<int>(k);
      }
    }
    if (at < 0) {
      ++out.spurious;
    } else if (d.bottleneck_node == "db1" && d.root_cause == "disk-io") {
      pinned[static_cast<std::size_t>(at)] = true;
    } else {
      ++out.wrong;
    }
  }
  out.pinned = static_cast<int>(std::count(pinned.begin(), pinned.end(), true));
  return out;
}

}  // namespace perfbench
