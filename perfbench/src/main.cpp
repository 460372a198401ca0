// perfbench: the milliScope benchmark program.
//
//   perfbench --workload online-flat|fleet-tree|posthoc --seed N
//             --seconds S --trace 0|1 [--scratch DIR] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics: it repeats whole passes of the
// workload (set-up, ingest, diagnosis, SQL mix), each on its own input drawn
// from the seed, for about S seconds and reports medians over the passes.
// --trace 1 makes a sim-only control run, one traced pass between two
// untraced ones on the same input, and a one-shot transform of the same
// logs, and reports the per-layer ledger. Outputs are checked outside the
// timed regions, and the last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed check prints
// correct=false and exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "ledger.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

std::filesystem::path& scratch_root() {
  static std::filesystem::path root = std::filesystem::temp_directory_path();
  return root;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

namespace {

using namespace mscope;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--scratch") {
      scratch_root() = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

/// Metrics in output order, each with its unit.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + items_[i].name + "\": {\"value\": " +
             json_number(items_[i].value) + ", \"unit\": \"" +
             items_[i].unit + "\"}";
    }
    return out + "}";
  }
  void print() const {
    for (const auto& m : items_) {
      std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Tallies the output checks of a run.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double row_loss = 1.0;
  double diag_miss = 1.0;

  void check(bool ok, const std::string& what) {
    std::printf("  check %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) ++failed;
  }
};

/// Checks a pass's diagnosed windows against the Scenario-A schedule and
/// adds them to `sum`.
void add_diagnoses(const Pass& p, DiagCheck& sum) {
  const DiagCheck d = check_diagnoses(p.spec.cfg, p.diagnoses);
  sum.expected += d.expected;
  sum.pinned += d.pinned;
  sum.wrong += d.wrong;
  sum.spurious += d.spurious;
  for (std::size_t i = 0; i < p.diagnoses.size(); ++i) {
    const auto& dg = p.diagnoses[i];
    std::printf("    window %.2f-%.2fs -> %s/%s; drill-down names tier %d %s\n",
                mscope::util::to_sec(dg.window.begin),
                mscope::util::to_sec(dg.window.end), dg.bottleneck_node.c_str(),
                dg.root_cause.c_str(), p.drills[i].culprit_tier,
                p.drills[i].culprit_node.c_str());
  }
}

void verify_diagnoses(const DiagCheck& d, int passes, Verdict& v) {
  v.diag_miss = d.miss_ratio();
  v.check(d.miss_ratio() == 0,
          "diagnosis pins " + std::to_string(d.pinned) + "/" +
              std::to_string(d.expected) + " flushes on db1/disk-io over " +
              std::to_string(passes) + " pass(es) (" +
              std::to_string(d.wrong) + " wrong, " +
              std::to_string(d.spurious) + " spurious)");
}

/// Runs the expensive output checks on the last pass, tallying into `v`.
/// The reference warehouse of a streamed warehouse is a one-shot
/// DataTransformer::run of the pass's own logs (its wall time is returned
/// through `one_shot_s`); a batch-transformed warehouse is checked against
/// the streaming transformer fed the same files whole.
void check_pass(Pass& p, Verdict& v, double* one_shot_s) {
  const Spec& spec = p.spec;
  std::printf("output checks\n");

  db::Database reference;
  if (spec.online()) {
    transform::DataTransformer::Config tc;
    tc.write_intermediates = false;
    tc.parallelism = 1;
    Stopwatch sw;
    (void)p.exp->load_warehouse(reference, tc);
    if (one_shot_s != nullptr) *one_shot_s = sw.seconds();
  } else {
    stream_reference(spec.cfg, p.logs->path(), reference);
    if (one_shot_s != nullptr) *one_shot_s = p.finish_s;
  }
  const RowCheck rows = compare_warehouses(*p.catalog, reference);
  v.row_loss = rows.loss_ratio();
  for (const auto& note : rows.notes) std::printf("    %s\n", note.c_str());
  v.check(rows.missing == 0 && rows.extra == 0,
          std::string(spec.online() ? "warehouse == one-shot transform ("
                              : "warehouse == streamed whole files (") +
              std::to_string(rows.reference_rows) + " rows)");

  if (p.fleet != nullptr) {
    const auto t = p.fleet->totals();
    v.check(t.dropped == 0 && t.root_gaps == 0,
            "fleet byte books (dropped " + std::to_string(t.dropped) +
                ", root gaps " + std::to_string(t.root_gaps) + ")");
  }
  if (p.online != nullptr) {
    const auto t = p.online->totals();
    v.check(t.dropped == 0 && t.gaps == 0, "collector books (no drops/gaps)");
  }

  std::set<std::string> checked;
  for (const auto& q : sql_mix()) {
    const auto it = p.last_result.find(q.key);
    if (it == p.last_result.end() || !checked.insert(q.key).second) continue;
    const ResultSet expected = brute_force(q, *p.catalog);
    v.check(same_result(to_result_set(*it->second), expected),
            "sql." + q.key + " == brute-force scan (" +
                std::to_string(expected.size()) + " rows)");
  }
}

/// Prints the result line (the last line of stdout); the exit code is
/// nonzero when a check failed.
int report(const Verdict& v, const Metrics& m) {
  const bool ok = v.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed), m.json().c_str());
  return ok ? 0 : 1;
}

double monitored_capacity_usec(const Spec& spec) {
  int nodes = 0;
  for (int n : spec.cfg.nodes_per_tier) nodes += n;
  return static_cast<double>(nodes) * spec.cfg.cores_per_node *
         static_cast<double>(spec.cfg.duration);
}

double ship_cpu_pct(const Pass& p) {
  double cpu = 0;
  if (p.online != nullptr) {
    cpu = static_cast<double>(p.online->totals().shipping_cpu);
  }
  if (p.fleet != nullptr) {
    cpu = static_cast<double>(p.fleet->totals().shipping_cpu);
  }
  return 100.0 * cpu / monitored_capacity_usec(p.spec);
}

void print_pass(int i, const Pass& p) {
  std::printf("pass %d: setup %.4f s, ingest %.4f s (%llu rows), "
              "time-to-diagnosis %.4f s (finish/transform %.4f s), "
              "pass %.3f s\n  input seed %llu fingerprint %s\n",
              i, median(p.setup_s), p.ingest_s,
              static_cast<unsigned long long>(p.records), p.ttd_s, p.finish_s,
              p.total_s, static_cast<unsigned long long>(p.spec.cfg.seed),
              p.input_fingerprint().c_str());
}

/// --trace 0: end-to-end metrics over passes repeated for ~seconds.
///
/// Each pass draws its own input from (seed, pass), and every per-pass
/// figure is reported as the median over the run's passes. Two things move
/// a single pass a lot: the input (on fleet-tree, diagnosing one seed's
/// warehouse takes up to 1.7x another's), and the host, whose CPU speed
/// flips between two levels (a fixed loop reads about 28 or 42 ms) in
/// episodes of seconds to minutes. A median over several inputs, measured
/// at different times, moves less than any one pass.
int measure(const Args& args) {
  Stopwatch clock;
  std::unique_ptr<Pass> last;
  std::vector<double> setup, rate, ttd, stale50, stale99, queries;
  DiagCheck diag;
  int passes = 0;
  do {
    last.reset();  // the previous pass's warehouse and logs go first
    last = run_pass(make_spec(args.workload, input_seed(args.seed, passes)),
                    nullptr, false);
    ++passes;
    print_pass(passes, *last);
    setup.insert(setup.end(), last->setup_s.begin(), last->setup_s.end());
    rate.push_back(static_cast<double>(last->records) / last->ingest_s);
    ttd.push_back(last->ttd_s);
    stale50.push_back(quantile(last->stale_ms, 0.50));
    stale99.push_back(quantile(last->stale_ms, 0.99));
    for (const auto& [key, ms] : last->query_ms) queries.push_back(ms);
    add_diagnoses(*last, diag);
  } while (clock.seconds() * (passes + 1) / passes <= args.seconds);
  // The p90 needs at least ten samples beyond it.
  while (queries.size() < 100) {
    const std::size_t had = last->query_ms.size();
    run_sql(*last, nullptr);
    for (std::size_t i = had; i < last->query_ms.size(); ++i) {
      queries.push_back(last->query_ms[i].second);
    }
  }
  const double rss = peak_rss_mb();  // before the checks allocate

  Verdict v;
  v.attempted = static_cast<std::uint64_t>(passes) + queries.size();
  verify_diagnoses(diag, passes, v);
  check_pass(*last, v, nullptr);

  Metrics m;
  m.add("setup_s", median(setup), "s");
  m.add("ingest_rec_per_s", median(rate), "rec/s");
  m.add("stale_p50_ms", median(stale50), "ms");
  m.add("stale_p99_ms", median(stale99), "ms");
  m.add("time_to_diagnosis_s", median(ttd), "s");
  m.add("query_p50_ms", quantile(queries, 0.50), "ms");
  m.add("query_p90_ms", quantile(queries, 0.90), "ms");
  m.add("peak_rss_mb", rss, "MB");
  m.add("row_match_ratio", 1.0 - v.row_loss, "ratio");
  m.add("diag_hit_ratio", 1.0 - v.diag_miss, "ratio");
  std::printf("end-to-end (%d passes on %d inputs, median over passes; "
              "%zu staleness samples in the last pass; %zu query samples; "
              "drill_agree_ratio %.3f, ship_cpu_pct %.3f in the last pass)\n",
              passes, passes, last->stale_ms.size(), queries.size(),
              last->drill_agree_ratio(), ship_cpu_pct(*last));
  m.print();
  return report(v, m);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// --trace 1: the per-layer ledger.
int trace(const Args& args) {
  const Spec spec = make_spec(args.workload, args.seed);
  // Untraced passes before and after the traced one, all on one input:
  // their mean is the base the tracing overhead is measured against, which
  // cancels a steady drift in machine speed, and all three must produce the
  // same warehouse and verdicts.
  std::vector<std::string> fingerprints;
  const auto plain_pass = [&](int i) {
    std::unique_ptr<Pass> plain = run_pass(spec, nullptr, false);
    print_pass(i, *plain);
    fingerprints.push_back(plain->fingerprint());
    return plain->total_s;
  };
  double plain_s = plain_pass(0);
  Ledger ledger;
  const double control_s = run_control(spec, &ledger);
  Ledger::Phase root(&ledger, "workload:" + spec.name, "bench");
  std::unique_ptr<Pass> p = run_pass(spec, &ledger, true);
  root.end();
  print_pass(1, *p);
  fingerprints.push_back(p->fingerprint());

  Verdict v;
  v.attempted = 3 * (1 + p->query_ms.size());
  DiagCheck diag;
  add_diagnoses(*p, diag);
  verify_diagnoses(diag, 1, v);
  double batch_s = 0;
  check_pass(*p, v, &batch_s);

  const auto& tb = p->exp->testbed();
  std::uint64_t log_records = 0, log_bytes = 0;
  for (const auto& s : tb.node_stats()) {
    log_records += s.log_records;
    log_bytes += s.log_bytes;
  }
  Metrics m;
  m.add("testbed.wall_s", control_s, "s");
  m.add("testbed.log_records", static_cast<double>(log_records), "count");
  m.add("testbed.log_bytes", static_cast<double>(log_bytes), "bytes");
  m.add("testbed.requests",
        static_cast<double>(p->exp->testbed().clients().completed().size()),
        "count");

  // Pipeline wall time: what making the logs queryable costs beyond the
  // simulation itself. Online it rides inside Testbed::run; post hoc it is
  // the batch transform.
  const double pipeline_s =
      spec.online()
          ? ledger.seconds("testbed.run") + ledger.seconds("collect.finish") -
                control_s
          : p->finish_s;
  m.add("pipeline.wall_s", pipeline_s, "s");

  double records = 0, batches = 0, retries = 0, blocked = 0, dropped = 0;
  if (p->online != nullptr) {
    const auto t = p->online->totals();
    records = static_cast<double>(t.records_tailed);
    batches = static_cast<double>(t.batches);
    retries = static_cast<double>(t.retries);
    blocked = static_cast<double>(t.blocked);
    dropped = static_cast<double>(t.dropped);
  }
  if (p->fleet != nullptr) {
    const auto t = p->fleet->totals();
    records = static_cast<double>(t.records_tailed);
    batches = static_cast<double>(t.batches);
    retries = static_cast<double>(t.leaf_retries);
    blocked = static_cast<double>(t.blocked);
    dropped = static_cast<double>(t.dropped);
  }
  m.add("collector.records", records, "count");
  m.add("collector.batches", batches, "count");
  m.add("collector.retries", retries, "count");
  m.add("collector.blocked", blocked, "count");
  m.add("collector.dropped", dropped, "count");
  m.add("collector.ship_cpu_pct", ship_cpu_pct(*p), "%");
  m.add("collect.finish_s", p->finish_s, "s");

  double frames = 0, bytes_in = 0, peak_queue = 0, dups = 0, gaps = 0;
  double max_lag = 0, relay_cpu = 0, root_cpu = 0;
  if (p->fleet != nullptr) {
    const auto t = p->fleet->totals();
    frames = static_cast<double>(t.relay_frames);
    dups = static_cast<double>(t.root_dups);
    gaps = static_cast<double>(t.root_gaps);
    max_lag = static_cast<double>(t.max_lag) / 1e3;
    relay_cpu = static_cast<double>(t.relay_cpu) / 1e3;
    root_cpu = static_cast<double>(t.root_cpu) / 1e3;
    for (const auto& r : p->fleet->rack_relays()) {
      bytes_in += static_cast<double>(r->stats().bytes_in);
      peak_queue = std::max(peak_queue,
                            static_cast<double>(r->stats().peak_queue_bytes));
    }
  }
  m.add("fleet.relay_frames", frames, "count");
  m.add("fleet.relay_bytes_in", bytes_in, "bytes");
  m.add("fleet.relay_peak_queue_bytes", peak_queue, "bytes");
  m.add("fleet.root_dups", dups, "count");
  m.add("fleet.root_gaps", gaps, "count");
  m.add("fleet.max_lag_vms", max_lag, "vms");
  m.add("fleet.relay_cpu_vms", relay_cpu, "vms");
  m.add("fleet.root_cpu_vms", root_cpu, "vms");

  // Counter deltas over the ingest phases (online: Testbed::run, which
  // carries the collection pipeline, and finish(); post hoc: the batch
  // transform).
  const auto ingest_delta = [&](const std::string& c) {
    return spec.online() ? ledger.delta("testbed.run", c) +
                               ledger.delta("collect.finish", c)
                         : ledger.delta("transform.batch", c);
  };
  double rows_live = 0, rebuilds = 0;
  if (p->online != nullptr) {
    rows_live = static_cast<double>(p->online->transformer().stats().rows_live);
    rebuilds =
        static_cast<double>(p->online->transformer().stats().schema_rebuilds);
  }
  if (p->fleet != nullptr) {
    for (int i = 0; i < p->fleet->topology().shards(); ++i) {
      const auto& s = p->fleet->shard_transformer(i).stats();
      rows_live += static_cast<double>(s.rows_live);
      rebuilds += static_cast<double>(s.schema_rebuilds);
    }
  }
  const double rows_inserted =
      spec.online() ? ingest_delta("transform.rows_inserted")
                    : static_cast<double>(p->batch_report.rows_loaded);
  if (!spec.online()) rows_live = rows_inserted;
  m.add("transform.parse_passes",
        ingest_delta("transform.parse.fast_passes") +
            ingest_delta("transform.parse.ref_passes"),
        "count");
  m.add("transform.rows_inserted", rows_inserted, "count");
  m.add("transform.rows_live", rows_live, "count");
  m.add("transform.schema_rebuilds", rebuilds, "count");
  m.add("transform.rejected_lines", ingest_delta("transform.parse.rejected"),
        "count");
  m.add("transform.batch_s", batch_s, "s");
  m.add("transform.reparse_x", ratio(pipeline_s, batch_s), "x");

  m.add("db.table.inserts", ingest_delta("db.table.inserts"), "count");
  m.add("db.table.seals", ingest_delta("db.table.seals"), "count");
  m.add("db.table.widens", ingest_delta("db.table.widens"), "count");
  m.add("db.wal.frames", ingest_delta("db.wal.frames"), "count");
  m.add("db.wal.commits", ingest_delta("db.wal.commits"), "count");
  m.add("db.wal.bytes_per_log_byte",
        ratio(ingest_delta("db.wal.bytes"), static_cast<double>(log_bytes)),
        "ratio");
  double scanned = 0, out = 0, seg_scanned = 0, seg_skipped = 0, probes = 0;
  for (const char* k : {"sql.pit", "sql.pushback", "sql.blame", "sql.flow"}) {
    scanned += ledger.delta(k, "db.sql.rows_scanned");
    out += ledger.delta(k, "db.sql.rows_out");
    seg_scanned += ledger.delta(k, "db.sql.segments_scanned");
    seg_skipped += ledger.delta(k, "db.sql.segments_skipped");
    probes += ledger.delta(k, "db.sql.join_probes");
  }
  m.add("db.sql.rows_scanned_per_row_out", ratio(scanned, out), "ratio");
  m.add("db.sql.segments_skipped_ratio",
        ratio(seg_skipped, seg_scanned + seg_skipped), "ratio");
  m.add("db.sql.join_probes", probes, "count");
  m.add("db.query.plans_scan", ledger.delta("db.query.plans_scan"), "count");
  m.add("db.query.plans_index", ledger.delta("db.query.plans_index"),
        "count");
  m.add("db.query.plans_columnar", ledger.delta("db.query.plans_columnar"),
        "count");
  m.add("sql.pit_ms", median(ledger.samples("sql.pit")) * 1e3, "ms");
  m.add("sql.pushback_ms", median(ledger.samples("sql.pushback")) * 1e3,
        "ms");
  m.add("sql.blame_ms", median(ledger.samples("sql.blame")) * 1e3, "ms");
  m.add("sql.flow_ms", median(ledger.samples("sql.flow")) * 1e3, "ms");

  m.add("core.diagnose_s", ledger.seconds("core.diagnose"), "s");
  m.add("core.windows", static_cast<double>(p->diagnoses.size()), "count");
  m.add("flow.materialize_s", ledger.seconds("flow.materialize"), "s");
  m.add("flow.write_s", ledger.seconds("flow.write"), "s");
  m.add("flow.drill_s", ledger.seconds("flow.drill"), "s");
  m.add("flow.requests", static_cast<double>(p->flows.requests.size()),
        "count");
  m.add("flow.spans", static_cast<double>(p->flows.spans.size()), "count");
  m.add("flow.drill_agree_ratio", p->drill_agree_ratio(), "ratio");

  double meta_rows = 0;
  for (const auto& name : p->catalog->table_names()) {
    if (name.rfind("mscope_meta_", 0) == 0) {
      meta_rows += static_cast<double>(p->catalog->get(name).row_count());
    }
  }
  m.add("obs.meta_rows", meta_rows, "count");

  std::printf("\nper-phase ledger (traced pass; self = span minus children)\n%s",
              ledger.render().c_str());
  if (p->online != nullptr && p->online->tracer() != nullptr) {
    // The collection's own tracer splits the pipeline time that rides
    // inside Testbed::run.
    std::map<std::string, std::pair<int, double>> by_name;
    for (const auto& s : p->online->tracer()->spans()) {
      if (s.wall_usec < 0) continue;
      auto& e = by_name[s.track + "/" + s.name];
      ++e.first;
      e.second += static_cast<double>(s.wall_usec) / 1e6;
    }
    std::printf("\ncollection tracer (wall inside testbed.run)\n");
    for (const auto& [name, e] : by_name) {
      std::printf("  %-32s %8d spans %10.4f s\n", name.c_str(), e.first,
                  e.second);
    }
  }
  std::printf("\nstaleness by table (virtual ms)\n");
  for (const auto& [name, ms] : p->stale_by_table) {
    std::printf("  %-28s %8zu rows  p50 %9.1f  p99 %9.1f  max %9.1f\n",
                name.c_str(), ms.size(), quantile(ms, 0.5), quantile(ms, 0.99),
                quantile(ms, 1.0));
  }
  std::printf("\nsplit of the ingest wall time: testbed %.3f s, pipeline "
              "%.3f s, one-shot transform %.3f s (reparse x%.1f)\n",
              control_s, pipeline_s, batch_s, ratio(pipeline_s, batch_s));
  if (!args.trace_out.empty()) {
    ledger.save(args.trace_out);
    std::printf("chrome trace -> %s\n", args.trace_out.c_str());
  }
  const double traced_s = p->total_s;
  p.reset();
  plain_s = (plain_s + plain_pass(2)) / 2;
  m.add("obs.trace_overhead_pct", 100.0 * (traced_s / plain_s - 1.0), "%");
  v.check(std::equal(fingerprints.begin() + 1, fingerprints.end(),
                     fingerprints.begin()),
          "3 passes on one input reproduce each other");
  std::printf("per-layer metrics\n");
  m.print();
  return report(v, m);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    const Spec spec = make_spec(args.workload, args.seed);
    std::printf("perfbench %s seed %llu (%d users, %.0f virtual s)\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                spec.cfg.workload, mscope::util::to_sec(spec.cfg.duration));
    std::fflush(stdout);
    return args.trace ? trace(args) : measure(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
