#include "workload.h"

#include <cstdio>
#include <optional>
#include <stdexcept>

#include "db/sql.h"
#include "db/value.h"

namespace perfbench {

using namespace mscope;

namespace {

using util::SimTime;

constexpr SimTime kPollInterval = 10 * util::kMsec;

SimTime wall_usec(double seconds) {
  return static_cast<SimTime>(seconds * 1e6);
}

/// The staleness probe: every 10 virtual ms it looks at each log table's
/// row count and, for each row that became visible since the last poll,
/// records the virtual time since the record was written (its departure
/// timestamp when it has one, else its sample timestamp).
class FreshnessPoller {
 public:
  FreshnessPoller(std::vector<const db::Database*> dbs,
                  std::vector<double>& out,
                  std::map<std::string, std::vector<double>>& by_table)
      : dbs_(std::move(dbs)), out_(out), by_table_(by_table) {}

  /// Polls every kPollInterval of virtual time. The scheduled events hold
  /// only a weak reference, so they are inert once the poller is gone.
  static void attach(const std::shared_ptr<FreshnessPoller>& self,
                     sim::Simulation& sim) {
    self->sim_ = &sim;
    schedule(self);
  }

  void poll(SimTime now) {
    for (std::size_t i = 0; i < dbs_.size(); ++i) {
      for (const auto& name : dbs_[i]->table_names()) {
        if (!is_log_table(name)) continue;
        const db::Table& t = dbs_[i]->get(name);
        std::size_t& seen = seen_[{i, name}];
        const std::size_t n = t.row_count();
        if (n <= seen) continue;
        const auto ts = t.column_index("ts_usec");
        const auto ud = t.column_index("ud_usec");
        for (std::size_t r = seen; r < n; ++r) {
          std::optional<std::int64_t> stamp;
          if (ts) stamp = db::as_int(t.at(r, *ts));
          if (ud) {
            const auto d = db::as_int(t.at(r, *ud));
            if (d && (!stamp || *d > *stamp)) stamp = d;
          }
          if (!stamp) continue;
          const double ms = static_cast<double>(now - *stamp) / 1e3;
          out_.push_back(ms);
          by_table_[name].push_back(ms);
        }
        seen = n;
      }
    }
  }

 private:
  static void schedule(const std::shared_ptr<FreshnessPoller>& self) {
    self->sim_->schedule(
        kPollInterval, [weak = std::weak_ptr<FreshnessPoller>(self)] {
          if (const auto p = weak.lock()) {
            p->poll(p->sim_->now());
            schedule(p);
          }
        });
  }

  std::vector<const db::Database*> dbs_;
  std::vector<double>& out_;
  std::map<std::string, std::vector<double>>& by_table_;
  sim::Simulation* sim_ = nullptr;
  std::map<std::pair<std::size_t, std::string>, std::size_t> seen_;
};

void setup(Pass& p, Ledger* ledger, bool observe) {
  const Spec& spec = p.spec;
  auto cfg = spec.cfg;
  cfg.log_dir = p.logs->path();
  p.exp = std::make_unique<core::Experiment>(cfg);
  if (spec.online()) {
    p.detector = std::make_unique<core::OnlineVsbDetector>();
    p.exp->testbed().clients().set_on_complete(
        [d = p.detector.get()](const sim::RequestPtr& r) {
          d->on_complete(r);
        });
  }
  switch (spec.kind) {
    case Kind::kOnlineFlat: {
      p.db = std::make_unique<db::Database>();
      core::OnlineCollection::Config c;
      c.transform_workers = 1;
      c.durability.emplace();
      c.durability->dir = p.wal->path();
      c.durability->commit_interval = util::kSec;
      c.durability->checkpoint_every = 10;
      if (observe) c.observability.emplace();
      p.online = p.exp->start_online(*p.db, p.detector.get(), c);
      p.catalog = p.db.get();
      break;
    }
    case Kind::kFleetTree: {
      fleet::FleetCollection::Config c;
      c.topology.levels = 2;
      c.topology.racks = 4;
      c.topology.shards = 2;
      c.transform_workers = 1;
      c.observability.emplace();
      p.sharded = std::make_unique<fleet::ShardedWarehouse>(c.topology.shards);
      p.fleet = std::make_unique<fleet::FleetCollection>(
          p.exp->testbed(), *p.sharded, p.detector.get(), c);
      p.catalog = p.sharded.get();
      break;
    }
    case Kind::kPosthoc: {
      Ledger::Phase ph(ledger, "testbed.run", "testbed");
      p.exp->run();
      ph.end();
      p.db = std::make_unique<db::Database>();
      p.catalog = p.db.get();
      break;
    }
  }
}

/// The database flow tables are written into (the fleet's shard 0, as the
/// fleet scenario does).
db::Database& writable(Pass& p) {
  return p.sharded != nullptr ? p.sharded->shard(0) : *p.db;
}

std::vector<const db::Database*> physical(const Pass& p) {
  std::vector<const db::Database*> out;
  if (p.sharded != nullptr) {
    for (int i = 0; i < p.sharded->shard_count(); ++i) {
      out.push_back(&p.sharded->shard(i));
    }
  } else {
    out.push_back(p.db.get());
  }
  return out;
}

}  // namespace

Spec make_spec(const std::string& name, std::uint64_t seed) {
  Spec s;
  s.name = name;
  auto& c = s.cfg;
  c.seed = seed;
  c.capture_messages = false;
  c.scenario_a = core::ScenarioA{};
  if (name == "online-flat") {
    s.kind = Kind::kOnlineFlat;
    c.workload = 4000;
    c.duration = util::sec(30);
    // 8-core nodes as in the other workloads: on 4 cores the drain burst
    // after a flush saturates db1's CPU for some seeds and the diagnosis
    // names cpu instead of the disk.
    c.cores_per_node = 8;
    s.setups_per_pass = 5;
  } else if (name == "fleet-tree") {
    s.kind = Kind::kFleetTree;
    c.workload = 16000;
    c.duration = util::sec(14);
    c.nodes_per_tier = {8, 8, 8, 8};
    c.cores_per_node = 8;
    c.scenario_a->flush_bytes = 512ULL << 20;
    s.setups_per_pass = 5;
  } else if (name == "posthoc") {
    s.kind = Kind::kPosthoc;
    c.workload = 10000;
    c.duration = util::sec(60);
    c.nodes_per_tier = {2, 2, 2, 2};
    c.cores_per_node = 8;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (online-flat, fleet-tree, posthoc)");
  }
  return s;
}

std::unique_ptr<Pass> run_pass(const Spec& spec, Ledger* ledger,
                               bool observe) {
  auto p = std::make_unique<Pass>();
  p->spec = spec;
  Stopwatch total;

  for (int i = 0; i < spec.setups_per_pass; ++i) {
    // Tear the previous set-up down (untimed), then time a fresh one.
    p->online.reset();
    p->fleet.reset();
    p->sharded.reset();
    p->db.reset();
    p->exp.reset();
    p->detector.reset();
    p->logs = std::make_unique<ScratchDir>("logs");
    if (spec.kind == Kind::kOnlineFlat) {
      p->wal = std::make_unique<ScratchDir>("wal");
    }
    Stopwatch sw;
    Ledger::Phase ph(ledger, "setup", "core");
    setup(*p, ledger, observe);
    ph.end();
    p->setup_s.push_back(sw.seconds());
  }

  std::vector<const db::Database*> dbs = physical(*p);
  const auto poller = std::make_shared<FreshnessPoller>(
      std::move(dbs), p->stale_ms, p->stale_by_table);
  // Time-to-diagnosis starts with the last log line: after Testbed::run
  // online, with the batch transform post hoc.
  Stopwatch ingest;
  Stopwatch ttd;
  if (spec.online()) {
    FreshnessPoller::attach(poller, p->exp->testbed().simulation());
    Ledger::Phase run(ledger, "testbed.run", "testbed");
    p->exp->run();
    run.end();
    ttd = Stopwatch();
    Ledger::Phase fin(ledger, "collect.finish",
                      p->fleet != nullptr ? "fleet" : "collector");
    if (p->online != nullptr) p->online->finish();
    if (p->fleet != nullptr) p->fleet->finish();
    fin.end();
  } else {
    Ledger::Phase tr(ledger, "transform.batch", "transform");
    transform::DataTransformer::Config tc;
    tc.write_intermediates = false;
    tc.parallelism = 1;
    p->batch_report = p->exp->load_warehouse(*p->db, tc);
    tr.end();
  }
  p->finish_s = ttd.seconds();
  p->ingest_s = ingest.seconds();
  // Once the sim has stopped, time runs on in wall time: rows made visible
  // by finish() or the batch transform count as seen when it returns.
  poller->poll(p->exp->testbed().simulation().now() + wall_usec(p->finish_s));
  p->records = log_rows(*p->catalog);

  {
    Ledger::Phase ph(ledger, "core.diagnose", "core");
    p->diagnoses = p->exp->diagnoser(*p->catalog).diagnose(spec.cfg.duration);
  }
  {
    Ledger::Phase ph(ledger, "flow.materialize", "flow");
    flow::Materializer mat(*p->catalog,
                           flow::Deployment::from(p->exp->tables(),
                                                  core::Testbed::services()));
    p->flows = mat.run();
  }
  {
    Ledger::Phase ph(ledger, "flow.drill", "flow");
    for (const auto& d : p->diagnoses) {
      p->drills.push_back(
          flow::drill_down(p->flows, d.window.begin, d.window.end, 3));
    }
  }
  p->ttd_s = ttd.seconds();
  {
    Ledger::Phase ph(ledger, "flow.write", "flow");
    flow::Materializer::materialize(p->flows, writable(*p));
  }
  run_sql(*p, ledger);
  p->total_s = total.seconds();
  return p;
}

void run_sql(Pass& p, Ledger* ledger) {
  const auto mix = sql_mix();
  for (int round = 0; round < kSqlRounds; ++round) {
    for (const auto& q : mix) {
      Ledger::Phase ph(ledger, "sql." + q.key, "db");
      Stopwatch sw;
      db::Table result = db::Sql::execute(*p.catalog, q.sql);
      const double ms = sw.seconds() * 1e3;
      ph.end();
      p.query_ms.emplace_back(q.key, ms);
      if (round + 1 == kSqlRounds) {
        p.last_result[q.key] = std::make_unique<db::Table>(std::move(result));
      }
    }
  }
}

double run_control(const Spec& spec, Ledger* ledger) {
  ScratchDir logs("control");
  auto cfg = spec.cfg;
  cfg.log_dir = logs.path();
  core::Experiment exp(cfg);
  Stopwatch sw;
  Ledger::Phase ph(ledger, "control.testbed.run", "testbed");
  exp.run();
  ph.end();
  return sw.seconds();
}

double Pass::drill_agree_ratio() const {
  if (diagnoses.empty()) return 0.0;
  std::size_t agree = 0;
  for (std::size_t i = 0; i < diagnoses.size(); ++i) {
    if (drills[i].culprit_tier == diagnoses[i].bottleneck_tier &&
        drills[i].culprit_node == diagnoses[i].bottleneck_node) {
      ++agree;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(diagnoses.size());
}

std::string Pass::fingerprint() const {
  std::string out;
  for (const auto& name : catalog->table_names()) {
    if (!is_log_table(name)) continue;
    out += name + "=" + std::to_string(catalog->get(name).row_count()) + "\n";
  }
  char buf[160];
  for (std::size_t i = 0; i < diagnoses.size(); ++i) {
    const auto& d = diagnoses[i];
    std::snprintf(buf, sizeof buf, "window %lld-%lld %s/%s drill %d/%s\n",
                  static_cast<long long>(d.window.begin),
                  static_cast<long long>(d.window.end),
                  d.bottleneck_node.c_str(), d.root_cause.c_str(),
                  drills[i].culprit_tier, drills[i].culprit_node.c_str());
    out += buf;
  }
  return out;
}

std::string Pass::input_fingerprint() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the per-node books
  std::string nodes;
  for (const auto& s : exp->testbed().node_stats()) {
    const std::string item = s.name + ":" + std::to_string(s.log_records) +
                             "/" + std::to_string(s.log_bytes);
    for (const char c : item) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    nodes += " " + item;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return std::string(buf) + " (node:log_records/log_bytes" + nodes + ")";
}

}  // namespace perfbench
