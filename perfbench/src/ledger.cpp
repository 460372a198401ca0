#include "ledger.h"

#include <chrono>
#include <cstdio>

#include "obs/metrics.h"
#include "util.h"

namespace perfbench {

namespace {

/// Counters only: gauges are levels, not work done by a phase.
std::map<std::string, double> counter_snapshot() {
  std::map<std::string, double> out;
  for (const auto& s : mscope::obs::Registry::global().snapshot()) {
    if (s.kind == mscope::obs::MetricSample::Kind::kCounter) {
      out.emplace(s.name, s.value);
    }
  }
  return out;
}

}  // namespace

Ledger::Ledger() {
  const auto origin = std::chrono::steady_clock::now();
  tracer_ = std::make_unique<mscope::obs::Tracer>(
      [origin]() -> mscope::util::SimTime {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - origin)
            .count();
      });
}

Ledger::Phase::Phase(Ledger* ledger, std::string name, std::string layer)
    : ledger_(ledger), name_(std::move(name)), layer_(std::move(layer)) {
  if (ledger_ == nullptr) return;
  depth_ = ledger_->open_++;
  before_ = counter_snapshot();
  span_.emplace(ledger_->tracer_->span(name_, layer_));
  t0_ = wall_s();
}

void Ledger::Phase::end() {
  if (ledger_ == nullptr) return;
  const double secs = wall_s() - t0_;
  span_->close();
  Record r;
  r.name = name_;
  r.layer = layer_;
  r.depth = depth_;
  r.seconds = secs;
  for (const auto& [name, after] : counter_snapshot()) {
    const auto it = before_.find(name);
    const double d = after - (it == before_.end() ? 0.0 : it->second);
    if (d != 0) r.deltas.emplace(name, d);
  }
  ledger_->records_.push_back(std::move(r));
  --ledger_->open_;
  ledger_ = nullptr;
}

double Ledger::delta(const std::string& counter) const {
  double sum = 0;
  for (const auto& r : records_) {
    if (r.depth != 1) continue;
    const auto it = r.deltas.find(counter);
    if (it != r.deltas.end()) sum += it->second;
  }
  return sum;
}

double Ledger::delta(const std::string& phase,
                     const std::string& counter) const {
  double sum = 0;
  for (const auto& r : records_) {
    if (r.name != phase) continue;
    const auto it = r.deltas.find(counter);
    if (it != r.deltas.end()) sum += it->second;
  }
  return sum;
}

double Ledger::seconds(const std::string& phase) const {
  double sum = 0;
  for (const auto& r : records_) {
    if (r.name == phase) sum += r.seconds;
  }
  return sum;
}

std::vector<double> Ledger::samples(const std::string& phase) const {
  std::vector<double> out;
  for (const auto& r : records_) {
    if (r.name == phase) out.push_back(r.seconds);
  }
  return out;
}

std::map<std::string, double> Ledger::self_seconds() const {
  // Scoped spans nest properly, so in begin order a span's parent is the
  // innermost still-open span one level up.
  const auto& spans = tracer_->spans();
  std::vector<double> child(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end < 0) continue;
    while (!stack.empty() &&
           spans[stack.back()].depth >= spans[i].depth) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      child[stack.back()] +=
          static_cast<double>(spans[i].end - spans[i].begin) / 1e6;
    }
    stack.push_back(i);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end < 0) continue;
    const double dur = static_cast<double>(spans[i].end - spans[i].begin) / 1e6;
    out[spans[i].name] += dur - child[i];
  }
  return out;
}

std::string Ledger::render() const {
  struct Row {
    std::string layer;
    int calls = 0;
    double seconds = 0;
    std::map<std::string, double> deltas;
  };
  std::map<std::string, Row> rows;
  std::vector<std::string> order;
  for (const auto& r : records_) {
    auto [it, fresh] = rows.try_emplace(r.name);
    if (fresh) order.push_back(r.name);
    Row& row = it->second;
    row.layer = r.layer;
    ++row.calls;
    row.seconds += r.seconds;
    for (const auto& [k, v] : r.deltas) row.deltas[k] += v;
  }
  const auto self = self_seconds();
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-26s %-10s %6s %10s %10s\n", "phase",
                "layer", "calls", "wall_s", "self_s");
  out += buf;
  for (const auto& name : order) {
    const Row& row = rows[name];
    const auto s = self.find(name);
    std::snprintf(buf, sizeof buf, "%-26s %-10s %6d %10.4f %10.4f\n",
                  name.c_str(), row.layer.c_str(), row.calls, row.seconds,
                  s == self.end() ? 0.0 : s->second);
    out += buf;
    for (const auto& [k, v] : row.deltas) {
      std::snprintf(buf, sizeof buf, "    %-40s %16.0f\n", k.c_str(), v);
      out += buf;
    }
  }
  return out;
}

void Ledger::save(const std::filesystem::path& path) const {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  tracer_->save_chrome_json(path);
}

}  // namespace perfbench
