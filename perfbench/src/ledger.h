// The traced run's per-layer ledger: spans around every call the benchmark
// makes into the program, and the process-wide obs registry's counter
// deltas attributed to each of those calls.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

class Ledger {
 public:
  Ledger();

  /// One timed call into a layer. Opens a span on the ledger's steady-clock
  /// tracer and snapshots the registry; end() (or destruction) closes the
  /// span and records the counter deltas. A Phase over a null ledger does
  /// nothing, so untraced runs pay for neither spans nor snapshots.
  class Phase {
   public:
    Phase(Ledger* ledger, std::string name, std::string layer);
    ~Phase() { end(); }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;
    void end();

   private:
    Ledger* ledger_;
    std::string name_;
    std::string layer_;
    int depth_ = 0;
    double t0_ = 0;
    std::map<std::string, double> before_;
    std::optional<mscope::obs::Tracer::Span> span_;
  };

  /// Counter delta summed over the top-level phases (the root's children),
  /// so nested phases are not counted twice.
  [[nodiscard]] double delta(const std::string& counter) const;
  /// Counter delta over every top-level phase named `phase`.
  [[nodiscard]] double delta(const std::string& phase,
                             const std::string& counter) const;
  /// Wall seconds summed over phases named `phase`.
  [[nodiscard]] double seconds(const std::string& phase) const;
  /// Wall seconds of every phase named `phase`, in order.
  [[nodiscard]] std::vector<double> samples(const std::string& phase) const;

  /// Self time per span name (span duration minus the part its child spans
  /// cover), summed over spans of that name, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Human-readable ledger: per phase name, calls, wall and self time and
  /// the counter deltas it caused.
  [[nodiscard]] std::string render() const;

  /// Chrome trace-event JSON of every span.
  void save(const std::filesystem::path& path) const;

 private:
  struct Record {
    std::string name;
    std::string layer;
    int depth = 0;
    double seconds = 0;
    std::map<std::string, double> deltas;
  };
  std::unique_ptr<mscope::obs::Tracer> tracer_;
  std::vector<Record> records_;
  int open_ = 0;
};

}  // namespace perfbench
