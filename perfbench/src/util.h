// Small helpers shared by the benchmark's translation units: a wall clock,
// per-process scratch directories, order statistics and JSON formatting.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stopwatch over wall_s().
class Stopwatch {
 public:
  Stopwatch() : t0_(wall_s()) {}
  [[nodiscard]] double seconds() const { return wall_s() - t0_; }

 private:
  double t0_;
};

/// Root under which every scratch directory of this process is created.
/// Set once from --scratch; defaults to the system temp directory.
std::filesystem::path& scratch_root();

/// A directory unique to this process and this object (pid + counter),
/// created empty on construction and removed with its contents on
/// destruction. Two concurrent runs never share a path.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static std::atomic<unsigned> counter{0};
    path_ = scratch_root() / ("perfbench-" + std::to_string(::getpid()) +
                              "-" + std::to_string(counter++) + "-" + tag);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// A JSON number with all its digits ("null" is never emitted: non-finite
/// values print as 0).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
