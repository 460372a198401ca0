#pragma once

// Scratch directories for tests. ctest runs every gtest case as its own
// process, many at once under `ctest -j`, so a fixed temp path would be
// created, filled and removed by several processes at the same time. A
// TempDir is unique to its process (pid) and to its construction (counter),
// and is removed with everything in it when it goes out of scope.

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace mscope::test {

class TempDir {
 public:
  /// Creates <tmp>/mscope_<tag>_<pid>_<n>, empty.
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("mscope_" + tag + "_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;  // best effort: a destructor must not throw
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  static inline std::atomic<unsigned> counter_{0};
  std::filesystem::path path_;
};

}  // namespace mscope::test
