// Measures the write-ahead log's cost on mScopeDB's streaming insert path:
// frame encoding + buffered append per insert, and the flush a group commit
// pays. The durability claim this backs: journaling every insert stays under
// 10% of the bare insert cost at streaming batch sizes (the fsync-equivalent
// is amortized over the whole group), so OnlineCollection can leave the WAL
// on without distorting the collection overhead the paper measures.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "db/database.h"
#include "db/wal/wal.h"

namespace {

namespace fs = std::filesystem;
using namespace mscope;

db::Schema bench_schema() {
  return {{"ts_usec", db::DataType::kInt},
          {"duration_usec", db::DataType::kInt},
          {"util", db::DataType::kDouble},
          {"op", db::DataType::kText}};
}

db::Table::Row make_row(std::int64_t i) {
  db::Table::Row row;
  row.reserve(4);
  row.push_back(db::Value{i * 100});
  row.push_back(db::Value{(i * 37) % 5000});
  row.push_back(db::Value{static_cast<double>(i % 100) / 100.0});
  row.push_back(db::Value{db::TextRef(i % 2 == 0 ? "read" : "write")});
  return row;
}

fs::path wal_file() {
  return fs::temp_directory_path() /
         ("mscope_bench_wal_append_" + std::to_string(::getpid()) + ".log");
}

// Keep tables bounded so the measurement stays on insert, not on memory.
constexpr std::size_t kMaxRows = 1u << 20;

void BM_InsertBare(benchmark::State& state) {
  db::Database db;
  db::Table& t = db.create_table("ev_bench", bench_schema());
  std::int64_t i = 0;
  for (auto _ : state) {
    t.insert(make_row(i++));
    if (t.row_count() >= kMaxRows) t.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertBare);

void BM_InsertJournaled(benchmark::State& state) {
  const std::int64_t commit_every = state.range(0);
  db::Database db;
  db::wal::WalWriter wal(wal_file());
  db.set_journal(&wal);
  db::Table& t = db.create_table("ev_bench", bench_schema());
  std::int64_t i = 0;
  for (auto _ : state) {
    t.insert(make_row(i++));
    if (i % commit_every == 0) wal.commit();
    if (t.row_count() >= kMaxRows) t.clear();
  }
  db.set_journal(nullptr);
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(wal.stats().bytes));
  state.counters["frames"] = static_cast<double>(wal.stats().frames);
}
// Group-commit cadences: every insert (worst case), streaming batch sizes,
// and the OnlineCollection default regime (hundreds of rows per tick).
BENCHMARK(BM_InsertJournaled)->Arg(1)->Arg(64)->Arg(1024);

void BM_GroupCommitFlush(benchmark::State& state) {
  // The commit marker + flush alone, on a log with one dirty frame — the
  // fixed cost each group-commit tick pays.
  db::Database db;
  db::wal::WalWriter wal(wal_file());
  db.set_journal(&wal);
  db::Table& t = db.create_table("ev_bench", bench_schema());
  std::int64_t i = 0;
  for (auto _ : state) {
    t.insert(make_row(i++));
    wal.commit();
    if (t.row_count() >= kMaxRows) t.clear();
  }
  db.set_journal(nullptr);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroupCommitFlush);

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  const int rc = ::benchmark::RunSpecifiedBenchmarks() > 0 ? 0 : 1;
  std::error_code ec;
  fs::remove(wal_file(), ec);
  fs::remove(wal_file().string() + ".tmp", ec);
  return rc;
}
