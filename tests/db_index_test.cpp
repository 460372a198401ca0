// Property tests of the TimeIndex and the SQL scan's index pushdown: with a
// warm index bounding the scanned rows, a query must return exactly the rows
// a brute-force scan (oracle.h) returns. The tables are randomized (unsorted
// timestamps, duplicates, NULL holes, doubles) precisely because the
// analyses' warehouses are not.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/database.h"
#include "db/index.h"
#include "db/sql.h"
#include "oracle.h"
#include "transform/streaming.h"
#include "util/rng.h"

namespace mscope {
namespace {

using db::DataType;
using db::Table;
using db::Value;

// Every cell of two query results, compared exactly.
void expect_same_result(const Table& a, const Table& b) {
  ASSERT_EQ(a.row_count(), b.row_count());
  ASSERT_EQ(a.schema().size(), b.schema().size());
  for (std::size_t r = 0; r < a.row_count(); ++r) {
    for (std::size_t c = 0; c < a.schema().size(); ++c) {
      EXPECT_EQ(db::compare(a.at(r, c), b.at(r, c)), 0)
          << "row " << r << " col " << c;
    }
  }
}

// A table of `rows` events with shuffled, duplicate-heavy timestamps: ts is
// Int, t2 is Double (to exercise as_int rounding in the index), and every
// seventh ts / fifth t2 cell is NULL.
void fill_random(Table& t, util::Rng& rng, int rows) {
  for (int i = 0; i < rows; ++i) {
    const auto ts = static_cast<std::int64_t>(rng.next_below(200));
    const double t2 = static_cast<double>(rng.next_below(400)) / 2.0;
    Value ts_v = (i % 7 == 6) ? Value{} : Value{ts};
    Value t2_v = (i % 5 == 4) ? Value{} : Value{t2};
    t.insert({std::move(ts_v), std::move(t2_v),
              Value{static_cast<std::int64_t>(i)}});
  }
}

// `SELECT * FROM <table> WHERE <where>` must return exactly `rows` of `t`,
// in insertion order.
void expect_sql_rows(const db::Database& db, const Table& t,
                     const std::string& where,
                     const std::vector<std::size_t>& rows) {
  SCOPED_TRACE(where);
  expect_same_result(
      db::Sql::execute(db, "SELECT * FROM " + t.name() + " WHERE " + where),
      test::oracle::select(t, rows));
}

// The half-open range [lo, hi) on `col`, through SQL and through the oracle.
void expect_range_matches(const db::Database& db, const Table& t,
                          const std::string& col, std::int64_t lo,
                          std::int64_t hi) {
  expect_sql_rows(db, t,
                  col + " >= " + std::to_string(lo) + " AND " + col + " < " +
                      std::to_string(hi),
                  test::oracle::rows_in_range(t, col, static_cast<double>(lo),
                                              static_cast<double>(hi)));
}

db::Schema event_schema() {
  return {{"ts", DataType::kInt},
          {"t2", DataType::kDouble},
          {"seq", DataType::kInt}};
}

TEST(DbIndex, IndexedTimeRangeMatchesScanOnRandomTables) {
  util::Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    db::Database db;
    Table& t = db.create_table("ev", event_schema());
    fill_random(t, rng, 200 + static_cast<int>(rng.next_below(200)));
    (void)t.time_index("ts");
    (void)t.time_index("t2");
    for (int q = 0; q < 10; ++q) {
      const auto lo = static_cast<std::int64_t>(rng.next_below(220)) - 10;
      const auto hi = lo + static_cast<std::int64_t>(rng.next_below(120));
      for (const char* col : {"ts", "t2"}) {
        expect_range_matches(db, t, col, lo, hi);
      }
    }
    // The warm index is what bounded the scan.
    const Table plan = db::Sql::execute(
        db, "EXPLAIN SELECT * FROM ev WHERE ts >= 50 AND ts < 60");
    std::string lines;
    for (std::size_t r = 0; r < plan.row_count(); ++r) {
      lines += db::value_to_string(plan.at(r, 0)) + "\n";
    }
    EXPECT_NE(lines.find("time-index"), std::string::npos) << lines;
  }
}

TEST(DbIndex, IndexStaysConsistentAcrossAppends) {
  util::Rng rng(7);
  db::Database db;
  Table& t = db.create_table("ev", event_schema());
  fill_random(t, rng, 100);
  // The index is built once; later inserts must maintain it (both the
  // in-order fast path and out-of-order sorted inserts).
  ASSERT_NE(t.time_index("ts"), nullptr);
  expect_range_matches(db, t, "ts", 0, 200);
  for (int batch = 0; batch < 5; ++batch) {
    fill_random(t, rng, 50);
    const db::TimeIndex* idx = t.time_index("ts");
    ASSERT_NE(idx, nullptr);
    // Entries sorted by (time, row) — the invariant every range slice needs.
    const auto entries = idx->entries();
    for (std::size_t i = 1; i < entries.size(); ++i) {
      ASSERT_LT(entries[i - 1], entries[i]);
    }
    expect_range_matches(db, t, "ts", 40, 160);
  }
}

TEST(DbIndex, EqualityFastPathsMatchGenericWhereEq) {
  util::Rng rng(21);
  db::Database db;
  Table& t = db.create_table("ev", event_schema());
  fill_random(t, rng, 300);
  const auto equal_to = [&t](std::int64_t v) {
    return test::oracle::rows_where(t, [v](const Table& tt, std::size_t r) {
      const auto ts = db::as_int(tt.at(r, 0));
      return ts && *ts == v;
    });
  };
  // Cold (scan only), then warm: equality rides the index slice.
  for (const bool warm : {false, true}) {
    if (warm) (void)t.time_index("ts");
    for (std::int64_t v : {0, 50, 150, 199, 777}) {
      expect_sql_rows(db, t, "ts = " + std::to_string(v), equal_to(v));
    }
  }
}

TEST(DbIndex, TimeIndexRangeHandlesDuplicatesAndBounds) {
  db::Database db;
  Table& t = db.create_table("ev", event_schema());
  for (std::int64_t ts : {5, 5, 5, 1, 9, 5}) {
    t.insert({Value{ts}, Value{}, Value{std::int64_t{0}}});
  }
  const db::TimeIndex* idx = t.time_index("ts");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->size(), 6u);
  EXPECT_EQ(idx->min_time(), 1);
  EXPECT_EQ(idx->max_time(), 9);
  EXPECT_EQ(idx->range(5, 6).size(), 4u);
  EXPECT_EQ(idx->range(0, 100).size(), 6u);
  EXPECT_EQ(idx->range(6, 9).size(), 0u);   // hi exclusive
  EXPECT_EQ(idx->range(9, 10).size(), 1u);
  // Equal-time entries preserve insertion (row) order.
  const auto fives = idx->range(5, 6);
  for (std::size_t i = 1; i < fives.size(); ++i) {
    EXPECT_LT(fives[i - 1].row, fives[i].row);
  }
}

TEST(DbIndex, OrderByIsDeterministicOnTies) {
  db::Database db;
  Table& t = db.create_table("ev", event_schema());
  // All-equal sort keys: result must come back in insertion order, and in
  // reverse insertion order descending — on every standard library.
  for (int i = 0; i < 10; ++i) {
    t.insert({Value{std::int64_t{42}}, Value{},
              Value{static_cast<std::int64_t>(i)}});
  }
  const Table asc = db::Sql::execute(db, "SELECT * FROM ev ORDER BY ts");
  for (std::size_t r = 0; r < asc.row_count(); ++r) {
    EXPECT_EQ(std::get<std::int64_t>(asc.at(r, 2)),
              static_cast<std::int64_t>(r));
  }
  const Table desc =
      db::Sql::execute(db, "SELECT * FROM ev ORDER BY ts DESC");
  for (std::size_t r = 0; r < desc.row_count(); ++r) {
    EXPECT_EQ(std::get<std::int64_t>(desc.at(r, 2)),
              static_cast<std::int64_t>(r));
  }
}

// The streaming transformer's schema-widening rebuild drops and re-creates
// the table mid-stream; the time index must survive that (it is rebuilt and
// then maintained incrementally on the new table) and stay in lockstep with
// a brute-force scan.
TEST(DbIndex, StreamingWideningRebuildKeepsIndexConsistent) {
  db::Database db;
  transform::StreamingTransformer st(db);
  transform::Declaration d;
  d.parser_id = "token_lines";
  d.file_name = "widen.log";
  d.source = "test";
  d.table_prefix = "ev_widen";
  d.monitor_name = "widen";
  d.tokens.push_back({R"re(^(\S+) (\S+)$)re", {"name", "ts_usec"}});
  st.declarations().add(d);

  st.ingest("n1", "widen.log", "a 10\nb 30\nc 20\n");
  st.parse_all();
  ASSERT_TRUE(db.exists("ev_widen_n1"));
  {
    const Table& t = db.get("ev_widen_n1");
    ASSERT_EQ(t.schema()[1].type, DataType::kInt);
    const db::TimeIndex* idx = t.time_index("ts_usec");
    ASSERT_NE(idx, nullptr);
    EXPECT_EQ(idx->size(), 3u);  // prewarmed + maintained while streaming
    expect_range_matches(db, t, "ts_usec", 15, 35);
  }

  // Widen ts_usec to Double: the table is rebuilt, rows re-typed, and the
  // fresh index must cover old and new rows alike.
  st.ingest("n1", "widen.log", "d 25.5\ne 5\n");
  st.parse_all();
  st.finalize();
  const Table& t = db.get("ev_widen_n1");
  ASSERT_EQ(t.schema()[1].type, DataType::kDouble);
  ASSERT_EQ(t.row_count(), 5u);
  const db::TimeIndex* idx = t.time_index("ts_usec");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->size(), 5u);
  EXPECT_EQ(idx->min_time(), 5);
  EXPECT_EQ(idx->max_time(), 30);
  expect_range_matches(db, t, "ts_usec", 10, 27);
  // The load catalog's time range came off the same index.
  const Table& cat = db.get(db::Database::kLoadCatalogTable);
  ASSERT_EQ(cat.row_count(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(cat.at(0, *cat.column_index("t_min_usec"))),
            5);
  EXPECT_EQ(std::get<std::int64_t>(cat.at(0, *cat.column_index("t_max_usec"))),
            30);
}

}  // namespace
}  // namespace mscope
