#include <gtest/gtest.h>

#include <algorithm>

#include "core/analysis.h"
#include "core/metrics.h"
#include "db/database.h"

namespace mscope::core {
namespace {

using util::msec;
using util::sec;

sim::RequestPtr completed_req(std::uint64_t id, SimTime send, SimTime recv) {
  auto r = std::make_shared<sim::Request>();
  r->id = id;
  r->client_send = send;
  r->client_recv = recv;
  r->records.resize(4);
  return r;
}

TEST(PitResponseTime, MaxAvgAndOverall) {
  std::vector<sim::RequestPtr> reqs;
  // Bucket 0: 5 ms and 15 ms; bucket 1: 100 ms.
  reqs.push_back(completed_req(1, 0, msec(5)));
  reqs.push_back(completed_req(2, msec(10), msec(25)));
  reqs.push_back(completed_req(3, msec(0), msec(100)));
  const PitSeries pit = pit_response_time(reqs, msec(50));
  ASSERT_EQ(pit.max_rt_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(pit.max_rt_ms[0].value, 15.0);
  EXPECT_DOUBLE_EQ(pit.max_rt_ms[1].value, 100.0);
  EXPECT_DOUBLE_EQ(pit.avg_rt_ms[0].value, 10.0);
  EXPECT_DOUBLE_EQ(pit.overall_avg_ms, 40.0);
  EXPECT_DOUBLE_EQ(pit.overall_p50_ms, 15.0);
  EXPECT_DOUBLE_EQ(pit.peak_to_average(), 100.0 / 40.0);
}

TEST(PitResponseTime, DbPathMatchesDirectPath) {
  db::Database db;
  auto& t = db.create_table("ev_apache_web1",
                            {{"ud_usec", db::DataType::kInt},
                             {"duration_usec", db::DataType::kInt}});
  std::vector<sim::RequestPtr> reqs;
  for (int i = 0; i < 50; ++i) {
    const SimTime recv = msec(10 * i + 7);
    const SimTime rt = msec(3 + i % 5);
    reqs.push_back(completed_req(static_cast<std::uint64_t>(i), recv - rt,
                                 recv));
    t.insert({db::Value{recv}, db::Value{rt}});
  }
  const PitSeries a = pit_response_time(reqs, msec(50));
  const PitSeries b = pit_response_time_db(db, "ev_apache_web1", msec(50));
  ASSERT_EQ(a.max_rt_ms.size(), b.max_rt_ms.size());
  for (std::size_t i = 0; i < a.max_rt_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.max_rt_ms[i].value, b.max_rt_ms[i].value);
  }
  EXPECT_DOUBLE_EQ(a.overall_avg_ms, b.overall_avg_ms);
}

TEST(PitResponseTime, ReplicasEqualTheirConcatenation) {
  // Two replicas with interleaved and colliding completion times: the
  // multi-table PIT must equal the PIT of one table holding replica 1's rows
  // followed by replica 2's.
  db::Database db;
  const db::Schema schema{{"ud_usec", db::DataType::kInt},
                          {"duration_usec", db::DataType::kInt}};
  auto& web1 = db.create_table("ev_apache_web1", schema);
  auto& web2 = db.create_table("ev_apache_web2", schema);
  auto& both = db.create_table("ev_apache_both", schema);
  for (int i = 0; i < 60; ++i) {
    const db::Table::Row row{db::Value{msec((i * 7) % 40 + 3)},
                             db::Value{msec(1 + i % 9)}};
    (i % 3 == 0 ? web2 : web1).insert(row);
  }
  for (const db::Table* t : {&web1, &web2}) {
    for (std::size_t r = 0; r < t->row_count(); ++r) {
      both.insert({t->at(r, 0), t->at(r, 1)});
    }
  }
  const PitSeries multi = pit_response_time_db_multi(
      db, {"ev_apache_web1", "ev_apache_web2"}, msec(10));
  const PitSeries concat = pit_response_time_db(db, "ev_apache_both", msec(10));
  ASSERT_EQ(multi.max_rt_ms.size(), concat.max_rt_ms.size());
  ASSERT_EQ(multi.avg_rt_ms.size(), concat.avg_rt_ms.size());
  for (std::size_t i = 0; i < multi.max_rt_ms.size(); ++i) {
    EXPECT_EQ(multi.max_rt_ms[i].time, concat.max_rt_ms[i].time);
    EXPECT_EQ(multi.max_rt_ms[i].value, concat.max_rt_ms[i].value);
    EXPECT_EQ(multi.avg_rt_ms[i].value, concat.avg_rt_ms[i].value);
  }
  EXPECT_EQ(multi.overall_avg_ms, concat.overall_avg_ms);
  EXPECT_EQ(multi.overall_p50_ms, concat.overall_p50_ms);
}

TEST(QueueLength, FromEventTable) {
  db::Database db;
  auto& t = db.create_table("ev_x", {{"ua_usec", db::DataType::kInt},
                                     {"ud_usec", db::DataType::kInt}});
  // Three overlapping visits.
  t.insert({db::Value{msec(10)}, db::Value{msec(40)}});
  t.insert({db::Value{msec(20)}, db::Value{msec(30)}});
  t.insert({db::Value{msec(25)}, db::Value{msec(50)}});
  const auto q = queue_length_db(db, "ev_x", msec(10), 0, msec(60));
  ASSERT_EQ(q.size(), 6u);
  EXPECT_DOUBLE_EQ(q[0].value, 0.0);
  EXPECT_DOUBLE_EQ(q[1].value, 1.0);
  EXPECT_DOUBLE_EQ(q[2].value, 3.0);  // all three overlap in [20,30)
  // Buckets report the *max* level reached inside them: the visit ending
  // exactly at 50 ms still counts as depth 1 entering bucket [50,60).
  EXPECT_DOUBLE_EQ(q[5].value, 1.0);
  EXPECT_DOUBLE_EQ(q[4].value, 2.0);  // visits 1 and 3 both open entering
}

TEST(QueueLength, TruthMatchesDbForSyntheticRecords) {
  auto r = completed_req(1, 0, msec(100));
  auto& rec = r->records[2];
  rec.visits.push_back({msec(10), msec(20), {}});
  rec.visits.push_back({msec(30), msec(60), {}});
  const auto q =
      queue_length_truth({r}, 2, msec(10), 0, msec(70));
  EXPECT_DOUBLE_EQ(q[1].value, 1.0);
  // Max-within-bucket: the visit ending exactly at 20 ms still shows as
  // depth 1 entering bucket [20,30); the bucket after is clean.
  EXPECT_DOUBLE_EQ(q[2].value, 1.0);
  EXPECT_DOUBLE_EQ(q[4].value, 1.0);
  EXPECT_DOUBLE_EQ(q[6].value, 1.0);
}

TEST(Throughput, CountsPerSecond) {
  std::vector<sim::RequestPtr> reqs;
  for (int i = 0; i < 100; ++i) {
    reqs.push_back(completed_req(static_cast<std::uint64_t>(i), 0,
                                 msec(10 * i)));
  }
  const auto tp = throughput(reqs, msec(500));
  ASSERT_EQ(tp.size(), 2u);
  EXPECT_DOUBLE_EQ(tp[0].value, 100.0);  // 50 in 0.5 s -> 100/s
  EXPECT_DOUBLE_EQ(tp[1].value, 100.0);
}

TEST(ResponseStats, MeanAndPercentile) {
  std::vector<sim::RequestPtr> reqs;
  for (int i = 1; i <= 100; ++i) {
    reqs.push_back(completed_req(static_cast<std::uint64_t>(i), 0, msec(i)));
  }
  EXPECT_DOUBLE_EQ(mean_response_ms(reqs), 50.5);
  EXPECT_NEAR(response_percentile_ms(reqs, 99), 99.0, 1.01);
}

TEST(ResourceSeries, MissingTableOrColumnIsEmptyNotFatal) {
  db::Database db;
  EXPECT_TRUE(resource_series(db, "res_collectl_ghost", "cpu_user_pct")
                  .empty());
  db.create_table("res_x", {{"ts_usec", db::DataType::kInt}});
  EXPECT_TRUE(resource_series(db, "res_x", "no_such_column").empty());
}

TEST(ResourceSeries, MatchesStableTimeSortOfScan) {
  // Out-of-order appends, duplicate timestamps, NULL holes in both columns,
  // and small sealed segments: the series must equal a brute-force scan of
  // the rows, stably sorted by time.
  db::Database db;
  auto& t = db.create_table("res_x", {{"ts_usec", db::DataType::kInt},
                                      {"cpu", db::DataType::kDouble}});
  t.set_storage_config({.seal_rows = 16, .partition_usec = 0, .seal = true});
  for (int i = 0; i < 200; ++i) {
    const SimTime ts = msec((i * 37) % 50);  // 50 distinct times, shuffled
    t.insert({i % 13 == 0 ? db::Value{} : db::Value{ts},
              i % 11 == 0 ? db::Value{} : db::Value{static_cast<double>(i)}});
  }
  Series want;
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    const auto ts = db::as_int(t.at(r, 0));
    const auto v = db::as_double(t.at(r, 1));
    if (ts && v) want.push_back({*ts, *v});
  }
  std::stable_sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return a.time < b.time;
  });

  const Series got = resource_series(db, "res_x", "cpu");
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << i;
    EXPECT_EQ(got[i].value, want[i].value) << i;
  }
}

TEST(ResourceSeries, NonNumericOrMissingTimeColumnIsEmpty) {
  db::Database db;
  auto& text = db.create_table("res_text", {{"ts_usec", db::DataType::kText},
                                            {"cpu", db::DataType::kDouble}});
  text.insert({db::Value{std::string("noon")}, db::Value{1.0}});
  EXPECT_TRUE(resource_series(db, "res_text", "cpu").empty());
  auto& no_ts = db.create_table("res_no_ts", {{"cpu", db::DataType::kDouble}});
  no_ts.insert({db::Value{1.0}});
  EXPECT_TRUE(resource_series(db, "res_no_ts", "cpu").empty());
}

TEST(InteractionBreakdown, GroupsByServletPath) {
  db::Database db;
  auto& t = db.create_table("ev_apache_web1",
                            {{"url", db::DataType::kText},
                             {"duration_usec", db::DataType::kInt}});
  // 20 fast ViewStory (with ID query params), 10 fast Search, 1 VLRT
  // ViewStory.
  for (int i = 0; i < 20; ++i) {
    t.insert({db::Value{std::string("/rubbos/ViewStory?ID=00000000000") +
                        std::to_string(i % 10)},
              db::Value{msec(5)}});
  }
  for (int i = 0; i < 10; ++i) {
    t.insert({db::Value{std::string("/rubbos/Search")}, db::Value{msec(4)}});
  }
  t.insert({db::Value{std::string("/rubbos/ViewStory?ID=00000000FFFF")},
            db::Value{msec(500)}});

  const auto stats = interaction_breakdown(db, "ev_apache_web1", 10.0);
  ASSERT_EQ(stats.size(), 2u);  // query strings stripped -> two paths
  EXPECT_EQ(stats[0].path, "/rubbos/ViewStory");
  EXPECT_EQ(stats[0].count, 21u);
  EXPECT_EQ(stats[0].vlrt_count, 1u);
  EXPECT_DOUBLE_EQ(stats[0].max_rt_ms, 500.0);
  EXPECT_EQ(stats[1].path, "/rubbos/Search");
  EXPECT_EQ(stats[1].vlrt_count, 0u);
}

TEST(InteractionBreakdown, MissingTableIsEmpty) {
  db::Database db;
  EXPECT_TRUE(interaction_breakdown(db, "nope").empty());
}

TEST(FindVlrt, FactorAboveAverage) {
  std::vector<sim::RequestPtr> reqs;
  for (int i = 0; i < 99; ++i) {
    reqs.push_back(completed_req(static_cast<std::uint64_t>(i), 0, msec(10)));
  }
  reqs.push_back(completed_req(999, 0, msec(500)));
  const auto vlrt = find_vlrt(reqs, 10.0);
  ASSERT_EQ(vlrt.size(), 1u);
  EXPECT_EQ(vlrt[0].id, 999u);
  EXPECT_DOUBLE_EQ(vlrt[0].rt_ms, 500.0);
}

TEST(FindVsbWindows, MergesNearbyBuckets) {
  PitSeries pit;
  pit.bucket = msec(50);
  pit.overall_avg_ms = 5.0;
  pit.overall_p50_ms = 5.0;
  // Two hot buckets separated by one cool bucket, then a distant one.
  pit.max_rt_ms = {{0, 100.0},
                   {msec(50), 4.0},
                   {msec(100), 120.0},
                   {msec(500), 90.0}};
  const auto windows = find_vsb_windows(pit, 10.0, msec(100));
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].begin, 0);
  EXPECT_EQ(windows[0].end, msec(150));
  EXPECT_DOUBLE_EQ(windows[0].peak_rt_ms, 120.0);
  EXPECT_EQ(windows[1].begin, msec(500));
}

TEST(FindVsbWindows, EmptyWhenBaselineZero) {
  PitSeries pit;
  pit.bucket = msec(50);
  EXPECT_TRUE(find_vsb_windows(pit, 10.0, 0).empty());
}

TEST(DetectPushback, ContiguousChainFromFront) {
  // Tiers 0..3; only 0 and 1 grow (tier 3 spikes for one bucket = flood).
  std::vector<util::Series> queues(4);
  for (int b = 0; b < 20; ++b) {
    const SimTime t = msec(50 * b);
    queues[0].push_back({t, b < 10 ? 2.0 + 8.0 * b : 2.0});
    queues[1].push_back({t, b < 10 ? 2.0 + 6.0 * b : 2.0});
    queues[2].push_back({t, 2.0});
    queues[3].push_back({t, b == 9 ? 60.0 : 2.0});
  }
  const VsbWindow w{0, msec(500), 100.0};
  const auto report = detect_pushback(queues, w);
  ASSERT_EQ(report.growing_tiers.size(), 2u);
  EXPECT_EQ(report.deepest_growing, 1);
  EXPECT_TRUE(report.cross_tier);
}

TEST(DetectPushback, SingleTierIsNotCrossTier) {
  std::vector<util::Series> queues(4);
  for (int b = 0; b < 20; ++b) {
    const SimTime t = msec(50 * b);
    queues[0].push_back({t, b < 10 ? 3.0 + 10.0 * b : 3.0});
    for (int tier = 1; tier < 4; ++tier) queues[static_cast<std::size_t>(tier)].push_back({t, 2.0});
  }
  const auto report = detect_pushback(queues, {0, msec(500), 100.0});
  EXPECT_EQ(report.deepest_growing, 0);
  EXPECT_FALSE(report.cross_tier);
}

TEST(DetectPushback, NoGrowthAnywhere) {
  std::vector<util::Series> queues(4);
  for (int b = 0; b < 20; ++b) {
    for (auto& q : queues) q.push_back({msec(50 * b), 2.0});
  }
  const auto report = detect_pushback(queues, {0, msec(500), 100.0});
  EXPECT_EQ(report.deepest_growing, -1);
  EXPECT_TRUE(report.growing_tiers.empty());
}

}  // namespace
}  // namespace mscope::core
