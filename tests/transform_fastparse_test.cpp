// Fast-path parser tests: the zero-copy byte-scanning parsers
// (transform/fastparse/) against the reference regex + XML oracle.
//
// The contract under test is strict: for every declared format and any input
// bytes — well-formed, malformed, mutated or truncated — the fast path must
// produce a Conversion cell-for-cell identical to the reference
// mScopeParser + XmlToCsvConverter, and the resulting warehouse must be
// byte-identical at any parse worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <regex>
#include <string>
#include <vector>

#include "db/database.h"
#include "logging/formats.h"
#include "obs/metrics.h"
#include "temp_dir.h"
#include "transform/fastparse/fast_parser.h"
#include "transform/fastparse/pattern.h"
#include "transform/importer.h"
#include "transform/parse_path.h"
#include "transform/parsers.h"
#include "transform/pipeline.h"
#include "transform/streaming.h"
#include "transform/xml_to_csv.h"
#include "util/simtime.h"

namespace mscope {
namespace {

using namespace transform;          // NOLINT
namespace fmt = logging::formats;
using fastparse::CompiledPattern;
using fastparse::FastParser;
using fastparse::ParseStats;
using util::kMsec;
using util::kSec;
using util::SimTime;

// ---------------------------------------------------------------------------
// Fixture log content, one generator per declared format.
// ---------------------------------------------------------------------------

std::string apache_content() {
  std::string s;
  for (int i = 0; i < 20; ++i) {
    fmt::ApacheRecord r;
    r.ua = i * 50 * kMsec;
    r.ud = r.ua + 3 * kMsec + i;
    r.ds = r.ua + 1 * kMsec;
    r.dr = r.ud - 1 * kMsec;
    r.id = 0x100 + static_cast<std::uint64_t>(i);
    r.url = i % 3 == 0 ? "/rubbos/ViewStory" : "/rubbos/Search";
    r.status = i % 7 == 0 ? 500 : 200;
    r.bytes = 1024 + static_cast<std::uint64_t>(i) * 13;
    r.instrumented = i % 4 != 3;  // mix instrumented and baseline lines
    s += fmt::apache_access(r) + "\n";
  }
  // Malformed lines the reference parser silently drops.
  s += "garbage line that matches nothing\n";
  s += "\n";
  s += "10.0.0.9 - -\n";
  return s;
}

std::string tomcat_content() {
  std::string s;
  for (int i = 0; i < 15; ++i) {
    fmt::TomcatRecord r;
    r.ua = i * 40 * kMsec;
    r.ud = r.ua + 5 * kMsec;
    r.id = 0x200 + static_cast<std::uint64_t>(i);
    r.servlet = i % 2 == 0 ? "ViewStory" : "Search";
    for (int c = 0; c < i % 4; ++c) {
      const SimTime ds = r.ua + (c + 1) * kMsec;
      r.calls.emplace_back(ds, ds + 700);
    }
    s += fmt::tomcat_monitor(r) + "\n";
    if (i % 5 == 0) s += fmt::tomcat_baseline(r) + "\n";
  }
  // A head line with a corrupt tail: the call scanner must resume cleanly.
  s += "2017-01-01 00:00:09.000 [mscope] ID=0000000002AB servlet=Search "
       "ua=1483228809000000 ud=1483228809004000 calls=2 ds0=12 dr0= "
       "ds1=1483228809001000 dr1=1483228809001500\n";
  s += "not a tomcat line\n";
  return s;
}

std::string cjdbc_content() {
  std::string s;
  for (int i = 0; i < 15; ++i) {
    fmt::CjdbcRecord r;
    r.ua = i * 30 * kMsec;
    r.ud = r.ua + 2 * kMsec;
    r.ds = r.ua + 500;
    r.dr = r.ud - 500;
    r.id = 0x300 + static_cast<std::uint64_t>(i);
    r.visit = i % 3;
    r.sql = "SELECT * FROM stories WHERE id=" + std::to_string(i);
    r.instrumented = i % 5 != 4;
    s += fmt::cjdbc_log(r) + "\n";
  }
  s += "[bad ts] ID=GARBAGE\n";
  return s;
}

std::string mysql_content() {
  std::string s;
  for (int i = 0; i < 15; ++i) {
    fmt::MysqlRecord r;
    r.ua = i * 20 * kMsec;
    r.ud = r.ua + 1 * kMsec;
    r.id = 0x400 + static_cast<std::uint64_t>(i);
    r.thread_id = 7 + i % 3;
    r.visit = i % 2;
    r.sql = "SELECT * FROM users WHERE id=" + std::to_string(i);
    r.instrumented = i % 6 != 5;
    s += fmt::mysql_general(r) + "\n";
  }
  s += "truncated li\n";
  return s;
}

std::string sar_text_content() {
  std::string s = fmt::sar_text_banner("db1", 8);
  s += fmt::sar_text_cpu_header(0) + "\n";
  for (int i = 0; i < 12; ++i) {
    fmt::CpuRow r;
    r.t = i * 100 * kMsec;
    r.user = 10.0 + i;
    r.system = 5.0 + 0.5 * i;
    r.iowait = 1.0;
    r.idle = 100.0 - r.user - r.system - r.iowait;
    s += fmt::sar_text_cpu_row(r) + "\n";
  }
  // A second header block mid-file (sar restarts emit these).
  s += fmt::sar_text_cpu_header(2 * kSec) + "\n";
  fmt::CpuRow r;
  r.t = 2 * kSec;
  r.user = 50;
  r.system = 10;
  r.iowait = 5;
  r.idle = 35;
  s += fmt::sar_text_cpu_row(r) + "\n";
  s += "short row\n";  // width mismatch: dropped by both paths
  return s;
}

std::string iostat_content() {
  std::string s = fmt::iostat_banner("db1", 8);
  for (int i = 0; i < 10; ++i) {
    fmt::DiskRow r;
    r.t = i * 200 * kMsec;
    r.tps = 100 + i;
    r.read_kbs = 2000 + 10.0 * i;
    r.write_kbs = 500 + 5.0 * i;
    r.util = 40.0 + i;
    r.queue = i % 4;
    s += fmt::iostat_block("sda", r);
  }
  s += "orphan tokens without a timestamp\n";
  return s;
}

std::string collectl_csv_content() {
  std::string s = fmt::collectl_csv_header() + "\n";
  for (int i = 0; i < 12; ++i) {
    fmt::CpuRow c;
    c.t = i * 100 * kMsec;
    c.user = 20 + i;
    c.system = 4;
    c.iowait = 2;
    c.idle = 74 - i;
    fmt::DiskRow d;
    d.t = c.t;
    d.tps = 50;
    d.read_kbs = 100 + i;
    d.write_kbs = 30;
    d.util = 10 + i;
    d.queue = 1;
    fmt::MemRow m;
    m.t = c.t;
    m.dirty_kb = 100 + i;
    m.cached_kb = 2048;
    s += fmt::collectl_csv_row(c, d, m) + "\n";
  }
  s += "1,2,3\n";  // width mismatch
  return s;
}

std::string collectl_plain_content() {
  std::string s = fmt::collectl_plain_header() + "\n";
  for (int i = 0; i < 12; ++i) {
    fmt::CpuRow c;
    c.t = i * 100 * kMsec;
    c.user = 15 + i;
    c.system = 3;
    c.iowait = 1;
    c.idle = 81 - i;
    fmt::DiskRow d;
    d.t = c.t;
    d.tps = 40;
    d.read_kbs = 80 + i;
    d.write_kbs = 20;
    d.util = 5 + i;
    d.queue = 0;
    s += fmt::collectl_plain_row(c, d) + "\n";
  }
  s += "too few\n";
  return s;
}

struct FormatFixture {
  const char* file;
  std::string content;
};

std::vector<FormatFixture> all_fixtures() {
  return {{"apache_access.log", apache_content()},
          {"tomcat_mscope.log", tomcat_content()},
          {"cjdbc_controller.log", cjdbc_content()},
          {"mysql_general.log", mysql_content()},
          {"sar_cpu.log", sar_text_content()},
          {"iostat.log", iostat_content()},
          {"collectl.csv", collectl_csv_content()},
          {"collectl.log", collectl_plain_content()}};
}

// ---------------------------------------------------------------------------
// Parity helpers.
// ---------------------------------------------------------------------------

Conversion reference_parse(std::string_view content, const ParseContext& ctx) {
  const ParserFn parser = ParserRegistry::get(ctx.decl->parser_id);
  return XmlToCsvConverter::convert(*parser(content, ctx));
}

void expect_same_conversion(const Conversion& ref, const Conversion& fast,
                            const std::string& label) {
  EXPECT_EQ(ref.source, fast.source) << label;
  EXPECT_EQ(ref.node, fast.node) << label;
  EXPECT_EQ(ref.file, fast.file) << label;
  ASSERT_EQ(ref.schema.size(), fast.schema.size()) << label;
  for (std::size_t i = 0; i < ref.schema.size(); ++i) {
    EXPECT_EQ(ref.schema[i].name, fast.schema[i].name)
        << label << " column " << i;
    EXPECT_EQ(static_cast<int>(ref.schema[i].type),
              static_cast<int>(fast.schema[i].type))
        << label << " column " << ref.schema[i].name;
  }
  ASSERT_EQ(ref.rows.size(), fast.rows.size()) << label;
  for (std::size_t r = 0; r < ref.rows.size(); ++r) {
    ASSERT_EQ(ref.rows[r], fast.rows[r]) << label << " row " << r;
  }
}

/// Parses `content` on both paths and asserts identical Conversions. The
/// fast path's stats land in `*out` (for rejected-count assertions).
void expect_parity(const std::string& file, std::string_view content,
                   ParseStats* out = nullptr) {
  DeclarationRegistry registry;
  const Declaration* decl = registry.match(file);
  ASSERT_NE(decl, nullptr) << file;
  ParseContext ctx{"web1", file, decl};

  auto fp = FastParser::compile(*decl);
  ASSERT_NE(fp, nullptr) << file << " has no fast parser";
  ParseStats stats;
  const Conversion fast = fp->parse(content, ctx, stats);
  const Conversion ref = reference_parse(content, ctx);
  expect_same_conversion(ref, fast, file);
  if (out != nullptr) *out = stats;
}

void expect_identical_databases(const db::Database& a, const db::Database& b,
                                const std::string& label) {
  ASSERT_EQ(a.table_names(), b.table_names()) << label;
  for (const auto& name : a.table_names()) {
    const db::Table& ta = a.get(name);
    const db::Table& tb = b.get(name);
    ASSERT_EQ(ta.schema(), tb.schema()) << label << ": schema of " << name;
    ASSERT_EQ(ta.row_count(), tb.row_count()) << label << ": rows of " << name;
    for (std::size_t r = 0; r < ta.row_count(); ++r) {
      for (std::size_t c = 0; c < ta.column_count(); ++c) {
        ASSERT_TRUE(ta.at(r, c) == tb.at(r, c))
            << label << ": " << name << " differs at row " << r << " col "
            << ta.schema()[c].name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pattern compiler: behavior against std::regex on the same inputs.
// ---------------------------------------------------------------------------

void expect_pattern_matches_regex(const std::string& pattern,
                                  const std::string& subject) {
  auto cp = CompiledPattern::compile(pattern);
  ASSERT_NE(cp, nullptr) << pattern;
  const std::regex re(pattern);
  std::cmatch m;
  const bool ref = std::regex_match(
      subject.data(), subject.data() + subject.size(), m, re);
  CompiledPattern::Groups groups;
  const bool fast =
      cp->match(subject.data(), subject.data() + subject.size(), groups);
  ASSERT_EQ(ref, fast) << pattern << " on \"" << subject << "\"";
  if (!ref) return;
  ASSERT_EQ(cp->group_count(), m.size() - 1) << pattern;
  for (std::size_t g = 0; g < cp->group_count(); ++g) {
    ASSERT_TRUE(m[g + 1].matched) << pattern << " group " << g + 1;
    EXPECT_EQ(std::string(m[g + 1].first, m[g + 1].second),
              std::string(groups[g].view()))
        << pattern << " group " << g + 1 << " on \"" << subject << "\"";
  }
}

TEST(FastPattern, MatchesRegexOnDeclaredFormats) {
  // Every token regex of every built-in declaration must compile (no silent
  // fallback to std::regex on the hot formats) and agree with std::regex.
  DeclarationRegistry registry;
  for (const auto& d : registry.all()) {
    for (const auto& t : d.tokens) {
      auto cp = CompiledPattern::compile(t.regex);
      ASSERT_NE(cp, nullptr) << d.source << ": " << t.regex;
    }
  }
  fmt::ApacheRecord r;
  r.ua = kSec;
  r.ud = r.ua + 3 * kMsec;
  r.ds = r.ua + kMsec;
  r.dr = r.ud - kMsec;
  r.id = 0xAB;
  r.url = "/rubbos/ViewStory";
  std::string line = fmt::apache_access(r);
  line.pop_back();  // strip '\n' — patterns are per line
  const auto& apache = *registry.match("apache_access.log");
  expect_pattern_matches_regex(apache.tokens[0].regex, line);
  expect_pattern_matches_regex(apache.tokens[1].regex, line);  // must reject
}

TEST(FastPattern, QuantifiersClassesAndBacktracking) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases = {
      // Greedy star + literal tail: the accel path and its backtracking.
      {R"x((.*)" end)x",
       {R"x(abc" end)x", R"x(a"b" end)x", R"x(" end)x", "no tail"}},
      // Greedy class runs that must give back characters.
      {R"((\d+)(\d))", {"1234", "7", ""}},
      {R"((a*)(a?)(a))", {"aaa", "a", "b", ""}},
      // Bounded repeats.
      {R"(([0-9A-F]{12}))", {"0123456789AB", "0123456789ABC", "012"}},
      {R"((\d{2,4})x)", {"12x", "1234x", "12345x", "1x"}},
      // Negated classes and ranges.
      {R"(\[([^\]]+)\] (\S+))", {"[a b] tok", "[] tok", "[x] "}},
      // Nested groups.
      {R"((a(b(c))d))", {"abcd", "abd", "ad"}},
      // Dot excludes newline.
      {"(.+)", {"abc", "a\nb", ""}},
      // Escapes and literal runs.
      {R"((\d+) ua=(\d+))", {"5 ua=6", "5 ua=", " ua=6"}},
      {R"(a\.b(\w+))", {"a.bxy", "axbxy"}},
  };
  for (const auto& [pattern, subjects] : cases) {
    for (const auto& s : subjects) expect_pattern_matches_regex(pattern, s);
  }
}

TEST(FastPattern, UnsupportedConstructsFallBack) {
  // These must return nullptr (the instruction keeps std::regex) rather
  // than compile to something subtly wrong.
  for (const char* p : {"a|b", "(?:ab)c", "(ab)+", "a*?", "a\\bb", "x$y",
                        "a(b|c)d", "(\\d+"}) {
    EXPECT_EQ(CompiledPattern::compile(p), nullptr) << p;
  }
}

TEST(FastPattern, PrefixMatchMirrorsRegexSearchAnchored) {
  const std::string pattern =
      R"(^(\d{4}-\d{2}-\d{2} [0-9:.]+) \[mscope\] ID=([0-9A-F]{12}) servlet=(\S+) ua=(\d+) ud=(\d+) calls=(\d+))";
  auto cp = CompiledPattern::compile(pattern);
  ASSERT_NE(cp, nullptr);
  const std::regex re(pattern);
  const std::vector<std::string> subjects = {
      "2017-01-01 00:00:01.000 [mscope] ID=0000000000AB servlet=S ua=1 ud=2 "
      "calls=2 ds0=3 dr0=4",
      "2017-01-01 00:00:01.000 [mscope] ID=0000000000AB servlet=S ua=1 ud=2 "
      "calls=0",
      "junk 2017-01-01 00:00:01.000 [mscope] ID=0000000000AB servlet=S ua=1 "
      "ud=2 calls=0",
  };
  for (const auto& s : subjects) {
    std::cmatch m;
    const bool ref =
        std::regex_search(s.data(), s.data() + s.size(), m, re);
    CompiledPattern::Groups groups;
    const char* suffix = nullptr;
    const bool fast =
        cp->match_prefix(s.data(), s.data() + s.size(), groups, &suffix);
    ASSERT_EQ(ref, fast) << s;
    if (!ref) continue;
    EXPECT_EQ(m[0].second - s.data(), suffix - s.data()) << s;
    for (std::size_t g = 0; g + 1 < m.size(); ++g) {
      EXPECT_EQ(std::string(m[g + 1].first, m[g + 1].second),
                std::string(groups[g].view()))
          << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: reference oracle parity over every fixture format.
// ---------------------------------------------------------------------------

TEST(FastParseParity, EveryFormatMatchesReferenceOracle) {
  for (const auto& f : all_fixtures()) {
    SCOPED_TRACE(f.file);
    expect_parity(f.file, f.content);
  }
}

TEST(FastParseParity, EdgeContentsMatchReference) {
  const std::vector<std::string> edges = {
      "", "\n", "\n\n\n", "no newline at end", "\r\n",
      std::string(3, '\0') + "\n", "   \n\t\n"};
  for (const auto& f : all_fixtures()) {
    for (const auto& e : edges) {
      SCOPED_TRACE(std::string(f.file) + " with edge content");
      expect_parity(f.file, e);
      // Edge bytes appended after valid content (mid-file corruption).
      expect_parity(f.file, f.content + e);
    }
  }
}

TEST(FastParseParity, SarXmlHasNoFastPathByDesign) {
  DeclarationRegistry registry;
  const Declaration* decl = registry.match("sar_cpu.xml");
  ASSERT_NE(decl, nullptr);
  // XML parsing stays on the reference path; parse_to_conversion must route
  // there rather than failing.
  EXPECT_EQ(FastParser::compile(*decl), nullptr);
  std::string xml = fmt::sar_xml_open("db1", 8);
  fmt::CpuRow r;
  r.t = kSec;
  r.user = 12;
  r.system = 3;
  r.iowait = 1;
  r.idle = 84;
  xml += fmt::sar_xml_cpu_timestamp(r);
  xml += fmt::sar_xml_close();
  ParseContext ctx{"db1", "sar_cpu.xml", decl};
  ParserCache cache;
  const ParseResult res =
      parse_to_conversion(xml, ctx, TransformConfig{}, cache);
  EXPECT_FALSE(res.fast);
  EXPECT_FALSE(res.conv.rows.empty());
}

TEST(FastParseParity, UseReferenceParserFlagForcesOracle) {
  DeclarationRegistry registry;
  const Declaration* decl = registry.match("apache_access.log");
  ParseContext ctx{"web1", "apache_access.log", decl};
  ParserCache cache;
  TransformConfig ref_cfg;
  ref_cfg.use_reference_parser = true;
  const auto content = apache_content();
  const ParseResult ref = parse_to_conversion(content, ctx, ref_cfg, cache);
  const ParseResult fast =
      parse_to_conversion(content, ctx, TransformConfig{}, cache);
  EXPECT_FALSE(ref.fast);
  EXPECT_TRUE(fast.fast);
  expect_same_conversion(ref.conv, fast.conv, "flag parity");
}

// ---------------------------------------------------------------------------
// Satellite: rejected-line accounting.
// ---------------------------------------------------------------------------

TEST(FastParseRejected, CountsMalformedLinesPerFormat) {
  // apache_content() ends with 3 non-matching candidates, but blank lines
  // are structural (the reference XML drops trailing blanks too) — the two
  // non-blank garbage lines must be counted.
  ParseStats apache;
  expect_parity("apache_access.log", apache_content(), &apache);
  EXPECT_EQ(apache.rejected, 2u);
  EXPECT_GT(apache.lines, 20u);

  ParseStats tomcat;
  expect_parity("tomcat_mscope.log", tomcat_content(), &tomcat);
  EXPECT_EQ(tomcat.rejected, 1u);

  ParseStats csv;
  expect_parity("collectl.csv", collectl_csv_content(), &csv);
  EXPECT_EQ(csv.rejected, 1u);  // the "1,2,3" width mismatch
}

TEST(FastParseRejected, StreamingCountsRejectedIntoStatsAndRegistry) {
  obs::Counter& total =
      obs::Registry::global().counter("transform.parse.rejected");
  obs::Counter& apache =
      obs::Registry::global().counter("transform.parse.rejected.apache");
  const std::uint64_t total0 = total.get();
  const std::uint64_t apache0 = apache.get();

  db::Database db;
  StreamingTransformer st(db);
  const std::string content = apache_content();
  // Feed in two chunks so rejected lines are (re)counted across growing
  // prefixes — the delta accounting must not double-count.
  const std::size_t cut = content.size() / 2;
  st.ingest("web1", "apache_access.log", std::string_view(content).substr(0, cut));
  st.parse_all();
  st.ingest("web1", "apache_access.log", std::string_view(content).substr(cut));
  st.finalize();

  EXPECT_EQ(st.stats().rejected_lines, 2u);
  EXPECT_EQ(total.get() - total0, 2u);
  EXPECT_EQ(apache.get() - apache0, 2u);
}

// ---------------------------------------------------------------------------
// Satellite: DataImporter errors carry file:line context.
// ---------------------------------------------------------------------------

TEST(FastParseErrors, ImportErrorPointsAtSourceLine) {
  Conversion c;
  c.source = "apache";
  c.node = "web1";
  c.file = "apache_access.log";
  c.schema = {{"ts_usec", db::DataType::kInt}};
  c.rows = {{"12"}, {"not-a-number"}};
  c.row_lines = {4, 17};  // fast path: 1-based raw-log line per row
  db::Database db;
  try {
    (void)DataImporter::import(db, "ev_apache_web1", c);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("web1/apache_access.log:17"),
              std::string::npos)
        << e.what();
  }
}

TEST(FastParseErrors, ImportErrorWithoutLinesFallsBackToRowIndex) {
  Conversion c;
  c.source = "apache";
  c.node = "web1";
  c.file = "apache_access.log";
  c.schema = {{"ts_usec", db::DataType::kInt}};
  c.rows = {{"boom"}};
  db::Database db;
  try {
    (void)DataImporter::import(db, "t", c);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("web1/apache_access.log row 1"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Satellite: randomized property test — mutate/truncate valid content; the
// fast path must never crash and must agree with the oracle on accept,
// reject and every emitted field. (CI runs this binary under ASan/UBSan and
// TSan, so memory errors in the byte scanners surface here.)
// ---------------------------------------------------------------------------

std::string mutate(const std::string& base, std::mt19937& rng) {
  std::string s = base;
  std::uniform_int_distribution<int> op_dist(0, 4);
  const int ops = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < ops && !s.empty(); ++i) {
    const auto pos = rng() % s.size();
    switch (op_dist(rng)) {
      case 0:  // truncate (also mid-line: streaming sees such prefixes)
        s.resize(pos);
        break;
      case 1:  // flip a byte to an arbitrary value, including '\0' and '\n'
        s[pos] = static_cast<char>(rng() % 256);
        break;
      case 2:  // delete a byte
        s.erase(pos, 1);
        break;
      case 3:  // duplicate a random slice
        s.insert(pos, s.substr(pos, 1 + rng() % 40));
        break;
      case 4:  // inject a burst of random bytes
      default: {
        std::string junk;
        for (std::size_t j = 0; j < 1 + rng() % 16; ++j) {
          junk += static_cast<char>(rng() % 256);
        }
        s.insert(pos, junk);
        break;
      }
    }
  }
  return s;
}

TEST(FastParseProperty, MutatedContentNeverCrashesAndMatchesOracle) {
  std::mt19937 rng(20170101);  // deterministic: failures must reproduce
  DeclarationRegistry registry;
  for (const auto& f : all_fixtures()) {
    const Declaration* decl = registry.match(f.file);
    ASSERT_NE(decl, nullptr);
    auto fp = FastParser::compile(*decl);
    ASSERT_NE(fp, nullptr);
    ParseContext ctx{"web1", f.file, decl};
    for (int iter = 0; iter < 40; ++iter) {
      const std::string mutated = mutate(f.content, rng);
      SCOPED_TRACE(std::string(f.file) + " iteration " +
                   std::to_string(iter));
      ParseStats stats;
      const Conversion fast = fp->parse(mutated, ctx, stats);
      const Conversion ref = reference_parse(mutated, ctx);
      expect_same_conversion(ref, fast, f.file);
    }
  }
}

// ---------------------------------------------------------------------------
// Tentpole: batch pipeline parity and worker-pool determinism. The suite
// name carries "StreamingParity" so CI's TSan job picks up the threaded
// variants.
// ---------------------------------------------------------------------------

class StreamingParityFastpath : public ::testing::Test {
 protected:
  /// Streams every fixture (its content `repeat` times over) into a fresh
  /// warehouse with the given transform config, chunked at awkward
  /// boundaries, with mid-stream parse_all() ticks. Deterministic by
  /// construction.
  static StreamingTransformer::Stats stream_all(db::Database& db,
                                                const TransformConfig& tc,
                                                int repeat = 1) {
    StreamingTransformer::Config cfg;
    cfg.min_parse_bytes = 64;  // force many incremental passes
    cfg.growth_factor = 1.3;
    cfg.transform = tc;
    StreamingTransformer st(db, cfg);
    auto fixtures = all_fixtures();
    for (auto& f : fixtures) {
      const std::string once = f.content;
      for (int r = 1; r < repeat; ++r) f.content += once;
    }
    std::size_t chunk = 7;
    std::vector<std::size_t> off(fixtures.size(), 0);
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < fixtures.size(); ++i) {
        const std::string& c = fixtures[i].content;
        if (off[i] >= c.size()) continue;
        const std::size_t n = std::min(chunk, c.size() - off[i]);
        st.ingest("web1", fixtures[i].file,
                  std::string_view(c).substr(off[i], n));
        off[i] += n;
        chunk = chunk * 2 + 1;  // 7, 15, 31 ... then wrap
        if (chunk > 4096) chunk = 7;
        progress = true;
      }
      st.parse_all();
    }
    st.finalize();
    return st.stats();
  }
};

TEST_F(StreamingParityFastpath, WorkerPoolWarehouseIsByteIdentical) {
  TransformConfig serial;
  TransformConfig pooled;
  pooled.parse_workers = 4;
  TransformConfig reference;
  reference.use_reference_parser = true;

  db::Database db_serial, db_pooled, db_reference;
  stream_all(db_serial, serial);
  stream_all(db_pooled, pooled);
  stream_all(db_reference, reference);

  expect_identical_databases(db_serial, db_pooled, "1 vs 4 workers");
  expect_identical_databases(db_serial, db_reference, "fast vs reference");
  EXPECT_FALSE(db_serial.table_names().empty());
}

TEST_F(StreamingParityFastpath, EachStreamedByteIsParsedOnce) {
  // Many chunks and a parse_all() tick after every round: re-parsing each
  // file's whole prefix per tick would hand the parser many times the
  // ingested bytes. The fast path resumes where the last pass ended; only
  // the drop + rebuild on an inexact schema change (hex request IDs that
  // look like integers until the first letter) re-parses a short prefix.
  obs::Counter& parse_bytes =
      obs::Registry::global().counter("transform.parse_bytes");
  const std::uint64_t before = parse_bytes.get();
  db::Database db;
  const auto stats = stream_all(db, TransformConfig{}, /*repeat=*/40);
  EXPECT_GT(stats.parse_passes, 40 * all_fixtures().size());
  EXPECT_EQ(parse_bytes.get() - before, stats.parse_bytes);
  EXPECT_LE(static_cast<double>(stats.parse_bytes),
            1.05 * static_cast<double>(stats.bytes))
      << stats.parse_bytes << " bytes parsed for " << stats.bytes
      << " ingested";
}

TEST_F(StreamingParityFastpath, BatchTransformerFastPathMatchesReference) {
  namespace fs = std::filesystem;
  const test::TempDir tmp("fastparse_batch");
  const fs::path& run_dir = tmp.path();
  for (const auto& f : all_fixtures()) {
    fs::create_directories(run_dir / "web1");
    std::ofstream(run_dir / "web1" / f.file, std::ios::binary) << f.content;
  }

  DataTransformer::Config fast_cfg;
  fast_cfg.write_intermediates = false;
  DataTransformer::Config ref_cfg;
  ref_cfg.write_intermediates = false;
  ref_cfg.transform.use_reference_parser = true;
  DataTransformer::Config xml_cfg;  // default: full XML/CSV artifact path

  db::Database db_fast, db_ref, db_xml;
  const auto rep_fast = DataTransformer(fast_cfg).run(run_dir, db_fast);
  const auto rep_ref = DataTransformer(ref_cfg).run(run_dir, db_ref);
  const auto rep_xml = DataTransformer(xml_cfg).run(run_dir, db_xml);

  EXPECT_EQ(rep_fast.rows_loaded, rep_ref.rows_loaded);
  EXPECT_EQ(rep_fast.tables_created, rep_ref.tables_created);
  ASSERT_EQ(rep_fast.files.size(), rep_ref.files.size());
  for (std::size_t i = 0; i < rep_fast.files.size(); ++i) {
    EXPECT_EQ(rep_fast.files[i].entries, rep_ref.files[i].entries)
        << rep_fast.files[i].file;
  }
  expect_identical_databases(db_ref, db_fast, "batch fast vs reference");
  expect_identical_databases(db_xml, db_fast, "batch fast vs XML artifacts");
}

// ---------------------------------------------------------------------------
// Resumable parsing. A file fed in pieces — cut at random byte
// offsets, mid-line and right after header or timestamp lines, with parse
// passes in between — must give exactly what one parse of the whole file
// gives: the same cells, schema, rejected lines and absolute row_lines. The
// suite name carries "StreamingParity" so CI's TSan job picks up the pooled
// variant.
// ---------------------------------------------------------------------------

/// One resumable-parse case: a file, its bytes, an optional declaration of
/// its own (else the built-in one for `file`), and an optional byte range
/// lost in transit (reported through note_gap).
struct ResumeCase {
  std::string file;
  std::string content;
  std::optional<Declaration> decl;
  std::size_t gap_begin = 0;
  std::size_t gap_end = 0;  ///< == gap_begin: no gap

  /// The bytes the streamer ends up holding: the gap cut out, and the
  /// partial line before it terminated (the note_gap stub).
  [[nodiscard]] std::string oracle_content() const {
    if (gap_end == gap_begin) return content;
    std::string out = content.substr(0, gap_begin);
    if (!out.empty() && out.back() != '\n') out.push_back('\n');
    return out + content.substr(gap_end);
  }
};

/// A token_lines declaration "a b" for the synthetic cases.
Declaration two_field_decl(const std::string& file, int skip_lines = 0,
                           const std::string& comment_prefix = "") {
  Declaration d;
  d.parser_id = "token_lines";
  d.file_name = file;
  d.source = "synthetic";
  d.table_prefix = "ev_synth";
  d.monitor_name = "synthetic";
  d.skip_lines = skip_lines;
  d.comment_prefix = comment_prefix;
  d.tokens.push_back({R"re(^(\S+) (\S+)$)re", {"a", "b"}});
  return d;
}

std::vector<ResumeCase> resume_cases() {
  std::vector<ResumeCase> cases;
  for (auto& f : all_fixtures()) {
    cases.push_back({f.file, std::move(f.content), std::nullopt, 0, 0});
  }

  // sar_text: the second header names different columns.
  std::string sar = sar_text_content();
  sar += "00:00:03.000     CPU     %usr   %gnice   %sys   %iowait   %idle\n";
  for (int i = 0; i < 6; ++i) {
    sar += "00:00:03." + std::to_string(100 + i) + "     all     " +
           std::to_string(10 + i) + ".00   0.00   3.50   1.25   " +
           std::to_string(80 - i) + ".25\n";
  }
  cases.push_back({"sar_cpu.log", sar, std::nullopt, 0, 0});

  // collectl csv: a new header mid-file with a new column.
  std::string csv = collectl_csv_content();
  csv += "#Date,Time,[CPU]User%,[NET]RxKBTot\n";
  for (int i = 0; i < 6; ++i) {
    csv += "20170101,00:00:05." + std::to_string(100 + i) + "," +
           std::to_string(i) + ".5," + std::to_string(1000 + i) + "\n";
  }
  cases.push_back({"collectl.csv", csv, std::nullopt, 0, 0});

  // tomcat: a call index (ds7/dr7) first appears on the last lines.
  std::string tomcat = tomcat_content();
  for (int i = 0; i < 3; ++i) {
    fmt::TomcatRecord r;
    r.ua = (2 + i) * kSec;
    r.ud = r.ua + 20 * kMsec;
    r.id = 0x900 + static_cast<std::uint64_t>(i);
    r.servlet = "StoriesOfTheDay";
    for (int c = 0; c < 8; ++c) {
      const SimTime ds = r.ua + (c + 1) * kMsec;
      r.calls.emplace_back(ds, ds + 300);
    }
    tomcat += fmt::tomcat_monitor(r) + "\n";
  }
  cases.push_back({"tomcat_mscope.log", tomcat, std::nullopt, 0, 0});

  // skip_lines and comment lines, with a rejected line between them.
  std::string skip = "banner line one\nbanner two\n# comment\n";
  for (int i = 0; i < 30; ++i) {
    skip += "k" + std::to_string(i) + " " + std::to_string(i) + "\n";
    if (i % 7 == 0) skip += "# interleaved comment\nnot two fields here\n";
  }
  cases.push_back({"skip.log", skip, two_field_decl("skip.log", 2, "#"), 0,
                   0});

  // Int -> Double (exact, in place) -> Text (inexact: rebuild).
  std::string widen;
  for (int i = 0; i < 40; ++i) {
    std::string b = std::to_string(i);
    if (i >= 15) b += ".5";
    if (i >= 30) b = "w" + b;
    widen += "r" + std::to_string(i) + " " + b + "\n";
  }
  cases.push_back({"widen.log", widen, two_field_decl("widen.log"), 0, 0});

  // "042" infers as Int 42; the later Text value forces the drop + rebuild
  // path, after which the cell must read "042" again.
  std::string zero;
  for (int i = 0; i < 40; ++i) {
    zero += "z" + std::to_string(i) + " " +
            (i < 30 ? "0" + std::to_string(40 + i) : "text" + std::to_string(i)) +
            "\n";
  }
  cases.push_back({"zero.log", zero, two_field_decl("zero.log"), 0, 0});

  // note_gap: a hole from mid-line to mid-line; each side becomes a stub.
  std::string gap = apache_content();
  const std::size_t g0 = gap.find('\n', gap.size() / 3) - 10;
  const std::size_t g1 = gap.find('\n', gap.size() / 2) - 7;
  cases.push_back({"apache_access.log", gap, std::nullopt, g0, g1});
  return cases;
}

const Declaration* case_decl(const ResumeCase& c,
                             const DeclarationRegistry& registry) {
  return c.decl ? &*c.decl : registry.match(c.file);
}

/// Cut points for one file: random byte offsets (mostly mid-line) on odd
/// seeds, every line end on even seeds (each header and timestamp line then
/// ends its chunk).
std::vector<std::size_t> cut_points(const std::string& content,
                                    std::mt19937& rng, bool line_ends) {
  std::vector<std::size_t> cuts;
  if (line_ends) {
    for (std::size_t i = 0; i < content.size(); ++i) {
      if (content[i] == '\n') cuts.push_back(i + 1);
    }
  } else {
    const std::size_t n = 4 + content.size() / 60;
    for (std::size_t i = 0; i < n; ++i) {
      cuts.push_back(1 + rng() % content.size());
    }
  }
  cuts.push_back(content.size());
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

void expect_table_is_conversion(const db::Table& t, const Conversion& c,
                                const std::string& label) {
  db::Database one_shot;
  (void)DataImporter::import(one_shot, "one_shot", c);
  const db::Table& o = one_shot.get("one_shot");
  ASSERT_EQ(o.schema(), t.schema()) << label;
  ASSERT_EQ(o.row_count(), t.row_count()) << label;
  for (std::size_t r = 0; r < o.row_count(); ++r) {
    for (std::size_t col = 0; col < o.column_count(); ++col) {
      ASSERT_TRUE(o.at(r, col) == t.at(r, col))
          << label << " differs at row " << r << " col "
          << o.schema()[col].name;
    }
  }
}

TEST(StreamingParityResume, CursorRowsAndLinesMatchOneShotParse) {
  // The resumable cursor alone, fed at line-aligned ends exactly as the
  // streamer feeds it: the concatenated rows, their absolute row_lines,
  // the cumulative schema and rejected count equal one parse of the whole.
  DeclarationRegistry registry;
  ParserCache cache;
  TransformConfig reference;
  reference.use_reference_parser = true;
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    std::mt19937 rng(seed);
    // The reference cursor re-parses its prefix per pass, so it runs only
    // on the random cuts, not on one pass per line.
    const bool line_ends = seed % 2 == 0;
    for (const ResumeCase& c : resume_cases()) {
      const std::string content = c.oracle_content();
      const Declaration* decl = case_decl(c, registry);
      ASSERT_NE(decl, nullptr) << c.file;
      const ParseContext ctx{"web1", c.file, decl};
      SCOPED_TRACE(c.file + " seed " + std::to_string(seed));

      ParseStats one_stats;
      const Conversion one =
          FastParser::compile(*decl)->parse(content, ctx, one_stats);
      expect_same_conversion(reference_parse(content, ctx), one, c.file);

      FileCursor fast;
      FileCursor ref;
      Conversion fast_all;
      Conversion ref_all;
      ParseResult last;
      const auto append = [](Conversion& all, ParseResult& r) {
        ASSERT_EQ(r.first_row, all.rows.size());
        all.schema = r.conv.schema;
        for (auto& row : r.conv.rows) all.rows.push_back(std::move(row));
        all.row_lines.insert(all.row_lines.end(), r.conv.row_lines.begin(),
                             r.conv.row_lines.end());
      };
      for (const std::size_t cut : cut_points(content, rng, line_ends)) {
        // Mid-stream ends back up to the last complete line; the final one
        // takes everything.
        std::size_t end = cut;
        if (cut < content.size()) {
          const auto nl = content.rfind('\n', cut - 1);
          end = nl == std::string::npos ? 0 : nl + 1;
        }
        last = fast.advance(content, end, ctx, TransformConfig{}, cache);
        ASSERT_TRUE(last.fast);
        append(fast_all, last);
        if (!line_ends) {
          ParseResult r = ref.advance(content, end, ctx, reference, cache);
          append(ref_all, r);
        }
      }
      for (auto& row : fast_all.rows) row.resize(fast_all.schema.size());
      for (auto& row : ref_all.rows) row.resize(ref_all.schema.size());
      EXPECT_EQ(fast_all.schema, one.schema);
      EXPECT_EQ(fast_all.rows, one.rows);
      EXPECT_EQ(fast_all.row_lines, one.row_lines);
      EXPECT_EQ(last.stats.rejected, one_stats.rejected);
      EXPECT_EQ(last.stats.lines, one_stats.lines);
      if (!line_ends) {
        EXPECT_EQ(ref_all.schema, one.schema);
        EXPECT_EQ(ref_all.rows, one.rows);
      }
    }
  }
}

/// Streams every resume case (each on its own node) into `db`: chunks cut
/// at seeded random offsets, the files interleaved, and a parse_all() tick
/// after each chunk with probability 1/2.
StreamingTransformer::Stats stream_cases(db::Database& db,
                                         const std::vector<ResumeCase>& cases,
                                         std::uint32_t seed,
                                         const TransformConfig& tc) {
  StreamingTransformer::Config cfg;
  cfg.min_parse_bytes = 256;
  cfg.transform = tc;
  StreamingTransformer st(db, cfg);
  for (const ResumeCase& c : cases) {
    if (c.decl) st.declarations().add(*c.decl);
  }
  std::mt19937 rng(seed);
  std::vector<std::vector<std::size_t>> cuts;
  for (const ResumeCase& c : cases) {
    cuts.push_back(cut_points(c.content, rng, seed % 2 == 0));
  }
  std::vector<std::size_t> next(cases.size(), 0);
  std::vector<std::size_t> off(cases.size(), 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const ResumeCase& c = cases[i];
      if (next[i] >= cuts[i].size()) continue;
      progress = true;
      const std::string node = "n" + std::to_string(i);
      std::size_t to = std::max(cuts[i][next[i]++], off[i]);
      if (c.gap_end != c.gap_begin && off[i] <= c.gap_begin &&
          to > c.gap_begin) {
        st.ingest(node, c.file,
                  std::string_view(c.content)
                      .substr(off[i], c.gap_begin - off[i]));
        st.note_gap(node, c.file, c.gap_end - c.gap_begin);
        off[i] = c.gap_end;
        to = std::max(to, off[i]);
      }
      st.ingest(node, c.file,
                std::string_view(c.content).substr(off[i], to - off[i]));
      off[i] = to;
      if (rng() % 2 == 0) st.parse_all();
    }
  }
  st.finalize();
  return st.stats();
}

void expect_resumed_stream_matches_one_shot(unsigned workers) {
  const auto cases = resume_cases();
  DeclarationRegistry registry;
  std::uint64_t one_shot_rejected = 0;
  std::vector<Conversion> one_shot;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Declaration* decl = case_decl(cases[i], registry);
    ASSERT_NE(decl, nullptr) << cases[i].file;
    const ParseContext ctx{"n" + std::to_string(i), cases[i].file, decl};
    const std::string content = cases[i].oracle_content();
    ParseStats stats;
    one_shot.push_back(FastParser::compile(*decl)->parse(content, ctx, stats));
    expect_same_conversion(reference_parse(content, ctx), one_shot.back(),
                           cases[i].file);
    one_shot_rejected += stats.rejected;
  }

  std::uint64_t rebuilds = 0;
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TransformConfig tc;
    tc.parse_workers = workers;
    db::Database db;
    const auto stats = stream_cases(db, cases, seed, tc);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Declaration* decl = case_decl(cases[i], registry);
      const std::string table = decl->table_prefix + "_n" + std::to_string(i);
      ASSERT_TRUE(db.exists(table)) << table;
      expect_table_is_conversion(db.get(table), one_shot[i],
                                 cases[i].file + " as " + table);
    }
    EXPECT_EQ(stats.rejected_lines, one_shot_rejected);
    EXPECT_EQ(stats.gaps, 1u);
    // Each byte once, plus one prefix per drop + rebuild.
    EXPECT_GT(stats.parse_passes, cases.size());
    rebuilds += stats.schema_rebuilds - stats.inplace_widens;
  }
  EXPECT_GT(rebuilds, 0u) << "no seed exercised the drop + rebuild path";
}

TEST(StreamingParityResume, SerialStreamMatchesOneShotAndOracle) {
  expect_resumed_stream_matches_one_shot(1);
}

TEST(StreamingParityResume, PooledStreamMatchesOneShotAndOracle) {
  expect_resumed_stream_matches_one_shot(4);
}

TEST(StreamingDeferral, UnfinishedDocumentIsRetriedOnlyOnSchedule) {
  // A sar XML prefix does not parse until the document closes. parse_all()
  // ticks must not re-try it each time; the growth schedule and finalize()
  // do, and the rows are those of the whole document.
  std::string xml = fmt::sar_xml_open("db1", 8);
  for (int i = 0; i < 200; ++i) {
    fmt::CpuRow r;
    r.t = i * 100 * kMsec;
    r.user = 0.1;
    r.system = 0.05;
    r.iowait = 0.01;
    r.idle = 0.84;
    xml += fmt::sar_xml_cpu_timestamp(r);
  }
  xml += fmt::sar_xml_close();

  db::Database db;
  StreamingTransformer st(db);
  const std::size_t chunk = xml.size() / 100 + 1;
  for (std::size_t off = 0; off < xml.size(); off += chunk) {
    st.ingest("db1", "sar_cpu.xml", std::string_view(xml).substr(off, chunk));
    st.parse_all();
  }
  st.finalize();
  // ~100 ticks; the 1.5x schedule from 2 KiB fires about a dozen times.
  EXPECT_GT(st.stats().parse_deferrals, 0u);
  EXPECT_LT(st.stats().parse_deferrals, 20u);
  EXPECT_EQ(st.stats().parse_passes, 1u);
  ASSERT_TRUE(db.exists("res_sarxml_cpu_db1"));
  EXPECT_EQ(db.get("res_sarxml_cpu_db1").row_count(), 200u);
}

}  // namespace
}  // namespace mscope
