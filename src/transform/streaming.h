#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "db/database.h"
#include "transform/declaration.h"
#include "transform/parse_path.h"
#include "transform/transform_config.h"

namespace mscope::obs {
class Tracer;
}

namespace mscope::transform {

namespace fastparse {
class ParsePool;
}

/// Incremental counterpart of DataTransformer: ingests raw log *bytes* as
/// they arrive from the collector and keeps mScopeDB continuously loaded,
/// instead of transforming complete files after the run.
///
/// The trick that makes this exact rather than approximate: every built-in
/// mScopeParser is *prefix-stable* — parsing the first k lines of a file
/// yields the first rows of parsing the whole file (headers only affect
/// subsequent lines). So each parse pass covers the accumulated
/// complete-line prefix of a file and appends only the rows beyond what the
/// table already holds. On the fast path (transform/fastparse/, the
/// default) a per-file FileCursor makes the parse resumable: a pass scans
/// only the complete lines that arrived since the previous pass, so every
/// streamed byte is parsed once (plus one re-parse of the prefix on the
/// rare inexact schema change, below). The reference path
/// (TransformConfig::use_reference_parser, and sar_xml, which has no fast
/// parser) re-parses the whole prefix each pass. Pass points follow a
/// geometric growth schedule, and parse_all() adds passes on the caller's
/// clock; the schedule decides only when rows become visible, not how much
/// parse work the fast path does.
///
/// The fast path reads each channel's accumulated buffer in place with no
/// XML materialization. With Config::transform.parse_workers > 1,
/// parse_all() and finalize() fan the per-file parse passes out across a
/// worker pool (batch-granular work stealing); table reconciliation always
/// happens on the calling thread in sorted (node, file) order, so the
/// warehouse is byte-identical at any worker count.
///
/// Schema widening on the fly: the XMLtoCSV "best match" type of a column
/// can widen as data arrives (Int -> Double -> Text), and new columns can
/// appear. When the inferred schema of the prefix differs from the live
/// table's, the table widens in place when that is exact; otherwise (e.g.
/// "042" re-typed Int -> Text) it is dropped and rebuilt at the new schema
/// from one re-parse of the prefix — either way earlier rows are re-typed,
/// so the final table is identical to a batch import.
///
/// finalize() parses each file's full content (including a trailing line
/// with no newline), appends the tail rows, and records ms_load_catalog /
/// ms_monitor_deployment entries in the same order and with the same
/// time-range computation as the batch pipeline — byte-for-byte parity is
/// asserted by tests/collector_test.cpp.
class StreamingTransformer {
 public:
  struct Config {
    /// Bytes a file must reach before its first scheduled parse pass.
    std::size_t min_parse_bytes = 2048;
    /// Geometric pass schedule: the next pass is due once the file has
    /// grown by this factor. It batches visibility (when rows reach the
    /// table); on the fast path each byte is parsed once whatever the
    /// schedule.
    double growth_factor = 1.5;
    TransformConfig transform;  ///< parse path + worker pool
  };

  struct Stats {
    std::uint64_t bytes = 0;            ///< raw bytes ingested
    std::uint64_t chunks = 0;           ///< ingest() calls
    std::uint64_t parse_passes = 0;     ///< incremental prefix parses
    std::uint64_t parse_deferrals = 0;  ///< parses retried later (e.g. a
                                        ///< mid-document XML prefix)
    std::uint64_t parse_bytes = 0;      ///< bytes handed to a parser (incl.
                                        ///< deferred and rebuild passes)
    std::uint64_t rows_live = 0;        ///< rows currently in dynamic tables
    std::uint64_t rows_inserted = 0;    ///< inserts incl. rebuild re-inserts
    std::uint64_t schema_rebuilds = 0;  ///< schema-change events (in-place
                                        ///< widen or drop+rebuild)
    std::uint64_t inplace_widens = 0;   ///< subset applied without a rebuild
    std::uint64_t files = 0;            ///< distinct (node, file) seen
    std::uint64_t unmatched_files = 0;  ///< no declaration: bytes discarded
    std::uint64_t gaps = 0;             ///< stream holes reported (note_gap)
    std::uint64_t gap_bytes = 0;        ///< log bytes lost in those holes
    std::uint64_t rejected_lines = 0;   ///< malformed lines that matched no
                                        ///< instruction (fast path counts
                                        ///< them precisely)
  };

  /// Fires once per row the moment it becomes visible in a dynamic table
  /// mid-run (rebuild re-inserts do not re-fire). Cells are the stage-3
  /// string form; `schema` gives column names/types.
  using RowObserver = std::function<void(
      const std::string& table, const db::Schema& schema,
      const std::vector<std::string>& row)>;

  StreamingTransformer(db::Database& db, Config cfg);
  explicit StreamingTransformer(db::Database& db)
      : StreamingTransformer(db, Config{}) {}
  ~StreamingTransformer();

  /// The declaration registry used for stage-1 matching (add custom formats
  /// before the first ingest).
  [[nodiscard]] DeclarationRegistry& declarations() { return registry_; }

  void set_row_observer(RowObserver obs) { observer_ = std::move(obs); }

  /// Optional span tracer for per-file parse spans (single-threaded — spans
  /// are recorded only from the serial reconcile stage).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Appends raw bytes of `file` on `node` (in offset order — the collector
  /// guarantees this) and re-parses if the growth schedule says so.
  void ingest(const std::string& node, const std::string& file,
              std::string_view data);

  /// Move overload: when `file`'s accumulation buffer is empty, the shipped
  /// batch buffer is adopted wholesale instead of copied — the zero-copy
  /// handoff from the collector (the buffer then IS the parse subject).
  void ingest(const std::string& node, const std::string& file,
              std::string&& data);

  /// Disambiguates string literals onto the view overload (a literal could
  /// otherwise convert to either std::string_view or std::string&&).
  void ingest(const std::string& node, const std::string& file,
              const char* data) {
    ingest(node, file, std::string_view(data));
  }

  /// Reports a hole in `file`'s byte stream (the collector abandoned a
  /// batch after exhausting retries): `bytes` log bytes between what was
  /// ingested so far and the next ingest are gone. The current partial line
  /// is terminated so the bytes on either side of the hole can never splice
  /// into one plausible-but-wrong row, and the loss is counted in stats()
  /// and warnings() instead of being silently misparsed.
  void note_gap(const std::string& node, const std::string& file,
                std::uint64_t bytes);

  /// One human-readable line per data-loss event (see note_gap).
  [[nodiscard]] const std::vector<std::string>& warnings() const {
    return warnings_;
  }

  /// Forces an incremental parse of every file regardless of the growth
  /// schedule (bounds signal staleness for online consumers) — except a
  /// file whose last parse deferred, which is retried only once the growth
  /// schedule is due or at finalize(). Fans out across the parse pool when
  /// Config::transform.parse_workers != 1.
  void parse_all();

  /// End of stream: parses full contents, loads the tails, and records
  /// load-catalog + deployment metadata exactly like the batch pipeline.
  void finalize();

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct FileState {
    const Declaration* decl = nullptr;  ///< nullptr: no declaration matched
    std::string content;                ///< full byte stream so far
    std::size_t parsed_bytes = 0;       ///< prefix covered by the last parse
    std::size_t next_parse_at = 0;      ///< growth-schedule trigger
    std::size_t rows_in_table = 0;
    std::size_t rows_notified = 0;
    std::uint64_t rejected = 0;  ///< rejected lines in the parsed prefix
    bool deferred = false;       ///< the last parse pass threw
    FileCursor cursor;           ///< resumable parse of `content`
    db::Schema schema;
    std::string table;
  };

  /// One scheduled parse pass: the pure parse stage (run_parse) may execute
  /// on a pool worker; reconcile_parse always runs on the calling thread.
  struct ParseTask {
    const std::string* node = nullptr;
    const std::string* file = nullptr;
    FileState* st = nullptr;
    std::size_t prefix = 0;
    bool final_pass = false;
    bool scheduled = false;  ///< false: nothing to parse this pass
    ParseResult result;
    std::size_t parse_bytes = 0;  ///< bytes handed to the parser
    bool deferred = false;        ///< parse threw; retry on a later pass
  };

  /// Growth-schedule bookkeeping + prefix computation. Returns a task with
  /// scheduled=false when there is nothing new to parse.
  ParseTask prepare_parse(const std::string& node, const std::string& file,
                          FileState& st, bool final_pass);
  /// The pure parse stage — thread-safe, touches only the task, its file's
  /// cursor and the (internally locked) parser cache.
  void run_parse(ParseTask& t) const;
  void count_parse_bytes(std::size_t bytes);
  /// Serial stage: counters, schema reconciliation, row inserts, observer.
  bool reconcile_parse(ParseTask& t);
  /// prepare + run + reconcile inline (the ingest-triggered path).
  bool parse_into_table(const std::string& node, const std::string& file,
                        FileState& st, bool final_pass);
  /// Runs every scheduled task, on the pool when configured.
  void run_tasks(std::vector<ParseTask>& tasks);

  FileState& file_state(const std::string& node, const std::string& file);

  db::Database& db_;
  DeclarationRegistry registry_;
  Config cfg_;
  RowObserver observer_;
  obs::Tracer* tracer_ = nullptr;
  mutable ParserCache parser_cache_;
  std::unique_ptr<fastparse::ParsePool> pool_;
  // node -> file -> state; both levels sorted so finalize() walks files in
  // the same order as DataTransformer::run.
  std::map<std::string, std::map<std::string, FileState>> nodes_;
  Stats stats_;
  std::vector<std::string> warnings_;
};

}  // namespace mscope::transform
