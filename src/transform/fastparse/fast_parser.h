#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <string_view>
#include <vector>

#include "transform/declaration.h"
#include "transform/fastparse/builder.h"
#include "transform/fastparse/pattern.h"
#include "transform/xml_to_csv.h"

namespace mscope::transform {
struct ParseContext;
}

namespace mscope::transform::fastparse {

/// Per-parse tallies. `rejected` counts candidate lines that survived the
/// format's structural skip rules (banner/comment/blank) but produced no
/// entry — the lines the reference parsers used to drop silently.
struct ParseStats {
  std::uint64_t lines = 0;
  std::uint64_t rejected = 0;
};

class FastParser;

/// Resumable parse state of one file: everything a parse of the bytes seen
/// so far has built that the next line may depend on. That is the
/// ConversionBuilder column table (first-appearance order, best-match
/// types), the absolute line index (for skip_lines and row_lines), the
/// cumulative ParseStats, and each format's running context (the sar_text /
/// collectl-csv header, the iostat timestamp, the tomcat dsN/drN column
/// ids). Feeding a file in line-aligned pieces therefore yields exactly the
/// rows and schema of one parse of the concatenation.
///
/// Created by FastParser::cursor() and advanced only by the FastParser that
/// created it. Not thread-safe; one cursor per file.
class ParseCursor {
 public:
  /// Tallies over every byte fed so far.
  [[nodiscard]] const ParseStats& stats() const { return stats_; }

  /// Rows handed out by FastParser::take() so far.
  [[nodiscard]] std::size_t rows_taken() const { return rows_taken_; }

  /// Lazily-resolved column ids for one field slot: one id for the
  /// time-normalized name, one for the raw name. Resolving at first
  /// emission (not at compile) preserves the reference's first-appearance
  /// column order.
  struct SlotIds {
    static constexpr ConversionBuilder::ColId kNone = 0xFFFFFFFFu;
    ConversionBuilder::ColId time_id = kNone;
    ConversionBuilder::ColId raw_id = kNone;
  };
  /// One column of a header-driven or fixed-column format (sar_text,
  /// collectl, iostat).
  struct HeaderCol {
    std::string name;
    bool is_time = false;
    SlotIds ids;
  };

 private:
  friend class FastParser;

  ParseCursor() = default;

  ConversionBuilder builder_;
  std::size_t line_ = 0;  ///< absolute index of the next line to feed
  std::size_t rows_taken_ = 0;
  ParseStats stats_;
  /// token_lines / tomcat: per (instruction, field) column ids.
  std::vector<std::vector<SlotIds>> slots_;
  /// tomcat: dsN/drN column ids keyed by the call index digits.
  std::map<std::string,
           std::pair<ConversionBuilder::ColId, ConversionBuilder::ColId>,
           std::less<>>
      call_ids_;
  /// sar_text / collectl: the header in force (fixed for collectl_plain);
  /// iostat: ts_usec followed by the six device columns.
  std::vector<HeaderCol> header_;
  /// iostat: time of the last timestamp line (-1: none yet).
  std::int64_t current_ts_ = -1;
};

/// A specialized byte-scanning parser compiled from one Declaration —
/// stage 2 of the transformer with the XML materialization and std::regex
/// removed from the hot path.
///
/// compile() translates each TokenInstruction's regex into a
/// CompiledPattern (pattern.h); instructions outside the supported regex
/// subset keep a std::regex fallback, matched over the raw byte range (no
/// per-line std::string copies either way). The structured formats
/// (sar_text, iostat, collectl) become hand-rolled scanners that mirror the
/// reference implementations line for line. Every format is resumable:
/// feed() scans only the bytes it is handed and carries what later lines
/// depend on in a ParseCursor, so a growing file costs each byte once.
/// parse() is one cursor, one feed, one take, and is required — and
/// tested — to produce a Conversion cell-for-cell identical to the
/// reference parser + XmlToCsvConverter on the same bytes.
///
/// Instances are immutable after compile() and safe to share across
/// threads; all mutable state lives in the caller's ParseCursor.
class FastParser {
 public:
  /// Compiles a fast parser for `decl`. Returns nullptr when the
  /// declaration's parser has no fast path (sar_xml, unknown parser ids,
  /// declarations the byte-scanners cannot honor) — the caller then keeps
  /// the reference path. All needed declaration state is copied; the
  /// registry may grow/reallocate afterwards.
  [[nodiscard]] static std::shared_ptr<const FastParser> compile(
      const Declaration& decl);

  /// Parses `content` (read in place, never copied) into a Conversion:
  /// a fresh cursor, one feed, one take. Adds the tallies to `stats`.
  [[nodiscard]] Conversion parse(std::string_view content,
                                 const ParseContext& ctx,
                                 ParseStats& stats) const;

  /// A cursor positioned at the start of a file.
  [[nodiscard]] ParseCursor cursor() const;

  /// Scans the next `bytes` of the cursor's file (read in place). `bytes`
  /// starts where the previous feed ended and must end at a line boundary
  /// ('\n') unless it is the file's last piece.
  void feed(ParseCursor& cur, std::string_view bytes) const;

  /// The rows fed since the previous take, under the cumulative schema of
  /// everything fed so far; row_lines stay absolute.
  [[nodiscard]] Conversion take(ParseCursor& cur,
                                const ParseContext& ctx) const;

 private:
  enum class Kind : std::uint8_t {
    kTokenLines,
    kTomcat,
    kSarText,
    kIostat,
    kCollectlCsv,
    kCollectlPlain,
  };

  /// One declared output field of a token instruction.
  struct FieldSpec {
    std::string name;
    TimeEncoding enc = TimeEncoding::kNone;  ///< kNone = not a timestamp
    std::string time_name;                   ///< "<name>_usec" form
  };

  /// One compiled TokenInstruction.
  struct InstrSpec {
    std::unique_ptr<CompiledPattern> fast;
    std::unique_ptr<std::regex> fallback;  ///< when `fast` is null
    std::vector<FieldSpec> fields;
    std::size_t emit_count = 0;  ///< min(fields, capture groups)
  };

  FastParser() = default;

  void feed_token_lines(ParseCursor& cur, std::string_view bytes) const;
  void feed_tomcat(ParseCursor& cur, std::string_view bytes) const;
  void feed_sar_text(ParseCursor& cur, std::string_view bytes) const;
  void feed_iostat(ParseCursor& cur, std::string_view bytes) const;
  void feed_collectl(ParseCursor& cur, std::string_view bytes,
                     bool csv) const;

  Kind kind_ = Kind::kTokenLines;
  int skip_lines_ = 0;
  std::string comment_prefix_;
  std::string source_;
  std::vector<InstrSpec> instrs_;
};

}  // namespace mscope::transform::fastparse
