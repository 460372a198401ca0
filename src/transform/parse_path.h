#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>

#include "transform/fastparse/fast_parser.h"
#include "transform/parsers.h"
#include "transform/transform_config.h"
#include "transform/xml_to_csv.h"

namespace mscope::transform {

/// Result of running one log file's bytes through the parse stage.
struct ParseResult {
  /// The rows not returned by an earlier call on the same cursor, under the
  /// cumulative schema of the whole parsed prefix.
  Conversion conv;
  std::size_t first_row = 0;    ///< file-wide index of conv.rows[0]
  fastparse::ParseStats stats;  ///< whole prefix; precise on the fast path,
                                ///< zero otherwise
  bool fast = false;            ///< which path produced `conv`
};

/// Thread-safe cache of compiled fast parsers, keyed by declaration
/// identity. Declarations must be registered before parsing begins (the
/// existing contract — FileState holds Declaration pointers too).
class ParserCache {
 public:
  /// Compiled parser for `decl`, or nullptr when it has no fast path.
  std::shared_ptr<const fastparse::FastParser> get(const Declaration& decl);

 private:
  std::mutex mu_;
  std::map<const Declaration*, std::shared_ptr<const fastparse::FastParser>>
      by_decl_;
};

/// Resumable parse of one growing file. Each advance() returns the rows of
/// the prefix `[0, end)` past those an earlier call returned, together with
/// the prefix's cumulative schema — exactly the schema and row suffix of a
/// whole-prefix parse.
///
/// On the fast path (chosen at the first advance, as parse_to_conversion
/// chooses) only the bytes past the previous `end` are scanned: the
/// fastparse::ParseCursor carries what later lines depend on. The reference
/// path (use_reference_parser, or a format without a fast parser such as
/// sar_xml) has no resumable state and re-parses `[0, end)`, dropping the
/// rows it already returned. Every mid-stream `end` must sit at a line
/// boundary. If advance() throws, reset() before the next call.
class FileCursor {
 public:
  [[nodiscard]] ParseResult advance(std::string_view content, std::size_t end,
                                    const ParseContext& ctx,
                                    const TransformConfig& cfg,
                                    ParserCache& cache);

  /// Starts over at byte 0 of the file.
  void reset() { *this = FileCursor(); }

  /// Offset the next advance() starts scanning at: where the previous one
  /// ended on the fast path, 0 on the reference path.
  [[nodiscard]] std::size_t scan_from() const {
    return fast_ ? consumed_ : 0;
  }

 private:
  bool started_ = false;
  std::shared_ptr<const fastparse::FastParser> fp_;
  std::optional<fastparse::ParseCursor> fast_;
  std::size_t consumed_ = 0;  ///< `end` of the last advance()
  std::size_t rows_ = 0;      ///< rows returned so far (reference path)
};

/// Parses `content` into a Conversion via the fast byte-scanning path when
/// the declaration supports it (and `cfg` allows it), else via the
/// reference regex parser + XmlToCsvConverter: one advance() of a fresh
/// FileCursor over the whole content. The two paths produce cell-for-cell
/// identical Conversions — flipping TransformConfig::use_reference_parser
/// changes throughput, not results.
[[nodiscard]] ParseResult parse_to_conversion(std::string_view content,
                                              const ParseContext& ctx,
                                              const TransformConfig& cfg,
                                              ParserCache& cache);

}  // namespace mscope::transform
