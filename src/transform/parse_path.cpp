#include "transform/parse_path.h"

#include <algorithm>
#include <cstddef>

namespace mscope::transform {

std::shared_ptr<const fastparse::FastParser> ParserCache::get(
    const Declaration& decl) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_decl_.find(&decl);
  if (it != by_decl_.end()) return it->second;
  auto fp = fastparse::FastParser::compile(decl);
  by_decl_.emplace(&decl, fp);
  return fp;
}

ParseResult FileCursor::advance(std::string_view content, std::size_t end,
                                const ParseContext& ctx,
                                const TransformConfig& cfg,
                                ParserCache& cache) {
  if (!started_) {
    started_ = true;
    if (!cfg.use_reference_parser) fp_ = cache.get(*ctx.decl);
    if (fp_ != nullptr) fast_.emplace(fp_->cursor());
  }
  ParseResult out;
  if (fast_) {
    fp_->feed(*fast_, content.substr(consumed_, end - consumed_));
    out.first_row = fast_->rows_taken();
    out.conv = fp_->take(*fast_, ctx);
    out.stats = fast_->stats();
    out.fast = true;
  } else {
    const ParserFn parser = ParserRegistry::get(ctx.decl->parser_id);
    out.conv = XmlToCsvConverter::convert(*parser(content.substr(0, end), ctx));
    // Prefix-stable parsers: the first rows_ rows are the ones returned
    // before.
    auto& rows = out.conv.rows;
    const std::size_t seen = std::min(rows_, rows.size());
    rows.erase(rows.begin(),
               rows.begin() + static_cast<std::ptrdiff_t>(seen));
    out.first_row = seen;
    rows_ = std::max(rows_, seen + rows.size());
  }
  consumed_ = end;
  return out;
}

ParseResult parse_to_conversion(std::string_view content,
                                const ParseContext& ctx,
                                const TransformConfig& cfg,
                                ParserCache& cache) {
  return FileCursor().advance(content, content.size(), ctx, cfg, cache);
}

}  // namespace mscope::transform
