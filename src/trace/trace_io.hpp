// Plain-text serialization of instances, so experiments can be archived
// and replayed outside the benchmark binaries.
//
// Format (line-oriented, '#' comments allowed):
//   blockcache-instance v1
//   n <n_pages> k <k>
//   blocks <n_blocks>
//   block <id> <cost> <page> <page> ...      (one line per block)
//   requests <T>
//   <page> <page> ...                        (whitespace separated)
//
// Malformed input (missing/wrong header, non-numeric tokens, out-of-range
// ids, truncation) throws std::runtime_error with a message naming the
// offending element, after the prefix "text trace" (and, for a file, its
// path). TextTraceSource streams the request section without
// materializing it; load_instance materializes a whole stream.
#pragma once

#include <fstream>
#include <iosfwd>
#include <string>

#include "core/instance.hpp"
#include "core/request_source.hpp"

namespace bac {

/// Stays, though no tool calls it: it writes the format bacsim's text
/// traces (TextTraceSource) are read in.
void save_instance(const Instance& inst, std::ostream& os);
void save_instance(const Instance& inst, const std::string& path);

/// Stays for the tests: it runs TextTraceSource's parser over an
/// in-memory stream, so each malformed-input case needs no file.
Instance load_instance(std::istream& is);

/// Streaming source over a v1 text trace file: the header (block
/// structure, k, request count) is parsed eagerly; requests are decoded
/// token by token, so memory stays independent of the trace length.
class TextTraceSource final : public RequestSource {
 public:
  explicit TextTraceSource(const std::string& path);

  [[nodiscard]] const Instance& context() const override { return header_; }
  [[nodiscard]] long long horizon_hint() const override { return T_; }
  bool next(PageId& p) override;
  /// Batched decode: one virtual call per 512 requests instead of one
  /// per request (the class is final, so the inner next() devirtualizes).
  int next_batch(PageId* out, int cap) override {
    int i = 0;
    while (i < cap && next(out[i])) ++i;
    return i;
  }
  void rewind() override;

 private:
  std::string name_;          ///< "text trace <path>": starts every error
  std::ifstream in_;
  long long T_ = 0;           ///< written by header_'s initializer; keep first
  Instance header_;           ///< blocks + k, empty requests
  std::streampos first_request_;
  long long yielded_ = 0;
};

}  // namespace bac
