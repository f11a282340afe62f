// CSV key-trace adapter for lsc/MSR-style `timestamp,key,size` traces.
//
// Real storage and CDN traces identify objects by opaque keys, not dense
// page ids, and carry no block structure. The adapter makes them
// block-aware-cache instances in two passes:
//
//   pass 1 (build_csv_mapping): scan the file, assign each distinct key a
//     dense page id in first-appearance order, and infer a block
//     structure by key grouping:
//       - when every key parses as an unsigned integer (MSR offsets,
//         LBAs), pages whose keys fall in the same aligned span of
//         `block_pages` consecutive values share a block — extent-style
//         grouping, so spatially adjacent addresses batch together;
//       - otherwise consecutive first-seen keys are grouped
//         `block_pages` at a time (arrival-locality grouping).
//     Block costs are uniform (1.0), or proportional to the block's mean
//     observed object size when `cost_from_size` is set.
//
//   pass 2 (CsvSource): re-stream the file, translating keys through the
//     mapping. Memory is O(#distinct keys) — independent of trace length.
//
// Both passes read rows through one CsvReader: 64 KiB chunks, rows and
// fields split with memchr, and only the columns a pass uses looked at.
// The timestamp is validated (it tells data rows from headers and
// comments) but never converted; the size is converted only under
// `cost_from_size`, and validated otherwise only in strict mode, where
// a malformed one throws.
//
// Row format: delimiter-separated, `timestamp,key,size` by default
// (column indices configurable). Rows whose timestamp column does not
// parse as a number are skipped (headers, comments); the size column is
// optional.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/request_source.hpp"
#include "util/flat_hash.hpp"

namespace bac {

struct CsvOptions {
  char delimiter = ',';
  int time_col = 0;
  int key_col = 1;
  int size_col = 2;        ///< -1: no size column
  int block_pages = 8;     ///< pages grouped per block (span for numeric keys)
  int k = 0;               ///< cache size of the produced instances; must be set
  bool cost_from_size = false;  ///< block cost = mean object size / page size
  double page_bytes = 4096.0;   ///< size unit when cost_from_size
  /// When true, data rows with a malformed size field or an empty key
  /// raise std::runtime_error naming the 1-based line number, instead of
  /// silently coercing the size to 1.0 / skipping the row. Rows whose
  /// timestamp column is non-numeric are still skipped (headers,
  /// comments). Timestamps and sizes must be finite plain decimals in
  /// either mode: inf/nan/hex-float forms are rejected.
  bool strict = false;
};

/// The key -> page translation plus the inferred block structure. The
/// interner is an open-addressing FlatMap probed with string_views, so
/// pass 2 translates each row with one hash and no temporary strings.
struct CsvMapping {
  BlockMap blocks;
  int k = 0;
  FlatMap<std::string, PageId> key_to_page;
  long long rows = 0;      ///< data rows seen in pass 1
  bool numeric_keys = false;

  [[nodiscard]] Instance header() const { return Instance{blocks, {}, k}; }
};

/// True when `field`, trimmed of spaces and tabs, is a finite plain
/// decimal or scientific number that strtod reads whole without ERANGE
/// (inf, nan and hex floats are rejected); the value goes to `value`
/// when it is non-null. Without `value`, a plain [+-]?(d+(.d*)?|.d+)
/// field of at most 40 characters is decided by a scan (no such field
/// can overflow or underflow); every other field goes through strtod.
bool csv_numeric(std::string_view field, double* value = nullptr);

/// The data-row reader both passes share. Lines are split as
/// std::getline splits them (a last line without '\n' counts, an empty
/// tail does not) and counted from 1 for strict-mode diagnostics. The
/// file is read in 64 KiB chunks; a line longer than the buffer grows
/// it.
class CsvReader {
 public:
  /// Throws std::runtime_error when the file cannot be opened.
  CsvReader(const std::string& path, const CsvOptions& options);

  enum class Next { Row, Refill, End };

  /// Next data row from the buffered bytes: Row with `key` viewing it,
  /// Refill when the buffer holds no further complete line (call
  /// refill(), which invalidates every view, then ask again), or End.
  /// With `size` non-null the size column is converted into it (1.0
  /// when missing or, lax, malformed); otherwise it is read only in
  /// strict mode, to reject a malformed one. Throws std::runtime_error
  /// on a strict-mode error.
  Next next_buffered(std::string_view& key, double* size = nullptr);
  /// Move the unread tail to the front and read the next chunk. Throws
  /// std::runtime_error on a read error.
  void refill();
  /// next_buffered() with the refills done: false at end of file. The
  /// view is valid until the next call.
  bool next(std::string_view& key, double* size = nullptr);
  /// Back to the first line. Throws std::runtime_error on failure.
  void rewind();

 private:
  bool take_line(std::string_view& line);
  bool parse(std::string_view line, std::string_view& key, double* size);

  std::string path_;
  char delimiter_;
  int time_col_, key_col_, size_col_;
  int row_cols_;  ///< max(time_col, key_col): a data row reaches it
  bool strict_;
  std::ifstream in_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  ///< first unread byte
  std::size_t end_ = 0;  ///< end of the bytes read
  bool eof_ = false;     ///< the file has no bytes past end_
  long long line_no_ = 0;
};

/// Pass 1. Throws std::runtime_error on unreadable files or traces with
/// no data rows, std::invalid_argument on bad options.
CsvMapping build_csv_mapping(const std::string& path,
                             const CsvOptions& options);

/// Pass 2: streaming source. Multiple sources can share one mapping
/// (read-only) across threads.
class CsvSource final : public RequestSource {
 public:
  CsvSource(const std::string& path, std::shared_ptr<const CsvMapping> map,
            CsvOptions options);

  [[nodiscard]] const Instance& context() const override { return header_; }
  [[nodiscard]] long long horizon_hint() const override {
    return map_->rows;
  }
  bool next(PageId& p) override;
  /// Batched decode: one virtual call per 512 requests instead of one
  /// per request, software-pipelined — row r+1 is split and its probe
  /// group prefetched while row r's page id resolves (see csv.cpp).
  int next_batch(PageId* out, int cap) override;
  void rewind() override;

 private:
  PageId translate(std::uint64_t hash, std::string_view key) const;

  std::string path_;
  std::shared_ptr<const CsvMapping> map_;
  CsvReader reader_;
  Instance header_;
  /// Row r's key when the buffer is refilled before row r+1 is found
  /// (once per 64 KiB chunk); reserved, so short keys never allocate.
  std::string held_key_;
};

}  // namespace bac
