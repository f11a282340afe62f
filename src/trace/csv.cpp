#include "trace/csv.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string_view>

namespace bac {

namespace {

/// Bytes read per refill, as BactSource reads.
constexpr std::size_t kChunkBytes = 64 * 1024;

/// Longest field the plain-decimal scan decides. Up to this length a
/// plain decimal lies in [1e-39, 1e40) or is 0, far inside double's
/// normal range, so strtod can neither overflow nor underflow on it.
constexpr std::size_t kPlainDecimalMax = 40;

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// [+-]?(d+(.d*)?|.d+), exactly the exponent-free forms strtod reads
/// whole in the "C" locale (nothing here changes it), of at most
/// kPlainDecimalMax characters.
bool plain_decimal(std::string_view s) {
  if (s.size() > kPlainDecimalMax) return false;
  std::size_t i = s[0] == '+' || s[0] == '-' ? 1 : 0;
  const std::size_t first = i;
  while (i < s.size() && is_digit(s[i])) ++i;
  std::size_t digits = i - first;
  if (i < s.size() && s[i] == '.') {
    const std::size_t frac = ++i;
    while (i < s.size() && is_digit(s[i])) ++i;
    digits += i - frac;
  }
  return digits > 0 && i == s.size();
}

/// strtod semantics exactly, on a trimmed non-empty field.
bool strtod_number(std::string_view s, double* out) {
  // Plain decimal/scientific only. strtod also accepts "inf", "nan", and
  // hex floats ("0x1p3"); none of those is a sane timestamp or object
  // size, and letting them through turns one corrupt row into a silently
  // skewed instance. The charset gate rejects them before parsing; the
  // isfinite check catches overflow ("1e999" parses to +inf with ERANGE).
  for (const char c : s) {
    const bool ok = is_digit(c) || c == '+' || c == '-' || c == '.' ||
                    c == 'e' || c == 'E';
    if (!ok) return false;
  }
  // strtod needs NUL termination, which a view cannot provide.
  char small[64];
  std::string large;
  const char* text = small;
  if (s.size() < sizeof small) {
    std::memcpy(small, s.data(), s.size());
    small[s.size()] = '\0';
  } else {
    large.assign(s.data(), s.size());
    text = large.c_str();
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (errno != 0 || end != text + s.size() || !std::isfinite(v)) return false;
  if (out != nullptr) *out = v;
  return true;
}

bool parse_unsigned(std::string_view s, std::string& scratch,
                    std::uint64_t& out) {
  if (s.empty()) return false;
  scratch.assign(s.data(), s.size());
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(scratch.c_str(), &end, 10);
  if (errno != 0 || end != scratch.c_str() + scratch.size()) return false;
  out = v;
  return true;
}

void check_options(const CsvOptions& opt) {
  if (opt.block_pages <= 0)
    throw std::invalid_argument("csv: block_pages must be positive");
  if (opt.k <= 0)
    throw std::invalid_argument("csv: options.k (cache size) must be set");
  if (opt.time_col < 0 || opt.key_col < 0)
    throw std::invalid_argument("csv: negative column index");
}

}  // namespace

bool csv_numeric(std::string_view field, double* value) {
  // Space-padded fields ("1, 4096") are common in hand-written and
  // tool-exported CSVs; strtod accepted the leading whitespace, so the
  // validation must keep doing so.
  std::size_t lo = 0, hi = field.size();
  while (lo < hi && (field[lo] == ' ' || field[lo] == '\t')) ++lo;
  while (hi > lo && (field[hi - 1] == ' ' || field[hi - 1] == '\t')) --hi;
  if (lo == hi) return false;
  const std::string_view s = field.substr(lo, hi - lo);
  if (value == nullptr && plain_decimal(s)) return true;
  return strtod_number(s, value);
}

CsvReader::CsvReader(const std::string& path, const CsvOptions& options)
    : path_(path),
      delimiter_(options.delimiter),
      time_col_(options.time_col),
      key_col_(options.key_col),
      size_col_(options.size_col),
      row_cols_(std::max(options.time_col, options.key_col)),
      strict_(options.strict),
      in_(path),
      buf_(kChunkBytes) {
  if (!in_) throw std::runtime_error("csv: cannot open " + path);
}

bool CsvReader::take_line(std::string_view& line) {
  const char* begin = buf_.data() + pos_;
  const std::size_t avail = end_ - pos_;
  const auto* nl = static_cast<const char*>(std::memchr(begin, '\n', avail));
  std::size_t len = avail;
  if (nl != nullptr) {
    len = static_cast<std::size_t>(nl - begin);
    pos_ += len + 1;
  } else if (eof_ && avail > 0) {
    pos_ = end_;
  } else {
    return false;
  }
  line = std::string_view(begin, len);
  ++line_no_;
  return true;
}

/// Split `line` up to the last column this call needs. Non-data rows
/// (headers, comments, ragged lines — anything whose timestamp column is
/// missing or not numeric) return false and are skipped. In strict mode,
/// data rows with an empty key or a malformed size field throw with the
/// 1-based line number instead of being skipped or coerced.
bool CsvReader::parse(std::string_view line, std::string_view& key,
                      double* size) {
  const bool with_size = size_col_ >= 0 && (size != nullptr || strict_);
  const int last_col = with_size ? std::max(row_cols_, size_col_) : row_cols_;
  std::string_view time_field, key_field, size_field;
  bool have_size = false;
  const char* p = line.data();
  const char* const end = p + line.size();
  int idx = 0;
  for (;; ++idx) {
    const auto* delim = static_cast<const char*>(
        std::memchr(p, delimiter_, static_cast<std::size_t>(end - p)));
    std::string_view field(
        p, static_cast<std::size_t>((delim != nullptr ? delim : end) - p));
    // CRLF normalization: a Windows line ending would otherwise glue
    // '\r' onto the last field (rejecting it as numeric or corrupting
    // the key).
    if (delim == nullptr && !field.empty() && field.back() == '\r')
      field.remove_suffix(1);
    if (idx == time_col_) time_field = field;
    if (idx == key_col_) key_field = field;
    if (with_size && idx == size_col_) {
      size_field = field;
      have_size = true;
    }
    if (delim == nullptr || idx == last_col) break;
    p = delim + 1;
  }
  // Only timestamp and key are required; the size column is optional
  // (two-column timestamp,key traces are valid, size defaults to 1).
  if (idx < row_cols_ || !csv_numeric(time_field)) return false;
  if (key_field.empty()) {
    if (strict_)
      throw std::runtime_error("csv: empty key field at line " +
                               std::to_string(line_no_));
    return false;
  }
  if (size != nullptr) *size = 1.0;
  if (have_size && !csv_numeric(size_field, size)) {
    if (size != nullptr) *size = 1.0;
    if (strict_)
      throw std::runtime_error("csv: malformed size field '" +
                               std::string(size_field) + "' at line " +
                               std::to_string(line_no_));
  }
  key = key_field;
  return true;
}

CsvReader::Next CsvReader::next_buffered(std::string_view& key,
                                         double* size) {
  std::string_view line;
  while (take_line(line))
    if (parse(line, key, size)) return Next::Row;
  return eof_ ? Next::End : Next::Refill;
}

void CsvReader::refill() {
  const std::size_t tail = end_ - pos_;
  std::memmove(buf_.data(), buf_.data() + pos_, tail);
  pos_ = 0;
  end_ = tail;
  // Only a line longer than the whole buffer fills it.
  if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
  in_.read(buf_.data() + end_,
           static_cast<std::streamsize>(buf_.size() - end_));
  if (in_.bad()) throw std::runtime_error("csv: read error on " + path_);
  end_ += static_cast<std::size_t>(in_.gcount());
  eof_ = in_.eof();
}

bool CsvReader::next(std::string_view& key, double* size) {
  for (;;) {
    switch (next_buffered(key, size)) {
      case Next::Row:
        return true;
      case Next::End:
        return false;
      case Next::Refill:
        refill();
        break;
    }
  }
}

void CsvReader::rewind() {
  in_.clear();
  in_.seekg(0);
  pos_ = end_ = 0;
  eof_ = false;
  line_no_ = 0;
  if (!in_) throw std::runtime_error("csv: rewind failed on " + path_);
}

CsvMapping build_csv_mapping(const std::string& path,
                             const CsvOptions& options) {
  check_options(options);
  CsvReader reader(path, options);

  // First-appearance page ids; per-page key value and size statistics.
  FlatMap<std::string, PageId> key_to_page;
  std::vector<std::uint64_t> key_values;  // numeric value per page
  std::vector<double> size_sum;
  std::vector<long long> size_count;
  bool all_numeric = true;
  long long rows = 0;

  std::string scratch;
  std::string_view key;
  double size = 1.0;
  // Sizes are converted only when they set block costs.
  double* const size_out = options.cost_from_size ? &size : nullptr;
  while (reader.next(key, size_out)) {
    ++rows;
    // Heterogeneous upsert: one hash per row, and the key is only copied
    // into an owning std::string the first time it appears.
    const auto [page, inserted] = key_to_page.try_emplace(
        key, static_cast<PageId>(key_to_page.size()));
    if (inserted) {
      std::uint64_t v = 0;
      if (all_numeric && parse_unsigned(key, scratch, v)) {
        key_values.push_back(v);
      } else {
        all_numeric = false;
      }
      if (size_out != nullptr) {
        size_sum.push_back(0.0);
        size_count.push_back(0);
      }
    }
    if (size_out != nullptr) {
      const auto p = static_cast<std::size_t>(*page);
      size_sum[p] += size;
      ++size_count[p];
    }
  }
  if (rows == 0)
    throw std::runtime_error("csv: no data rows in " + path +
                             " (expected timestamp" +
                             std::string(1, options.delimiter) + "key" +
                             std::string(1, options.delimiter) + "size)");

  const auto n = static_cast<int>(key_to_page.size());
  std::vector<BlockId> page_to_block(static_cast<std::size_t>(n));
  int n_blocks;
  if (all_numeric) {
    // Extent grouping: keys in the same aligned span share a block.
    const auto span = static_cast<std::uint64_t>(options.block_pages);
    std::map<std::uint64_t, BlockId> extent_ids;  // ordered for determinism
    for (const std::uint64_t v : key_values) extent_ids[v / span] = 0;
    BlockId next = 0;
    for (auto& [extent, id] : extent_ids) id = next++;
    for (std::size_t p = 0; p < key_values.size(); ++p)
      page_to_block[p] = extent_ids[key_values[p] / span];
    n_blocks = static_cast<int>(extent_ids.size());
  } else {
    // Arrival grouping: consecutive first-seen keys share a block.
    for (int p = 0; p < n; ++p)
      page_to_block[static_cast<std::size_t>(p)] = p / options.block_pages;
    n_blocks = (n + options.block_pages - 1) / options.block_pages;
  }

  std::vector<Cost> costs(static_cast<std::size_t>(n_blocks), 1.0);
  if (options.cost_from_size) {
    std::vector<double> block_sum(static_cast<std::size_t>(n_blocks), 0.0);
    std::vector<long long> block_cnt(static_cast<std::size_t>(n_blocks), 0);
    for (int p = 0; p < n; ++p) {
      const auto b = static_cast<std::size_t>(
          page_to_block[static_cast<std::size_t>(p)]);
      block_sum[b] += size_sum[static_cast<std::size_t>(p)];
      block_cnt[b] += size_count[static_cast<std::size_t>(p)];
    }
    for (std::size_t b = 0; b < costs.size(); ++b)
      if (block_cnt[b] > 0)
        costs[b] = std::max(
            1.0, block_sum[b] / static_cast<double>(block_cnt[b]) /
                     options.page_bytes);
  }

  CsvMapping mapping{BlockMap(std::move(page_to_block), std::move(costs)),
                     options.k, std::move(key_to_page), rows, all_numeric};
  // The inferred structure must itself be a valid instance (beta <= k).
  mapping.header().validate();
  return mapping;
}

CsvSource::CsvSource(const std::string& path,
                     std::shared_ptr<const CsvMapping> map,
                     CsvOptions options)
    : path_(path),
      map_(std::move(map)),
      reader_(path, options),
      header_(map_->header()) {
  held_key_.reserve(256);
}

PageId CsvSource::translate(std::uint64_t hash, std::string_view key) const {
  const PageId* p = map_->key_to_page.find_hashed(hash, key);
  if (p == nullptr)
    throw std::runtime_error("csv: key '" + std::string(key) + "' in " +
                             path_ +
                             " absent from the mapping (file changed "
                             "between passes?)");
  return *p;
}

bool CsvSource::next(PageId& p) {
  std::string_view key;
  if (!reader_.next(key)) return false;
  p = translate(map_->key_to_page.hash(key), key);
  return true;
}

int CsvSource::next_batch(PageId* out, int cap) {
  // Software-pipelined: split row r+1 and prefetch its probe group while
  // row r's lookup resolves, hiding the interner's cache miss behind the
  // next row's split. Row r's key views the reader's buffer; when the
  // buffer must be refilled before row r+1 is found, the key is copied
  // out first, so row r still resolves after row r+1 is read, and a
  // strict-mode error in row r+1 still surfaces before row r's lookup.
  int produced = 0;
  std::string_view pending_key;
  std::uint64_t pending_hash = 0;
  bool has_pending = false;
  while (produced + (has_pending ? 1 : 0) < cap) {
    std::string_view key;
    const CsvReader::Next got = reader_.next_buffered(key);
    if (got == CsvReader::Next::End) break;
    if (got == CsvReader::Next::Refill) {
      if (has_pending) {
        held_key_.assign(pending_key);
        pending_key = held_key_;
      }
      reader_.refill();
      continue;
    }
    const std::uint64_t h = map_->key_to_page.hash(key);
    map_->key_to_page.prefetch(h);
    if (has_pending) out[produced++] = translate(pending_hash, pending_key);
    pending_key = key;
    pending_hash = h;
    has_pending = true;
  }
  if (has_pending && produced < cap)
    out[produced++] = translate(pending_hash, pending_key);
  return produced;
}

void CsvSource::rewind() { reader_.rewind(); }

}  // namespace bac
