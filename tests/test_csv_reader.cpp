// The chunked CSV reader against the line-at-a-time reader it replaced.
//
// `reference` below is that reader, frozen: the strtod-based field
// validator, the getline row loop of pass 1, and pass 2's pipelined
// batch decode over two line buffers. The new reader must agree with it
// field by field (a fuzzed corpus of numeric-looking and broken fields)
// and file by file (mappings, page streams, exceptions, their messages
// and line numbers, lax and strict), on files built to hit the chunked
// reader's edges: rows across a 64 KiB boundary, a row longer than the
// buffer, a file exactly one chunk long, no final newline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "trace/csv.hpp"
#include "util/rng.hpp"

namespace bac {
namespace {

namespace reference {

struct RowView {
  std::string_view key;
  double size = 1.0;
};

bool numeric(std::string_view field, std::string& scratch,
             double* out = nullptr) {
  std::size_t lo = 0, hi = field.size();
  while (lo < hi && (field[lo] == ' ' || field[lo] == '\t')) ++lo;
  while (hi > lo && (field[hi - 1] == ' ' || field[hi - 1] == '\t')) --hi;
  if (lo == hi) return false;
  const std::string_view s = field.substr(lo, hi - lo);
  for (const char c : s) {
    const bool ok = (c >= '0' && c <= '9') || c == '+' || c == '-' ||
                    c == '.' || c == 'e' || c == 'E';
    if (!ok) return false;
  }
  scratch.assign(s.data(), s.size());
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(scratch.c_str(), &end);
  if (errno != 0 || end != scratch.c_str() + scratch.size() ||
      !std::isfinite(v))
    return false;
  if (out != nullptr) *out = v;
  return true;
}

bool parse_row(std::string_view line, const CsvOptions& opt, RowView& row,
               long long line_no, std::string& scratch) {
  std::string_view time_field, key_field, size_field;
  bool have_time = false, have_key = false, have_size = false;
  std::size_t start = 0;
  for (int idx = 0;; ++idx) {
    const std::size_t pos = line.find(opt.delimiter, start);
    const bool last = pos == std::string_view::npos;
    std::string_view field =
        line.substr(start, (last ? line.size() : pos) - start);
    if (last && !field.empty() && field.back() == '\r')
      field.remove_suffix(1);
    if (idx == opt.time_col) {
      time_field = field;
      have_time = true;
    }
    if (idx == opt.key_col) {
      key_field = field;
      have_key = true;
    }
    if (opt.size_col >= 0 && idx == opt.size_col) {
      size_field = field;
      have_size = true;
    }
    if (last) break;
    start = pos + 1;
  }
  if (!have_time || !have_key) return false;
  if (!numeric(time_field, scratch)) return false;
  row.key = key_field;
  if (row.key.empty()) {
    if (opt.strict)
      throw std::runtime_error("csv: empty key field at line " +
                               std::to_string(line_no));
    return false;
  }
  row.size = 1.0;
  if (have_size) {
    if (!numeric(size_field, scratch, &row.size)) {
      row.size = 1.0;
      if (opt.strict)
        throw std::runtime_error("csv: malformed size field '" +
                                 std::string(size_field) + "' at line " +
                                 std::to_string(line_no));
    }
  }
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

CsvMapping build_csv_mapping(const std::string& path,
                             const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("csv: cannot open " + path);
  FlatMap<std::string, PageId> key_to_page;
  std::vector<std::uint64_t> key_values;
  std::vector<double> size_sum;
  std::vector<long long> size_count;
  bool all_numeric = true;
  long long rows = 0;
  std::string line;
  std::string scratch;
  RowView row;
  long long line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!parse_row(line, options, row, line_no, scratch)) continue;
    ++rows;
    const auto [page, inserted] = key_to_page.try_emplace(
        row.key, static_cast<PageId>(key_to_page.size()));
    if (inserted) {
      std::uint64_t v = 0;
      if (all_numeric && parse_unsigned(row.key, scratch, v)) {
        key_values.push_back(v);
      } else {
        all_numeric = false;
      }
      size_sum.push_back(0.0);
      size_count.push_back(0);
    }
    const auto p = static_cast<std::size_t>(*page);
    size_sum[p] += row.size;
    ++size_count[p];
  }
  if (in.bad()) throw std::runtime_error("csv: read error on " + path);
  if (rows == 0)
    throw std::runtime_error("csv: no data rows in " + path +
                             " (expected timestamp" +
                             std::string(1, options.delimiter) + "key" +
                             std::string(1, options.delimiter) + "size)");
  const auto n = static_cast<int>(key_to_page.size());
  std::vector<BlockId> page_to_block(static_cast<std::size_t>(n));
  int n_blocks;
  if (all_numeric) {
    const auto span = static_cast<std::uint64_t>(options.block_pages);
    std::map<std::uint64_t, BlockId> extent_ids;
    for (const std::uint64_t v : key_values) extent_ids[v / span] = 0;
    BlockId next = 0;
    for (auto& [extent, id] : extent_ids) id = next++;
    for (std::size_t p = 0; p < key_values.size(); ++p)
      page_to_block[p] = extent_ids[key_values[p] / span];
    n_blocks = static_cast<int>(extent_ids.size());
  } else {
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
  return CsvMapping{BlockMap(std::move(page_to_block), std::move(costs)),
                    options.k, std::move(key_to_page), rows, all_numeric};
}

/// Pass 2 as it was: getline into two alternating line buffers, row r+1
/// parsed and prefetched while row r resolves.
class Source {
 public:
  Source(const std::string& path, std::shared_ptr<const CsvMapping> map,
         CsvOptions options)
      : path_(path), map_(std::move(map)), options_(options), in_(path) {
    if (!in_) throw std::runtime_error("csv: cannot open " + path);
  }

  bool next(PageId& p) {
    std::string_view key;
    if (!read_row(lines_[0], key)) return false;
    p = translate(map_->key_to_page.hash(key), key);
    return true;
  }

  int next_batch(PageId* out, int cap) {
    int produced = 0;
    std::string_view pending_key;
    std::uint64_t pending_hash = 0;
    bool has_pending = false;
    int buf = 0;
    while (produced + (has_pending ? 1 : 0) < cap) {
      std::string_view key;
      if (!read_row(lines_[buf], key)) break;
      const std::uint64_t h = map_->key_to_page.hash(key);
      if (has_pending) out[produced++] = translate(pending_hash, pending_key);
      pending_key = key;
      pending_hash = h;
      has_pending = true;
      buf ^= 1;
    }
    if (has_pending && produced < cap)
      out[produced++] = translate(pending_hash, pending_key);
    return produced;
  }

  void rewind() {
    in_.clear();
    in_.seekg(0);
    line_no_ = 0;
    if (!in_) throw std::runtime_error("csv: rewind failed on " + path_);
  }

 private:
  bool read_row(std::string& line, std::string_view& key) {
    RowView row;
    while (std::getline(in_, line)) {
      ++line_no_;
      if (!parse_row(line, options_, row, line_no_, scratch_)) continue;
      key = row.key;
      return true;
    }
    if (in_.bad()) throw std::runtime_error("csv: read error on " + path_);
    return false;
  }

  PageId translate(std::uint64_t hash, std::string_view key) const {
    const PageId* p = map_->key_to_page.find_hashed(hash, key);
    if (p == nullptr)
      throw std::runtime_error("csv: key '" + std::string(key) + "' in " +
                               path_ +
                               " absent from the mapping (file changed "
                               "between passes?)");
    return *p;
  }

  std::string path_;
  std::shared_ptr<const CsvMapping> map_;
  CsvOptions options_;
  std::ifstream in_;
  std::string lines_[2];
  std::string scratch_;
  long long line_no_ = 0;
};

}  // namespace reference

// --- field validator ---------------------------------------------------

void expect_field_matches(const std::string& field) {
  std::string scratch;
  double want = -7.0;
  double got = -7.0;
  const bool want_ok = reference::numeric(field, scratch);
  ASSERT_EQ(csv_numeric(field), want_ok) << "field '" << field << "'";
  ASSERT_EQ(reference::numeric(field, scratch, &want), want_ok);
  ASSERT_EQ(csv_numeric(field, &got), want_ok) << "field '" << field << "'";
  if (want_ok) {
    ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "field '" << field << "': " << got << " vs " << want;
  }
}

TEST(CsvNumeric, MatchesTheStrtodValidatorOnAFuzzedCorpus) {
  std::vector<std::string> corpus = {
      "", " ", "\t", " \t ", "0", "1", "-1", "+1", "+", "-", "+-1", "-+1",
      "1-", "1+", ".", "5.", ".5", "+.5", "-.5", "+.", "-.", "..5", "5..",
      "1.2.3", "1e", "e5", "E5", "1e5", "1E5", "1e+5", "1e-5", "1e+", "1e-",
      "1.5e3", ".5e1", "5.e1", "1e5.5", "1ee5", "inf", "-inf", "INF", "nan",
      "NaN", "infinity", "0x1p3", "0x10", "0X1P-3", "1e309", "-1e309",
      "1e308", "1.7976931348623157e308", "1.7976931348623159e308", "1e-400",
      "1e-310", "4.9e-324", "2.4703282292062327e-324", "2e-324",
      "2.2250738585072014e-308", "2.2250738585072011e-308", " 1", "1 ",
      " 1 ", "\t1\t", " \t1.5 \t", "1 2", "1\r", "\r1", "1,2", "1\n",
      "0000000000000000000000000000000000000000000000000012",
      "00.000", "-0", "-0.0", "+0.", "12345678901234567890",
      "123456789012345678901234567890.5"};
  // Fractions with 400 zeros: the smallest underflow (ERANGE), and the
  // same digits with the exponent that brings them back into range.
  corpus.push_back("0." + std::string(400, '0') + "1");
  corpus.push_back("0." + std::string(400, '0') + "1e400");
  corpus.push_back("1" + std::string(400, '0'));
  corpus.push_back("1" + std::string(400, '0') + ".5");
  // Digit strings on both sides of the plain-decimal scan's length limit
  // (40 characters after trimming), with and without sign, point and
  // padding.
  for (std::size_t len = 36; len <= 44; ++len) {
    const std::string digits(len, '7');
    corpus.push_back(digits);
    corpus.push_back("-" + digits.substr(1));
    corpus.push_back(digits.substr(0, len / 2) + "." +
                     digits.substr(len / 2 + 1));
    corpus.push_back("." + digits.substr(1));
    corpus.push_back("  " + digits + "\t");
    corpus.push_back("0." + std::string(len - 3, '0') + "1");
  }
  // Random strings over the characters the validator cares about.
  const std::string alphabet = "0123456789000+-..eE \tx1nfai\r,";
  Xoshiro256pp rng(31);
  for (int i = 0; i < 200'000; ++i) {
    const auto len = static_cast<std::size_t>(rng.below(14));
    std::string f;
    for (std::size_t j = 0; j < len; ++j)
      f.push_back(alphabet[rng.below(alphabet.size())]);
    corpus.push_back(f);
  }
  // Random well-formed decimals of every length up to past the limit.
  for (int i = 0; i < 20'000; ++i) {
    std::string f;
    if (rng.below(3) == 0) f.push_back(rng.below(2) ? '+' : '-');
    const auto int_digits = static_cast<std::size_t>(rng.below(30));
    for (std::size_t j = 0; j < int_digits; ++j)
      f.push_back(static_cast<char>('0' + rng.below(10)));
    if (rng.below(2)) {
      f.push_back('.');
      const auto frac = static_cast<std::size_t>(rng.below(20));
      for (std::size_t j = 0; j < frac; ++j)
        f.push_back(static_cast<char>('0' + rng.below(10)));
    }
    if (rng.below(5) == 0) f += "e" + std::to_string(rng.range(-330, 330));
    corpus.push_back(f);
  }
  for (const std::string& field : corpus) expect_field_matches(field);
}

// --- whole files -------------------------------------------------------

class CsvReaderFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bac_csv_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& bytes) {
    const std::string file = (dir_ / name).string();
    std::ofstream out(file, std::ios::binary);
    out << bytes;
    return file;
  }

 private:
  std::filesystem::path dir_;
};

/// What a run produced: its pages (or mapping digest) and the message
/// of the exception that ended it, if any.
struct Outcome {
  std::vector<PageId> pages;
  std::optional<std::string> error;
  bool operator==(const Outcome&) const = default;
};

Outcome capture(const std::function<void(std::vector<PageId>&)>& run) {
  Outcome o;
  try {
    run(o.pages);
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

/// A mapping flattened into comparable numbers: rows, numeric_keys, each
/// key's page in the reference's first-seen order, each page's block,
/// and each block's cost bits.
void digest(const CsvMapping& m, const CsvMapping& keys_from,
            std::vector<PageId>& out) {
  out.push_back(static_cast<PageId>(m.rows));
  out.push_back(m.numeric_keys ? 1 : 0);
  out.push_back(static_cast<PageId>(m.key_to_page.size()));
  for (const auto& [key, page] : keys_from.key_to_page) {
    const PageId* p = m.key_to_page.find(key);
    out.push_back(p == nullptr ? -1 : *p);
  }
  out.push_back(m.blocks.n_pages());
  out.push_back(m.blocks.n_blocks());
  for (PageId p = 0; p < m.blocks.n_pages(); ++p)
    out.push_back(m.blocks.block_of(p));
  for (BlockId b = 0; b < m.blocks.n_blocks(); ++b) {
    const double c = m.blocks.cost(b);
    std::uint64_t bits;
    std::memcpy(&bits, &c, sizeof bits);
    out.push_back(static_cast<PageId>(bits >> 32));
    out.push_back(static_cast<PageId>(bits & 0xffffffffU));
  }
}

/// Drain a pass-2 source through next_batch(cap) (cap 0: next()), twice
/// around a rewind().
template <typename Src>
void drain(Src& src, int cap, std::vector<PageId>& out) {
  for (int round = 0; round < 2; ++round) {
    if (cap == 0) {
      PageId p;
      while (src.next(p)) out.push_back(p);
    } else {
      std::vector<PageId> buf(static_cast<std::size_t>(cap));
      for (int m; (m = src.next_batch(buf.data(), cap)) > 0;)
        out.insert(out.end(), buf.begin(), buf.begin() + m);
    }
    out.push_back(-1);
    src.rewind();
  }
}

/// Pass 1 and pass 2 of the new reader against the reference, on `file`
/// under `options`. Pass 2 uses the mapping of `mapping_file` (the file
/// itself unless the test changes it between passes).
void expect_same_as_reference(const std::string& file, CsvOptions options,
                              const std::string& mapping_file = "") {
  const std::string label = file + " strict=" +
                            std::to_string(options.strict) + " delim='" +
                            std::string(1, options.delimiter) + "'";
  std::shared_ptr<const CsvMapping> ref_map;
  const Outcome want1 = capture([&](std::vector<PageId>& out) {
    ref_map = std::make_shared<const CsvMapping>(
        reference::build_csv_mapping(file, options));
    digest(*ref_map, *ref_map, out);
  });
  const Outcome got1 = capture([&](std::vector<PageId>& out) {
    const CsvMapping mapping = build_csv_mapping(file, options);
    digest(mapping, ref_map ? *ref_map : mapping, out);
  });
  EXPECT_EQ(got1, want1) << label << " (pass 1): "
                         << got1.error.value_or("ok") << " vs "
                         << want1.error.value_or("ok");

  // Pass 2 needs a mapping even where strict pass 1 throws: build it
  // lax. A file with no data rows has none, and nothing to stream.
  CsvOptions lax = options;
  lax.strict = false;
  std::shared_ptr<const CsvMapping> map;
  try {
    map = std::make_shared<const CsvMapping>(reference::build_csv_mapping(
        mapping_file.empty() ? file : mapping_file, lax));
  } catch (const std::runtime_error&) {
    return;
  }
  for (const int cap : {0, 1, 7, 512}) {
    const Outcome want2 = capture([&](std::vector<PageId>& out) {
      reference::Source src(file, map, options);
      drain(src, cap, out);
    });
    const Outcome got2 = capture([&](std::vector<PageId>& out) {
      CsvSource src(file, map, options);
      drain(src, cap, out);
    });
    EXPECT_EQ(got2, want2) << label << " (pass 2, cap " << cap
                           << "): " << got2.error.value_or("ok") << " vs "
                           << want2.error.value_or("ok");
  }
}

/// `rows` rows of `ts<delim>key<delim>size` with keys drawn from a small
/// popular set, padded to varied lengths so rows land across chunk
/// boundaries at every offset.
std::string generated_rows(int rows, char delim, bool numeric_keys,
                           std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::string s;
  for (int i = 0; i < rows; ++i) {
    const auto id = rng.below(300);
    s += std::to_string(i + 1);
    s.push_back(delim);
    s += numeric_keys ? std::to_string(4096 + id)
                      : "obj-" + std::to_string(id) +
                            std::string(static_cast<std::size_t>(rng.below(9)),
                                        'x');
    s.push_back(delim);
    s += std::to_string(512 * (1 + rng.below(16)));
    if (rng.below(7) == 0) s.push_back('\r');
    s.push_back('\n');
  }
  return s;
}

TEST_F(CsvReaderFiles, HeadersCommentsRaggedAndEmptyRows) {
  const std::string body =
      "timestamp,key,size\n"
      "# a comment line\n"
      "\n"
      "1,a,4096\n"
      "2, b ,  8192 \r\n"
      "3,c\n"         // ragged: no size column
      "4\n"           // ragged: no key column
      ",d,1\n"        // empty timestamp: skipped
      "5,,4096\n"     // empty key: skipped lax, throws strict
      "6,a,1e3\n"
      "7,e,inf\n"     // non-finite size: 1.0 lax, throws strict
      "8,f,0x10\n"
      "9,a,4096,extra,columns\n"
      " 10 ,g,\t2048\t\n"
      "1e1,h,1\r\n"
      "\r\n"
      "11,i,12\n";
  const std::string file = write("mixed.csv", body);
  for (const bool strict : {false, true})
    for (const bool from_size : {false, true}) {
      CsvOptions o;
      o.k = 4;
      o.block_pages = 2;
      o.strict = strict;
      o.cost_from_size = from_size;
      o.page_bytes = 1024.0;
      expect_same_as_reference(file, o);
    }
  // Without the strict-mode rows, strict runs to the end too.
  const std::string clean = write(
      "clean.csv", "ts,key,size\n1,a,4096\n\n2, b ,8192\r\n3,c\n# end\n4,a,1");
  CsvOptions o;
  o.k = 4;
  o.strict = true;
  o.cost_from_size = true;
  expect_same_as_reference(clean, o);
}

TEST_F(CsvReaderFiles, CustomDelimiterAndColumns) {
  std::string body = "key|size|when\n";
  Xoshiro256pp rng(3);
  for (int i = 0; i < 3000; ++i) {
    body += 'k';
    body += std::to_string(rng.below(97));
    body += '|';
    body += std::to_string(100 + rng.below(900));
    body += '|';
    body += std::to_string(i);
    body += i % 5 == 0 ? "\r\n" : "\n";
    if (i == 1700) body += "x|y|z\n";
  }
  const std::string file = write("pipes.csv", body);
  for (const bool strict : {false, true}) {
    CsvOptions o;
    o.k = 8;
    o.block_pages = 4;
    o.delimiter = '|';
    o.key_col = 0;
    o.size_col = 1;
    o.time_col = 2;
    o.strict = strict;
    o.cost_from_size = strict;
    expect_same_as_reference(file, o);
    o.size_col = -1;
    expect_same_as_reference(file, o);
  }
  const std::string tabs = write(
      "tabs.tsv", "1\t10\t4096\n2\t11\t 8192\n3\t12\t\n4\t10\t4096");
  for (const bool strict : {false, true}) {
    CsvOptions o;
    o.k = 4;
    o.delimiter = '\t';
    o.strict = strict;
    o.cost_from_size = true;
    expect_same_as_reference(tabs, o);
  }
}

TEST_F(CsvReaderFiles, RowsAcrossChunkBoundaries) {
  // ~30 bytes a row: 20k rows span several 64 KiB chunks, and the varied
  // padding moves the boundary through every position in a row.
  for (const bool numeric : {false, true}) {
    const std::string file =
        write(numeric ? "lba.csv" : "objects.csv",
              generated_rows(20'000, ',', numeric, numeric ? 5 : 6));
    for (const bool strict : {false, true}) {
      CsvOptions o;
      o.k = 64;
      o.block_pages = 8;
      o.strict = strict;
      o.cost_from_size = true;
      expect_same_as_reference(file, o);
    }
  }
  // A malformed row right after the first boundary: strict errors keep
  // their line numbers across a refill.
  std::string body = generated_rows(4'000, ',', false, 7);
  const std::size_t cut = body.find('\n', 65'536 - 8) + 1;
  body.insert(cut, "99,bad,size?\n");
  const std::string file = write("boundary_error.csv", body);
  for (const bool strict : {false, true}) {
    CsvOptions o;
    o.k = 64;
    o.strict = strict;
    expect_same_as_reference(file, o);
  }
}

TEST_F(CsvReaderFiles, RowLongerThanTheBuffer) {
  const std::string long_key(70'000, 'k');
  const std::string long_comment = "# " + std::string(150'000, '#') + "\n";
  const std::string body = "1,a,1\n" + long_comment + "2," + long_key +
                           ",4096\n3,a,1\n4," + long_key + ",4096\r\n" +
                           generated_rows(3'000, ',', false, 8) + "5," +
                           long_key;
  const std::string file = write("long.csv", body);
  for (const bool strict : {false, true}) {
    CsvOptions o;
    o.k = 64;
    o.strict = strict;
    o.cost_from_size = true;
    expect_same_as_reference(file, o);
  }
}

TEST_F(CsvReaderFiles, FileExactlyOneChunkLongAndNoFinalNewline) {
  std::string body = generated_rows(4'000, ',', false, 9);
  body.resize(65'536);
  body.back() = '\n';
  const std::string one_chunk = write("one_chunk.csv", body);
  std::string unterminated = body;
  unterminated.back() = '7';  // the last row loses its newline
  const std::string no_newline = write("no_newline.csv", unterminated);
  const std::string tiny = write("tiny.csv", "1,a,10\n2,b,20");
  const std::string empty_tail = write("empty_tail.csv", "1,a,10\n\n\n");
  // A strict error on the unterminated last line names that line.
  const std::string bad_tail = write("bad_tail.csv", "1,a,10\n\n2,b,oops");
  for (const std::string& file :
       {one_chunk, no_newline, tiny, empty_tail, bad_tail})
    for (const bool strict : {false, true}) {
      CsvOptions o;
      o.k = 64;
      o.strict = strict;
      o.cost_from_size = true;
      expect_same_as_reference(file, o);
    }
}

TEST_F(CsvReaderFiles, FileChangedBetweenPassesFailsAtTheSameRow) {
  // Pass 2 over a file with keys pass 1 never saw: the absent key and a
  // strict error in the row after it must surface in the same order as
  // before, even when the row pair straddles a refill.
  const std::string rows = generated_rows(4'000, ',', false, 10);
  const std::string before = write("before.csv", rows);
  // A comment pads the first chunk so that it ends exactly after the
  // unseen key's row.
  const std::string unseen = "98,never-seen,1\n";
  std::string body = rows.substr(0, rows.rfind('\n', 65'000) + 1);
  body += "#" + std::string(65'536 - body.size() - unseen.size() - 2, 'c') +
          "\n" + unseen;
  ASSERT_EQ(body.size(), 65'536u);
  body += "99,x,oops\n" + rows;
  const std::string after = write("after.csv", body);
  for (const bool strict : {false, true}) {
    CsvOptions o;
    o.k = 64;
    o.strict = strict;
    expect_same_as_reference(after, o, before);
  }
}

TEST_F(CsvReaderFiles, MissingAndHeaderOnlyFiles) {
  CsvOptions o;
  o.k = 4;
  const std::string header_only = write("header.csv", "timestamp,key,size\n");
  expect_same_as_reference(header_only, o);
  const std::string missing =
      (std::filesystem::temp_directory_path() / "bac_csv_missing.csv")
          .string();
  const Outcome want = capture([&](std::vector<PageId>&) {
    (void)reference::build_csv_mapping(missing, o);
  });
  const Outcome got = capture(
      [&](std::vector<PageId>&) { (void)build_csv_mapping(missing, o); });
  EXPECT_EQ(got, want);
  EXPECT_TRUE(got.error.has_value());
}

}  // namespace
}  // namespace bac
