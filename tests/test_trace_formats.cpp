// Round-trip fidelity of the .bact binary format and the CSV key-trace
// adapter, and the streaming-equivalence guarantee: every generator
// workload pushed through .bact or the v1 text format must reproduce a
// bit-identical RunResult for LRU, BlockLRU, and the deterministic online
// algorithm.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "algs/policies/classical.hpp"
#include "algs/det_online.hpp"
#include "core/simulator.hpp"
#include "trace/bact.hpp"
#include "trace/csv.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"

namespace bac {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bac_fmt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

using TraceFormats = TempDir;
using CsvTrace = TempDir;

std::vector<Instance> generator_workloads() {
  std::vector<Instance> out;
  Xoshiro256pp rng(404);
  out.push_back(make_instance(48, 6, 12, zipf_trace(48, 1200, 0.9, rng)));
  out.push_back(make_instance(30, 3, 9, scan_trace(30, 900)));
  {
    BlockMap blocks = BlockMap::contiguous(40, 5);
    auto req = block_local_trace(blocks, 1000, 0.75, 0.9, rng);
    out.push_back(Instance{std::move(blocks), std::move(req), 10});
  }
  out.push_back(make_instance(36, 4, 12,
                              phased_trace(36, 800, 80, 16, rng)));
  out.push_back(make_instance(25, 5, 10, uniform_trace(25, 700, rng)));
  out.push_back(make_weighted_instance(24, 4, 8, uniform_trace(24, 600, rng),
                                       log_uniform_costs(6, 32.0, rng)));
  return out;
}

bool identical_run(const RunResult& a, const RunResult& b) {
  return a.counters() == b.counters() && a.violations == b.violations;
}

std::vector<std::unique_ptr<OnlinePolicy>> equivalence_policies() {
  std::vector<std::unique_ptr<OnlinePolicy>> out;
  out.push_back(std::make_unique<LruPolicy>());
  out.push_back(std::make_unique<BlockLruPolicy>(false));
  out.push_back(std::make_unique<DetOnlineBlockAware>());
  return out;
}

TEST_F(TraceFormats, BactRoundTripIsBitIdenticalForEveryWorkload) {
  int wi = 0;
  for (const Instance& inst : generator_workloads()) {
    const std::string file = path("w" + std::to_string(wi++) + ".bact");
    save_bact(inst, file);

    // Materialized round trip preserves the instance exactly.
    const Instance back = load_bact(file);
    EXPECT_EQ(back.requests, inst.requests);
    EXPECT_EQ(back.k, inst.k);
    ASSERT_EQ(back.n_pages(), inst.n_pages());
    for (PageId p = 0; p < inst.n_pages(); ++p)
      EXPECT_EQ(back.blocks.block_of(p), inst.blocks.block_of(p));
    for (BlockId b = 0; b < inst.blocks.n_blocks(); ++b)
      EXPECT_EQ(back.blocks.cost(b), inst.blocks.cost(b));

    // Streaming replay: bit-identical RunResult per policy.
    for (const auto& proto : equivalence_policies()) {
      const auto direct_policy = proto->clone();
      const auto stream_policy = proto->clone();
      ASSERT_NE(direct_policy, nullptr);
      ASSERT_NE(stream_policy, nullptr);
      const RunResult direct = simulate(inst, *direct_policy);
      BactSource src(file);
      const RunResult streamed = simulate(src, *stream_policy);
      EXPECT_TRUE(identical_run(direct, streamed))
          << proto->name() << " diverged through .bact on workload " << wi;
    }
  }
}

TEST_F(TraceFormats, RequestVarintOverflowThrowsInsteadOfTruncating) {
  // Regression: a 10-byte request varint whose final (shift-63) byte has
  // bits 1-6 set used to decode to just its low 70-minus-6 bits — here
  // [0x81, 0x80 x 8, 0x02] encodes 1 + 2^64, which silently truncated to
  // page id 0 (a perfectly valid request) instead of erroring.
  const Instance inst = make_instance(4, 2, 2, {0, 1, 2});
  const std::string file = path("overflow.bact");
  std::string bytes;
  {
    std::ostringstream oss;
    BactWriter writer(oss, inst.blocks, inst.k, 0);
    writer.finish();  // header + stream terminator
    bytes = oss.str();
  }
  bytes.pop_back();  // drop the 0x00 terminator
  bytes += '\x81';
  bytes.append(8, '\x80');
  bytes += '\x02';  // shift-63 byte with bit 1 set: the truncated bits
  bytes += '\0';
  {
    std::ofstream out(file, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  BactSource src(file);
  PageId p;
  try {
    (void)src.next(p);
    FAIL() << "over-range varint must not decode to a valid page";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("varint overflow"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(TraceFormats, HeaderVarintOverflowThrowsInsteadOfTruncating) {
  // Same guard on the header decoder: n_pages = [0x85, 0x80 x 8, 0x02]
  // (5 + 2^64) used to truncate to a plausible n_pages = 5 and fail only
  // later, on whatever the misaligned remainder happened to decode to.
  const std::string file = path("overflow_header.bact");
  {
    std::ofstream out(file, std::ios::binary);
    out.write("BACT1\n", 6);
    std::string v;
    v += '\x85';
    v.append(8, '\x80');
    v += '\x02';
    out.write(v.data(), static_cast<std::streamsize>(v.size()));
  }
  try {
    BactSource src(file);
    FAIL() << "over-range header varint must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("varint overflow"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(TraceFormats, TextRoundTripIsBitIdenticalForEveryWorkload) {
  int wi = 0;
  for (const Instance& inst : generator_workloads()) {
    // append() instead of operator+ dodges GCC 12's -Wrestrict false
    // positive on `const char* + std::string&&` under heavy inlining.
    const std::string file =
        path(std::string("w").append(std::to_string(wi++)).append(".txt"));
    save_instance(inst, file);
    for (const auto& proto : equivalence_policies()) {
      const auto direct_policy = proto->clone();
      const auto stream_policy = proto->clone();
      const RunResult direct = simulate(inst, *direct_policy);
      TextTraceSource src(file);
      EXPECT_EQ(src.horizon_hint(),
                static_cast<long long>(inst.requests.size()));
      const RunResult streamed = simulate(src, *stream_policy);
      EXPECT_TRUE(identical_run(direct, streamed))
          << proto->name() << " diverged through text on workload " << wi;
    }
  }
}

TEST_F(TraceFormats, FileSourceNextBatchMatchesNext) {
  // The batched decode paths (BactSource's buffered varint loop, the
  // final-class loops of TextTraceSource/CsvSource) must yield exactly
  // the next() sequence, including a partial final batch and 0-at-end.
  const Instance inst = generator_workloads().front();
  const std::string bact_file = path("batch.bact");
  const std::string text_file = path("batch.txt");
  save_bact(inst, bact_file);
  save_instance(inst, text_file);

  const auto drain_single = [](RequestSource& src) {
    std::vector<PageId> out;
    PageId p;
    while (src.next(p)) out.push_back(p);
    return out;
  };
  const auto drain_batched = [](RequestSource& src, int cap) {
    std::vector<PageId> out;
    std::vector<PageId> buf(static_cast<std::size_t>(cap));
    int m;
    while ((m = src.next_batch(buf.data(), cap)) > 0)
      out.insert(out.end(), buf.begin(), buf.begin() + m);
    EXPECT_EQ(src.next_batch(buf.data(), cap), 0);  // stays at end
    return out;
  };

  {
    BactSource a(bact_file), b(bact_file);
    const auto expect = drain_single(a);
    EXPECT_EQ(expect, inst.requests);
    EXPECT_EQ(drain_batched(b, 17), expect);  // 17 ∤ T: partial final batch
    b.rewind();
    EXPECT_EQ(drain_batched(b, 1 << 15), expect);  // single oversized batch
  }
  {
    TextTraceSource a(text_file), b(text_file);
    EXPECT_EQ(drain_batched(b, 17), drain_single(a));
  }
}

TEST_F(TraceFormats, BactSourceRewindReplays) {
  const Instance inst = make_instance(16, 4, 8, scan_trace(16, 200));
  const std::string file = path("rewind.bact");
  save_bact(inst, file);
  BactSource src(file);
  LruPolicy lru;
  const RunResult first = simulate(src, lru);
  src.rewind();
  const RunResult second = simulate(src, lru);
  EXPECT_TRUE(identical_run(first, second));
}

TEST_F(TraceFormats, BactWriterStreamsUnknownLength) {
  const BlockMap blocks = BlockMap::contiguous(12, 3);
  const std::string file = path("stream.bact");
  {
    std::ofstream out(file, std::ios::binary);
    BactWriter writer(out, blocks, 6);  // declared_T = 0: unknown
    for (int i = 0; i < 100; ++i) writer.add(static_cast<PageId>(i % 12));
    writer.finish();
    EXPECT_EQ(writer.written(), 100);
  }
  BactSource src(file);
  EXPECT_EQ(src.horizon_hint(), -1);  // unknown upfront
  PageId p;
  long long count = 0;
  while (src.next(p)) {
    EXPECT_EQ(p, static_cast<PageId>(count % 12));
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST_F(TraceFormats, BactRejectsGarbageAndTruncation) {
  const std::string garbage = path("garbage.bact");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is not a bact file at all";
  }
  EXPECT_THROW(BactSource{garbage}, std::runtime_error);

  const Instance inst = make_instance(16, 4, 8, scan_trace(16, 300));
  const std::string file = path("full.bact");
  save_bact(inst, file);
  const auto full_size = std::filesystem::file_size(file);
  const std::string cut = path("cut.bact");
  {
    std::ifstream in(file, std::ios::binary);
    std::ofstream out(cut, std::ios::binary);
    std::vector<char> buf(full_size / 2);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_THROW(
      {
        BactSource src(cut);
        PageId p;
        while (src.next(p)) {
        }
      },
      std::runtime_error);

  EXPECT_THROW(BactSource{path("missing.bact")}, std::runtime_error);
}

TEST_F(TraceFormats, BactWriterRejectsBadPagesAndDeclaredMismatch) {
  const BlockMap blocks = BlockMap::contiguous(8, 2);
  std::ostringstream os;
  BactWriter writer(os, blocks, 4, /*declared_T=*/3);
  EXPECT_THROW(writer.add(8), std::out_of_range);
  EXPECT_THROW(writer.add(-1), std::out_of_range);
  writer.add(0);
  writer.add(1);
  EXPECT_THROW(writer.finish(), std::logic_error);  // wrote 2, declared 3
}

TEST_F(CsvTrace, NumericKeysGetExtentBlocks) {
  const std::string file = path("lba.csv");
  {
    std::ofstream out(file);
    out << "timestamp,key,size\n";  // header skipped: timestamp not numeric
    out << "1,100,4096\n2,101,4096\n3,102,4096\n4,200,8192\n"
        << "5,100,4096\n6,201,8192\n7,102,4096\n";
  }
  CsvOptions options;
  options.block_pages = 4;
  options.k = 4;
  const CsvMapping mapping = build_csv_mapping(file, options);
  EXPECT_TRUE(mapping.numeric_keys);
  EXPECT_EQ(mapping.rows, 7);
  ASSERT_EQ(mapping.key_to_page.size(), 5u);  // 100 101 102 200 201
  // Keys 100..102 share extent 25 (span 4); 200..201 share extent 50.
  const PageId p100 = mapping.key_to_page.at("100");
  const PageId p102 = mapping.key_to_page.at("102");
  const PageId p200 = mapping.key_to_page.at("200");
  const PageId p201 = mapping.key_to_page.at("201");
  EXPECT_EQ(mapping.blocks.block_of(p100), mapping.blocks.block_of(p102));
  EXPECT_EQ(mapping.blocks.block_of(p200), mapping.blocks.block_of(p201));
  EXPECT_NE(mapping.blocks.block_of(p100), mapping.blocks.block_of(p200));

  CsvSource src(file, std::make_shared<const CsvMapping>(mapping), options);
  const Instance inst = materialize(src);
  EXPECT_EQ(inst.horizon(), 7);
  EXPECT_EQ(inst.requests[0], p100);
  EXPECT_EQ(inst.requests[4], p100);
}

TEST_F(CsvTrace, StringKeysGetArrivalBlocks) {
  const std::string file = path("objects.csv");
  {
    std::ofstream out(file);
    out << "1,/img/a.jpg,100\n2,/img/b.jpg,150\n3,/js/app.js,80\n"
        << "4,/img/a.jpg,100\n5,/css/site.css,60\n";
  }
  CsvOptions options;
  options.block_pages = 2;
  options.k = 2;
  const CsvMapping mapping = build_csv_mapping(file, options);
  EXPECT_FALSE(mapping.numeric_keys);
  EXPECT_EQ(mapping.key_to_page.size(), 4u);
  // First-seen order: a.jpg=0, b.jpg=1 (block 0); app.js=2, site.css=3.
  EXPECT_EQ(mapping.blocks.block_of(0), mapping.blocks.block_of(1));
  EXPECT_EQ(mapping.blocks.block_of(2), mapping.blocks.block_of(3));
}

TEST_F(CsvTrace, StreamingMatchesMaterialized) {
  const std::string file = path("trace.csv");
  {
    std::ofstream out(file);
    Xoshiro256pp rng(5);
    for (int i = 0; i < 400; ++i)
      out << i << "," << 1000 + rng.below(24) << ",4096\n";
  }
  CsvOptions options;
  options.block_pages = 4;
  options.k = 8;
  auto mapping = std::make_shared<const CsvMapping>(
      build_csv_mapping(file, options));
  CsvSource once(file, mapping, options);
  const Instance inst = materialize(once);
  CsvSource src(file, mapping, options);
  EXPECT_EQ(src.horizon_hint(), 400);

  LruPolicy a, b;
  EXPECT_TRUE(identical_run(simulate(inst, a), simulate(src, b)));
  src.rewind();
  LruPolicy c;
  EXPECT_TRUE(identical_run(simulate(inst, a), simulate(src, c)));
}

TEST_F(CsvTrace, RejectsEmptyAndMissingFiles) {
  CsvOptions options;
  options.k = 4;
  EXPECT_THROW(build_csv_mapping(path("missing.csv"), options),
               std::runtime_error);
  const std::string empty = path("empty.csv");
  {
    std::ofstream out(empty);
    out << "timestamp,key,size\n";  // header only, no data
  }
  EXPECT_THROW(build_csv_mapping(empty, options), std::runtime_error);
  CsvOptions bad = options;
  bad.k = 0;
  EXPECT_THROW(build_csv_mapping(empty, bad), std::invalid_argument);
}

TEST_F(CsvTrace, SizeColumnIsOptional) {
  const std::string file = path("two_col.csv");
  {
    std::ofstream out(file);
    out << "1,alpha\n2,beta\n3,alpha\n";  // timestamp,key only
  }
  CsvOptions options;
  options.block_pages = 2;
  options.k = 2;
  const CsvMapping mapping = build_csv_mapping(file, options);
  EXPECT_EQ(mapping.rows, 3);
  EXPECT_EQ(mapping.key_to_page.size(), 2u);
}

TEST_F(CsvTrace, RejectsNonFiniteAndHexFloatFields) {
  // Regression: strtod-based parsing accepted "inf"/"nan"/hex-float
  // timestamps as numeric, turning corrupt rows into data rows, and
  // coerced non-finite sizes into instance structure.
  const std::string file = path("corrupt.csv");
  {
    std::ofstream out(file);
    out << "inf,666,4096\n";    // non-finite timestamp: not a data row
    out << "nan,667,4096\n";    // ditto
    out << "0x1p3,668,4096\n";  // hex-float timestamp: not a data row
    out << "1e999,669,4096\n";  // overflows to +inf: not a data row
    out << "1,10,4096\n2,11,4096\n";
  }
  CsvOptions options;
  options.block_pages = 2;
  options.k = 2;
  const CsvMapping mapping = build_csv_mapping(file, options);
  EXPECT_EQ(mapping.rows, 2);  // only the two well-formed rows survive
  EXPECT_EQ(mapping.key_to_page.count("666"), 0u);
  EXPECT_EQ(mapping.key_to_page.count("668"), 0u);
}

TEST_F(CsvTrace, ToleratesSpacePaddingAndCrlfLineEndings) {
  // strtod skipped leading whitespace, so space-padded fields have
  // always been data rows; the finite-decimal gate must keep accepting
  // them, and a CRLF file must not glue '\r' onto the last field.
  const std::string file = path("padded.csv");
  {
    std::ofstream out(file);
    out << "1, 10, 4096\r\n";
    out << " 2,11,4096\r\n";
    out << "3,12, 8192\n";
  }
  CsvOptions options;
  options.block_pages = 4;
  options.k = 4;
  options.strict = true;  // '\r' in the size field would throw here
  const CsvMapping mapping = build_csv_mapping(file, options);
  EXPECT_EQ(mapping.rows, 3);
  EXPECT_EQ(mapping.key_to_page.size(), 3u);
  // The key field itself is not trimmed (keys are opaque): ' 10' != '11'.
  EXPECT_EQ(mapping.key_to_page.count("11"), 1u);
}

TEST_F(CsvTrace, NonFiniteSizesFallBackToUnitSize) {
  const std::string file = path("badsize.csv");
  {
    std::ofstream out(file);
    out << "1,10,inf\n2,10,nan\n3,10,4096\n";
  }
  CsvOptions options;
  options.block_pages = 2;
  options.k = 2;
  options.cost_from_size = true;
  options.page_bytes = 1.0;
  const CsvMapping mapping = build_csv_mapping(file, options);
  EXPECT_EQ(mapping.rows, 3);
  // inf/nan sizes coerce to 1.0 (lax mode): mean = (1 + 1 + 4096) / 3.
  const BlockId b = mapping.blocks.block_of(mapping.key_to_page.at("10"));
  EXPECT_DOUBLE_EQ(mapping.blocks.cost(b), (1.0 + 1.0 + 4096.0) / 3.0);
}

TEST_F(CsvTrace, StrictModeReportsOffendingRowNumber) {
  const std::string file = path("strict.csv");
  {
    std::ofstream out(file);
    out << "timestamp,key,size\n";  // header: still skipped in strict mode
    out << "1,10,4096\n";
    out << "2,11,oops\n";  // malformed size on line 3
  }
  CsvOptions options;
  options.block_pages = 2;
  options.k = 2;
  options.strict = true;
  try {
    build_csv_mapping(file, options);
    FAIL() << "strict mode should reject the malformed size field";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << "diagnostic was: " << e.what();
  }

  // The same trace parses in lax mode (size coerced to 1.0)...
  options.strict = false;
  const CsvMapping lax = build_csv_mapping(file, options);
  EXPECT_EQ(lax.rows, 2);

  // ...and strict mode also rejects empty keys, with the row number.
  const std::string nokey = path("nokey.csv");
  {
    std::ofstream out(nokey);
    out << "1,10,4096\n2,,4096\n";
  }
  options.strict = true;
  try {
    build_csv_mapping(nokey, options);
    FAIL() << "strict mode should reject the empty key";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

TEST_F(CsvTrace, StrictStreamingSourceReportsRowNumberAfterRewind) {
  const std::string file = path("stream_strict.csv");
  {
    std::ofstream out(file);
    out << "1,10,4096\n2,11,4096\n";
  }
  CsvOptions options;
  options.block_pages = 2;
  options.k = 2;
  options.strict = true;
  auto mapping = std::make_shared<const CsvMapping>(
      build_csv_mapping(file, options));
  CsvSource src(file, mapping, options);
  PageId p = 0;
  int n = 0;
  while (src.next(p)) ++n;
  EXPECT_EQ(n, 2);
  src.rewind();  // line counter must restart with the stream
  n = 0;
  while (src.next(p)) ++n;
  EXPECT_EQ(n, 2);
}

TEST_F(CsvTrace, CostFromSizeScalesBlockCosts) {
  const std::string file = path("sized.csv");
  {
    std::ofstream out(file);
    out << "1,10,4096\n2,11,4096\n3,100,65536\n4,101,65536\n";
  }
  CsvOptions options;
  options.block_pages = 2;
  options.k = 4;
  options.cost_from_size = true;
  const CsvMapping mapping = build_csv_mapping(file, options);
  const BlockId cheap = mapping.blocks.block_of(mapping.key_to_page.at("10"));
  const BlockId dear = mapping.blocks.block_of(mapping.key_to_page.at("100"));
  EXPECT_LT(mapping.blocks.cost(cheap), mapping.blocks.cost(dear));
}

}  // namespace
}  // namespace bac
