#include "trace/trace_io.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace bac {

void save_instance(const Instance& inst, std::ostream& os) {
  // 17 significant digits round-trips doubles exactly (block costs).
  const auto old_precision = os.precision(17);
  os << "blockcache-instance v1\n";
  os << "n " << inst.n_pages() << " k " << inst.k << "\n";
  os << "blocks " << inst.blocks.n_blocks() << "\n";
  for (BlockId b = 0; b < inst.blocks.n_blocks(); ++b) {
    os << "block " << b << " " << inst.blocks.cost(b);
    for (PageId p : inst.blocks.pages_in(b)) os << " " << p;
    os << "\n";
  }
  os << "requests " << inst.horizon() << "\n";
  for (std::size_t i = 0; i < inst.requests.size(); ++i) {
    os << inst.requests[i];
    os << (((i + 1) % 32 == 0) ? '\n' : ' ');
  }
  os << "\n";
  os.precision(old_precision);
}

void save_instance(const Instance& inst, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_instance: cannot open " + path);
  save_instance(inst, out);
}

namespace {

/// A text trace being parsed: its stream, and the name every error it
/// throws begins with ("text trace", then the file's path if it has one).
struct TextReader {
  std::istream& is;
  const std::string& name;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(name + ": " + what);
  }

  /// Next non-comment token, or empty at end of input.
  std::string try_token() {
    std::string tok;
    while (is >> tok) {
      if (tok[0] == '#') {
        std::string line;
        std::getline(is, line);
        continue;
      }
      return tok;
    }
    return {};
  }

  std::string next_token(const char* what) {
    std::string tok = try_token();
    if (tok.empty())
      fail(std::string("truncated input: expected ") + what +
           ", got end of file");
    return tok;
  }

  long long parse_int(const std::string& tok, const char* what) const {
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (errno != 0 || end != tok.c_str() + tok.size())
      fail(std::string("expected an integer for ") + what + ", got '" + tok +
           "'");
    return v;
  }

  long long next_int(const char* what) {
    return parse_int(next_token(what), what);
  }

  double next_double(const char* what) {
    const std::string tok = next_token(what);
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(tok.c_str(), &end);
    if (errno != 0 || end != tok.c_str() + tok.size())
      fail(std::string("expected a number for ") + what + ", got '" + tok +
           "'");
    return v;
  }

  void expect(const std::string& want) {
    const std::string got = next_token(want.c_str());
    if (got != want)
      fail("expected '" + want + "', got '" + got +
           (want == "blockcache-instance"
                ? "' (missing or wrong format header)"
                : "'"));
  }

  /// Parse everything through `requests <T>`; leaves the stream at the
  /// first request token. Returns the header instance (empty requests).
  Instance read_header(long long& T) {
    expect("blockcache-instance");
    expect("v1");
    expect("n");
    const long long n = next_int("n_pages");
    expect("k");
    const long long k = next_int("k");
    expect("blocks");
    const long long n_blocks = next_int("block count");
    if (n <= 0) fail("n_pages must be positive, got " + std::to_string(n));
    if (k <= 0) fail("k must be positive, got " + std::to_string(k));
    if (n_blocks <= 0)
      fail("block count must be positive, got " + std::to_string(n_blocks));

    std::vector<BlockId> page_to_block(static_cast<std::size_t>(n), -1);
    std::vector<Cost> costs(static_cast<std::size_t>(n_blocks), 1.0);
    for (long long i = 0; i < n_blocks; ++i) {
      expect("block");
      const long long b = next_int("block id");
      if (b < 0 || b >= n_blocks)
        fail("block id " + std::to_string(b) + " outside [0, " +
             std::to_string(n_blocks) + ")");
      costs[static_cast<std::size_t>(b)] = next_double("block cost");
      if (!(costs[static_cast<std::size_t>(b)] > 0))
        fail("block " + std::to_string(b) + " has non-positive cost");
      // Pages until the next keyword ("block" or "requests").
      for (;;) {
        std::string tok = try_token();
        if (tok.empty())
          fail("truncated input inside block " + std::to_string(b) +
               " (no 'requests' section)");
        if (tok == "block" || tok == "requests") {
          for (auto it = tok.rbegin(); it != tok.rend(); ++it)
            is.putback(*it);
          break;
        }
        const long long p = parse_int(tok, "page id");
        if (p < 0 || p >= n)
          fail("page id " + std::to_string(p) + " outside [0, " +
               std::to_string(n) + ") in block " + std::to_string(b));
        auto& assigned = page_to_block[static_cast<std::size_t>(p)];
        if (assigned >= 0 && assigned != b)
          fail("page " + std::to_string(p) + " assigned to blocks " +
               std::to_string(assigned) + " and " + std::to_string(b));
        assigned = static_cast<BlockId>(b);
      }
    }
    for (long long p = 0; p < n; ++p)
      if (page_to_block[static_cast<std::size_t>(p)] < 0)
        fail("page " + std::to_string(p) + " not assigned to any block");

    expect("requests");
    T = next_int("request count");
    if (T < 0) fail("negative request count " + std::to_string(T));

    Instance header{BlockMap(std::move(page_to_block), std::move(costs)),
                    {},
                    static_cast<int>(k)};
    header.validate();
    return header;
  }

  PageId read_request(long long index, long long T, int n) {
    const std::string tok = try_token();
    if (tok.empty())
      fail("truncated request section: got " + std::to_string(index) +
           " of " + std::to_string(T) + " requests");
    const long long p = parse_int(tok, "request page id");
    if (p < 0 || p >= n)
      fail("request " + std::to_string(index + 1) + " addresses page " +
           std::to_string(p) + " outside [0, " + std::to_string(n) + ")");
    return static_cast<PageId>(p);
  }
};

Instance open_text_header(std::ifstream& in, const std::string& name,
                          long long& T) {
  if (!in) throw std::runtime_error(name + ": cannot open");
  return TextReader{in, name}.read_header(T);
}

}  // namespace

Instance load_instance(std::istream& is) {
  const std::string name = "text trace";
  TextReader reader{is, name};
  long long T = 0;
  Instance inst = reader.read_header(T);
  inst.requests.reserve(static_cast<std::size_t>(T));
  for (long long i = 0; i < T; ++i)
    inst.requests.push_back(reader.read_request(i, T, inst.n_pages()));
  inst.validate();
  return inst;
}

TextTraceSource::TextTraceSource(const std::string& path)
    : name_("text trace " + path),
      in_(path),
      header_(open_text_header(in_, name_, T_)) {
  first_request_ = in_.tellg();
}

bool TextTraceSource::next(PageId& p) {
  if (yielded_ >= T_) return false;
  p = TextReader{in_, name_}.read_request(yielded_, T_, header_.n_pages());
  ++yielded_;
  return true;
}

void TextTraceSource::rewind() {
  in_.clear();
  in_.seekg(first_request_);
  if (!in_) throw std::runtime_error(name_ + ": rewind failed");
  yielded_ = 0;
}

}  // namespace bac
