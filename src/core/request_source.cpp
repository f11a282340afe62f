#include "core/request_source.hpp"

#include <algorithm>
#include <stdexcept>

namespace bac {

namespace {
Instance make_header(int n_pages, int block_size, int k) {
  Instance header{BlockMap::contiguous(n_pages, block_size), {}, k};
  header.validate();
  return header;
}
}  // namespace

SyntheticSource::SyntheticSource(Kind kind, int n_pages, int block_size,
                                 int k, long long T, std::uint64_t seed)
    : kind_(kind),
      header_(make_header(n_pages, block_size, k)),
      T_(T),
      seed_(seed),
      rng_(seed) {
  if (T < 0) throw std::invalid_argument("SyntheticSource: negative horizon");
}

std::unique_ptr<SyntheticSource> SyntheticSource::uniform(
    int n_pages, int block_size, int k, long long T, std::uint64_t seed) {
  auto src = std::unique_ptr<SyntheticSource>(
      new SyntheticSource(Kind::Uniform, n_pages, block_size, k, T, seed));
  src->reset_state();
  return src;
}

std::unique_ptr<SyntheticSource> SyntheticSource::zipf(int n_pages,
                                                       int block_size, int k,
                                                       long long T,
                                                       double alpha,
                                                       std::uint64_t seed) {
  auto src = std::unique_ptr<SyntheticSource>(
      new SyntheticSource(Kind::Zipf, n_pages, block_size, k, T, seed));
  src->sampler_ = ZipfSampler(n_pages, alpha);
  src->reset_state();
  return src;
}

std::unique_ptr<SyntheticSource> SyntheticSource::scan(int n_pages,
                                                       int block_size, int k,
                                                       long long T) {
  auto src = std::unique_ptr<SyntheticSource>(
      new SyntheticSource(Kind::Scan, n_pages, block_size, k, T, 0));
  src->reset_state();
  return src;
}

std::unique_ptr<SyntheticSource> SyntheticSource::phased(
    int n_pages, int block_size, int k, long long T, long long phase_len,
    int ws_size, std::uint64_t seed) {
  if (phase_len <= 0)
    throw std::invalid_argument("SyntheticSource: phase_len must be positive");
  if (ws_size <= 0)
    throw std::invalid_argument("SyntheticSource: ws_size must be positive");
  auto src = std::unique_ptr<SyntheticSource>(
      new SyntheticSource(Kind::Phased, n_pages, block_size, k, T, seed));
  src->phase_len_ = phase_len;
  src->ws_size_ = std::min(ws_size, n_pages);
  src->reset_state();
  return src;
}

std::unique_ptr<SyntheticSource> SyntheticSource::block_local(
    int n_pages, int block_size, int k, long long T, double stay, double alpha,
    std::uint64_t seed) {
  auto src = std::unique_ptr<SyntheticSource>(
      new SyntheticSource(Kind::BlockLocal, n_pages, block_size, k, T, seed));
  src->stay_ = stay;
  src->sampler_ = ZipfSampler(src->header_.blocks.n_blocks(), alpha);
  src->reset_state();
  return src;
}

void SyntheticSource::reset_state() {
  t_ = 0;
  rng_ = Xoshiro256pp(seed_);
  switch (kind_) {
    case Kind::Uniform:
    case Kind::Zipf:
    case Kind::Scan:
      break;
    case Kind::Phased: {
      const int n = header_.n_pages();
      universe_.resize(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i)
        universe_[static_cast<std::size_t>(i)] = i;
      ws_.clear();
      break;
    }
    case Kind::BlockLocal:
      // block_local_trace draws the starting block before its loop.
      current_block_ = sampler_.draw(rng_);
      break;
  }
}

bool SyntheticSource::next(PageId& p) { return next_batch(&p, 1) == 1; }

int SyntheticSource::next_batch(PageId* out, int cap) {
  if (cap <= 0 || t_ >= T_) return 0;
  const long long remaining = T_ - t_;
  const int m =
      remaining < cap ? static_cast<int>(remaining) : cap;
  const int n = header_.n_pages();
  switch (kind_) {
    case Kind::Uniform:
      for (int i = 0; i < m; ++i)
        out[i] =
            static_cast<PageId>(rng_.below(static_cast<std::uint64_t>(n)));
      break;
    case Kind::Zipf:
      for (int i = 0; i < m; ++i) out[i] = sampler_.draw(rng_);
      break;
    case Kind::Scan:
      for (int i = 0; i < m; ++i)
        out[i] = static_cast<PageId>((t_ + i) % n);
      break;
    case Kind::Phased:
      for (int i = 0; i < m; ++i) {
        if ((t_ + i) % phase_len_ == 0) {
          // Fresh working set via partial Fisher-Yates, like phased_trace.
          for (int j = 0; j < ws_size_; ++j) {
            const auto r = static_cast<std::size_t>(rng_.range(j, n - 1));
            std::swap(universe_[static_cast<std::size_t>(j)], universe_[r]);
          }
          ws_.assign(universe_.begin(), universe_.begin() + ws_size_);
        }
        out[i] = ws_[static_cast<std::size_t>(
            rng_.below(static_cast<std::uint64_t>(ws_size_)))];
      }
      break;
    case Kind::BlockLocal:
      for (int i = 0; i < m; ++i) {
        if (!rng_.bernoulli(stay_)) current_block_ = sampler_.draw(rng_);
        const auto pages = header_.blocks.pages_in(current_block_);
        out[i] =
            pages[static_cast<std::size_t>(rng_.below(pages.size()))];
      }
      break;
  }
  t_ += m;
  return m;
}

void SyntheticSource::rewind() { reset_state(); }

}  // namespace bac
