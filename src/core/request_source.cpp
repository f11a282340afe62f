#include "core/request_source.hpp"

#include <algorithm>
#include <stdexcept>

namespace bac {

SyntheticSource::SyntheticSource(Kind kind, const Instance& header,
                                 long long T, Xoshiro256pp rng)
    : kind_(kind),
      header_{header.blocks, {}, header.k},
      T_(T),
      start_(rng),
      rng_(rng) {
  header_.validate();
  if (header_.n_pages() == 0)
    throw std::invalid_argument("SyntheticSource: no pages to request");
  if (T < 0) throw std::invalid_argument("SyntheticSource: negative horizon");
}

std::unique_ptr<SyntheticSource> SyntheticSource::uniform(
    const Instance& header, long long T, Xoshiro256pp rng) {
  auto src = std::unique_ptr<SyntheticSource>(
      new SyntheticSource(Kind::Uniform, header, T, rng));
  src->reset_state();
  return src;
}

std::unique_ptr<SyntheticSource> SyntheticSource::zipf(const Instance& header,
                                                       long long T,
                                                       double alpha,
                                                       Xoshiro256pp rng) {
  auto src = std::unique_ptr<SyntheticSource>(
      new SyntheticSource(Kind::Zipf, header, T, rng));
  src->sampler_ = ZipfSampler(src->header_.n_pages(), alpha);
  src->reset_state();
  return src;
}

std::unique_ptr<SyntheticSource> SyntheticSource::scan(const Instance& header,
                                                       long long T) {
  auto src = std::unique_ptr<SyntheticSource>(
      new SyntheticSource(Kind::Scan, header, T, Xoshiro256pp(0)));
  src->reset_state();
  return src;
}

std::unique_ptr<SyntheticSource> SyntheticSource::phased(
    const Instance& header, long long T, long long phase_len, int ws_size,
    Xoshiro256pp rng) {
  if (phase_len <= 0)
    throw std::invalid_argument("SyntheticSource: phase_len must be positive");
  if (ws_size <= 0)
    throw std::invalid_argument("SyntheticSource: ws_size must be positive");
  auto src = std::unique_ptr<SyntheticSource>(
      new SyntheticSource(Kind::Phased, header, T, rng));
  src->phase_len_ = phase_len;
  src->ws_size_ = std::min(ws_size, src->header_.n_pages());
  src->reset_state();
  return src;
}

std::unique_ptr<SyntheticSource> SyntheticSource::block_local(
    const Instance& header, long long T, double stay, double alpha,
    Xoshiro256pp rng) {
  auto src = std::unique_ptr<SyntheticSource>(
      new SyntheticSource(Kind::BlockLocal, header, T, rng));
  src->stay_ = stay;
  src->sampler_ = ZipfSampler(src->header_.blocks.n_blocks(), alpha);
  src->reset_state();
  return src;
}

void SyntheticSource::reset_state() {
  t_ = 0;
  rng_ = start_;
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
      // The starting block is drawn before the first request.
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
          // Fresh working set via partial Fisher-Yates.
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

Instance materialize(RequestSource& source) {
  const Instance& context = source.context();
  Instance out{context.blocks, {}, context.k};
  const long long hint = source.horizon_hint();
  if (hint > 0) out.requests.reserve(static_cast<std::size_t>(hint));
  constexpr int kBatch = 512;
  PageId batch[kBatch];
  while (const int m = source.next_batch(batch, kBatch))
    out.requests.insert(out.requests.end(), batch, batch + m);
  out.validate();
  return out;
}

}  // namespace bac
