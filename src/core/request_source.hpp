// Streaming request sources: the simulator's input abstraction.
//
// A RequestSource yields requests one at a time over a fixed static
// structure (block map + cache size), so simulations never need the whole
// request vector in memory — the enabler for replaying multi-hundred-
// million-request production traces. The materialized Instance becomes
// just one adapter (InstanceSource); synthetic generators, the v1 text
// format, the .bact binary format, and CSV key traces provide the others,
// and materialize() turns any of them back into an Instance.
//
// Contract:
//   - context() is valid for the source's lifetime and carries the block
//     structure and k. For materialized sources it also carries the full
//     request vector (offline policies need it); for true streams its
//     `requests` is empty and materialized() is false.
//   - next() yields requests in order; rewind() restarts the stream so
//     Monte-Carlo trials can replay the same sequence.
//   - next_batch() drains up to `cap` requests into a caller buffer in one
//     virtual call; sources override it with tight decode loops. It must
//     be behaviourally identical to a next() loop: same requests in the
//     same order, same exceptions, and 0 returned exactly at end of
//     stream (a partial batch < cap is only ever the final one). next()
//     and next_batch() share the stream position and may be mixed.
//   - horizon_hint() is the number of requests when known upfront
//     (reserve() sizing), or -1 for open-ended streams. It is a hint:
//     the stream end is still signalled by next()/next_batch(), so a
//     consumer must not trust it to stop early.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/instance.hpp"
#include "util/rng.hpp"
#include "util/zipf_sampler.hpp"

namespace bac {

class RequestSource {
 public:
  virtual ~RequestSource() = default;

  /// Static structure: blocks and k (plus requests when materialized()).
  [[nodiscard]] virtual const Instance& context() const = 0;

  /// True when context().requests holds the whole trace.
  [[nodiscard]] virtual bool materialized() const { return false; }

  /// Number of requests the stream will yield, or -1 when unknown.
  [[nodiscard]] virtual long long horizon_hint() const { return -1; }

  /// Yield the next request into `p`; false at end of stream.
  virtual bool next(PageId& p) = 0;

  /// Fill out[0, cap) with the next requests; returns how many were
  /// written, 0 exactly at end of stream. The default loops over next();
  /// overrides replace the per-request virtual dispatch with one tight
  /// decode/copy loop per batch (the simulate() hot path consumes the
  /// stream in 512-request batches).
  virtual int next_batch(PageId* out, int cap) {
    int i = 0;
    while (i < cap && next(out[i])) ++i;
    return i;
  }

  /// Restart from the first request.
  virtual void rewind() = 0;
};

/// Adapter over a materialized Instance (borrowed or owned). This is what
/// simulate(const Instance&, ...) wraps, so the whole existing test and
/// bench surface runs through the streaming core unchanged.
class InstanceSource final : public RequestSource {
 public:
  /// Borrow `inst` (must outlive the source).
  explicit InstanceSource(const Instance& inst) : inst_(&inst) {}
  /// Take ownership of `inst`.
  explicit InstanceSource(Instance&& inst)
      : owned_(std::make_unique<Instance>(std::move(inst))),
        inst_(owned_.get()) {}

  [[nodiscard]] const Instance& context() const override { return *inst_; }
  [[nodiscard]] bool materialized() const override { return true; }
  [[nodiscard]] long long horizon_hint() const override {
    return static_cast<long long>(inst_->requests.size());
  }

  bool next(PageId& p) override {
    if (pos_ >= inst_->requests.size()) return false;
    p = inst_->requests[pos_++];
    return true;
  }
  int next_batch(PageId* out, int cap) override {
    if (cap <= 0 || pos_ >= inst_->requests.size()) return 0;
    const std::size_t avail = inst_->requests.size() - pos_;
    const auto m = static_cast<int>(
        std::min(static_cast<std::size_t>(cap), avail));
    std::memcpy(out, inst_->requests.data() + pos_,
                static_cast<std::size_t>(m) * sizeof(PageId));
    pos_ += static_cast<std::size_t>(m);
    return m;
  }
  void rewind() override { pos_ = 0; }

 private:
  std::unique_ptr<Instance> owned_;
  const Instance* inst_;
  std::size_t pos_ = 0;
};

/// The five synthetic request processes (uniform, zipf, scan, phased,
/// block-local), drawn one request at a time with O(n_pages) state. This
/// is the only place a synthetic request is drawn: the trace/generators.hpp
/// vectors, the sweep's synthetic workloads and the fuzz instances all
/// drain one of these. Each factory takes the header to report (blocks and
/// k; only block_local draws from the blocks, the others from pages
/// [0, n_pages)) and the generator's starting state, which rewind()
/// restores, so every replay is identical and costs no table rebuild.
/// Zipf and blocklocal draw pages (blocks) through a ZipfSampler
/// (util/zipf_sampler.hpp) built once per source. Every factory throws
/// std::invalid_argument on a negative horizon, an empty universe or a
/// header that fails Instance::validate(); block_local also on a header
/// with an empty block.
class SyntheticSource final : public RequestSource {
 public:
  /// Pages drawn uniformly from [0, n_pages).
  static std::unique_ptr<SyntheticSource> uniform(const Instance& header,
                                                  long long T,
                                                  Xoshiro256pp rng);
  /// Zipf(alpha) over pages 0..n-1, page 0 the most popular.
  static std::unique_ptr<SyntheticSource> zipf(const Instance& header,
                                               long long T, double alpha,
                                               Xoshiro256pp rng);
  /// The cyclic scan 0, 1, ..., n-1, 0, 1, ...; draws nothing.
  static std::unique_ptr<SyntheticSource> scan(const Instance& header,
                                               long long T);
  /// Phases of `phase_len` requests, each uniform over a fresh working
  /// set of `ws_size` pages (clamped to n_pages) drawn by a partial
  /// Fisher-Yates shuffle. Throws std::invalid_argument when phase_len or
  /// ws_size is non-positive.
  static std::unique_ptr<SyntheticSource> phased(const Instance& header,
                                                 long long T,
                                                 long long phase_len,
                                                 int ws_size,
                                                 Xoshiro256pp rng);
  /// With probability `stay` the next request stays in the current block,
  /// otherwise a new block is drawn Zipf(alpha) over the header's block
  /// ids; the page is uniform within the block.
  static std::unique_ptr<SyntheticSource> block_local(const Instance& header,
                                                      long long T, double stay,
                                                      double alpha,
                                                      Xoshiro256pp rng);

  [[nodiscard]] const Instance& context() const override { return header_; }
  [[nodiscard]] long long horizon_hint() const override { return T_; }
  bool next(PageId& p) override;
  /// One switch on the generator kind per batch instead of per request;
  /// draws the exact same RNG sequence as a next() loop.
  int next_batch(PageId* out, int cap) override;
  void rewind() override;

 private:
  enum class Kind { Uniform, Zipf, Scan, Phased, BlockLocal };

  SyntheticSource(Kind kind, const Instance& header, long long T,
                  Xoshiro256pp rng);

  Kind kind_;
  Instance header_;  ///< blocks + k, empty requests
  long long T_;
  long long t_ = 0;  ///< requests yielded so far
  Xoshiro256pp start_;  ///< the generator state rewind() restores
  Xoshiro256pp rng_;

  // Zipf / BlockLocal: popularity over pages / blocks.
  ZipfSampler sampler_;
  // Phased.
  long long phase_len_ = 0;
  int ws_size_ = 0;
  std::vector<PageId> universe_;
  std::vector<PageId> ws_;
  // BlockLocal.
  double stay_ = 0;
  BlockId current_block_ = 0;

  void reset_state();
};

/// The source's blocks and k plus the rest of its stream, validated: the
/// one way a stream becomes a materialized Instance. It starts from the
/// blocks and k only, so draining an InstanceSource yields each request
/// once.
Instance materialize(RequestSource& source);

}  // namespace bac
