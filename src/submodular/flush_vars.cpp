#include "submodular/flush_vars.hpp"

#include <algorithm>
#include <stdexcept>

namespace bac {

namespace {
auto find_entry(std::vector<FlushVars::Entry>& list, Time t) {
  return std::lower_bound(
      list.begin(), list.end(), t,
      [](const FlushVars::Entry& e, Time time) { return e.t < time; });
}
auto find_entry(const std::vector<FlushVars::Entry>& list, Time t) {
  return std::lower_bound(
      list.begin(), list.end(), t,
      [](const FlushVars::Entry& e, Time time) { return e.t < time; });
}
}  // namespace

FlushVars::FlushVars(int n_blocks)
    : per_block_(static_cast<std::size_t>(n_blocks)),
      stamps_(static_cast<std::size_t>(n_blocks)) {
  for (std::uint64_t& s : stamps_) s = fresh_stamp();
}

double FlushVars::get(BlockId b, Time t) const {
  const auto& list = per_block_[static_cast<std::size_t>(b)];
  const auto it = find_entry(list, t);
  return (it != list.end() && it->t == t) ? it->phi : 0.0;
}

double FlushVars::increase(BlockId b, Time t, double delta) {
  if (delta < 0)
    throw std::invalid_argument("FlushVars::increase: negative delta");
  auto& list = per_block_[static_cast<std::size_t>(b)];
  auto it = find_entry(list, t);
  if (it == list.end() || it->t != t) it = list.insert(it, Entry{t, 0.0});
  it->phi += delta;
  stamps_[static_cast<std::size_t>(b)] = fresh_stamp();
  return it->phi;
}

double FlushVars::raise_to(BlockId b, Time t, double v) {
  const double cur = get(b, t);
  if (v <= cur) return 0.0;
  increase(b, t, v - cur);
  return v - cur;
}

Cost FlushVars::total_cost(const BlockMap& blocks) const {
  Cost total = 0;
  for (BlockId b = 0; b < blocks.n_blocks(); ++b) {
    double mass = 0;
    for (const Entry& e : entries(b))
      if (e.t >= 1) mass += e.phi;
    total += blocks.cost(b) * mass;
  }
  return total;
}

double FlushVars::mass_after(BlockId b, Time t0) const {
  const auto& list = per_block_[static_cast<std::size_t>(b)];
  double mass = 0;
  for (auto it = list.rbegin(); it != list.rend() && it->t > t0; ++it)
    mass += it->phi;
  return mass;
}

double FlushVars::x_value(const FlushCoverage& cov, PageId p) const {
  const Time r = cov.last_request(p);
  if (r == kNeverRequested) return 1.0;
  const BlockId b = cov.blocks().block_of(p);
  return std::min(1.0, mass_after(b, r));
}

}  // namespace bac
