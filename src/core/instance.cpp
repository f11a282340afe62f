#include "core/instance.hpp"

#include <stdexcept>

namespace bac {

void Instance::validate() const {
  if (k <= 0) throw std::invalid_argument("Instance: k must be positive");
  if (blocks.beta() > k)
    throw std::invalid_argument("Instance: beta must be <= k");
  for (PageId p : requests)
    if (p < 0 || p >= blocks.n_pages())
      throw std::invalid_argument("Instance: request to invalid page");
}

}  // namespace bac
