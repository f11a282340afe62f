// Negative fixture: the two approved shapes — a dense-id vector, and
// the open-addressing bac::FlatMap from util/flat_hash.hpp.
#include <vector>

#include "util/flat_hash.hpp"

struct SlotIndex {
  std::vector<int> slot_of;  // keyed by dense page id
  bac::FlatMap<unsigned long long, int> sparse_slot_of;
  bac::FlatMap<unsigned long long, bool> resident;
};
