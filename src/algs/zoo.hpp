// The by-name policy registry the bacsim sweep driver resolves CLI policy
// lists against, and the full line-up built from it for head-to-head
// benchmarks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"

namespace bac {

/// Every registry policy at its default, one each, in policy_names()
/// order.
std::vector<std::unique_ptr<OnlinePolicy>> make_policy_zoo();

/// Registry names accepted by make_policy (stable CLI identifiers, unlike
/// the display names policies report via name()).
std::vector<std::string> policy_names();

/// Construct a policy from a spec: a registry name, optionally followed
/// by `@<value>` to set the policy's knob (e.g. "s3fifo", "s3fifo@0.05" —
/// the small-queue fraction). Throws std::invalid_argument for unknown
/// names (the message shows the grammar, the registry, and a nearest-name
/// suggestion), for a knob on a knobless policy, and for malformed or
/// out-of-range knob values.
std::unique_ptr<OnlinePolicy> make_policy(const std::string& spec);

}  // namespace bac
