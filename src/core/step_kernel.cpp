#include "core/step_kernel.hpp"

#include <stdexcept>
#include <string>

namespace bac {

void StepKernel::refuse_time_wrap() const {
  throw std::runtime_error(
      "policy " + policy_->name() +
      ": refusing request 2^31 - 1 (Time is 32-bit, and policies compute "
      "t + 1)");
}

void StepKernel::fail_audit(PageId p) const {
  const std::string at = " at t=" + std::to_string(t_);
  if (!cache_.contains(p))
    throw std::runtime_error("policy " + policy_->name() +
                             " left requested page " + std::to_string(p) +
                             " uncached" + at);
  throw std::runtime_error("policy " + policy_->name() +
                           " exceeded capacity " + std::to_string(k_) + at);
}

}  // namespace bac
