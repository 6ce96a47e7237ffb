#pragma once
// Overflow-checked size arithmetic for table sizing.
//
// The |T|x|M|x2 tables (ScenarioCache, ledger capacities) size themselves
// with products that exceed 2^31 elements well before the 1M-task tier — narrow `int`/`uint32` arithmetic would wrap
// silently into an undersized (or wildly oversized) allocation and corrupt
// every subsequent indexed access. All sizing products route through
// checked_mul: the math stays in std::size_t end to end, and a product that
// cannot be represented throws PreconditionError at construction instead of
// wrapping.

#include <cstddef>
#include <limits>
#include <string>

#include "support/contract.hpp"

namespace ahg {

/// a * b in std::size_t, throwing PreconditionError (with `what` naming the
/// table being sized) instead of wrapping on overflow.
inline std::size_t checked_mul(std::size_t a, std::size_t b, const char* what) {
  if (b != 0 && a > std::numeric_limits<std::size_t>::max() / b) {
    throw PreconditionError(std::string("size overflow sizing ") + what + ": " +
                            std::to_string(a) + " * " + std::to_string(b) +
                            " exceeds SIZE_MAX");
  }
  return a * b;
}

inline std::size_t checked_mul(std::size_t a, std::size_t b, std::size_t c,
                               const char* what) {
  return checked_mul(checked_mul(a, b, what), c, what);
}

}  // namespace ahg
