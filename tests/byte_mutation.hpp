#pragma once
// Seeded byte-mutation harness for the JSONL file readers.
//
// Each mutant is the original file with 1-3 random edits (overwrite, insert
// or delete one byte), the byte drawn mostly from JSON syntax and number
// characters so the edits reach both structure and values. The reader under
// test must either parse the mutant — `read` then checks the values it got
// are in range — or throw PreconditionError. Any other exception fails the
// calling test, and so does a crash or, under the sanitizers, undefined
// behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "support/contract.hpp"
#include "support/rng.hpp"

namespace ahg::test {

struct MutationTally {
  std::size_t parsed = 0;    ///< mutants the reader accepted
  std::size_t rejected = 0;  ///< mutants it refused with PreconditionError
};

/// Run `trials` mutants of `original` through `read(std::istream&)`.
template <typename Read>
MutationTally run_byte_mutations(const std::string& original, int trials,
                                 std::uint64_t seed, Read&& read) {
  const std::string alphabet = "0123456789-+.eE\"{}[],: \n\\ntfux";
  SplitMix64 rng(seed);
  MutationTally tally;
  for (int trial = 0; trial < trials; ++trial) {
    std::string mutant = original;
    const int edits = 1 + static_cast<int>(rng.next() % 3);
    for (int e = 0; e < edits && !mutant.empty(); ++e) {
      const std::size_t at = rng.next() % mutant.size();
      const char byte = rng.next() % 4 == 0
                            ? static_cast<char>(rng.next() & 0xFF)
                            : alphabet[rng.next() % alphabet.size()];
      switch (rng.next() % 3) {
        case 0: mutant[at] = byte; break;
        case 1: mutant.insert(at, 1, byte); break;
        default: mutant.erase(at, 1); break;
      }
    }
    std::istringstream in(mutant);
    try {
      read(in);
      ++tally.parsed;
    } catch (const PreconditionError&) {
      ++tally.rejected;
    }
  }
  return tally;
}

}  // namespace ahg::test
