// Timestamps and the `lt` total order (paper Section 3.2, Timestamp Spec).
//
// The Environment Spec requires timestamps "from a total domain" such that
// e hb f implies ts.e < ts.f. Following the paper's instantiation, a
// timestamp is a Lamport logical-clock value paired with the process id as
// tiebreaker:
//
//   lc.e lt lc.f  ==  lc.e < lc.f  \/  (lc.e = lc.f  /\  j < k)
//
// Timestamp is a regular value type: totally ordered, hashable, cheap to
// copy. Counter 0 with pid p is the initial "no event yet" timestamp of
// process p (Init: ts.j = 0 /\ REQ.j = 0).
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace graybox::clk {

struct Timestamp {
  std::uint64_t counter = 0;
  ProcessId pid = 0;

  /// The paper's `lt` relation is exactly lexicographic (counter, pid)
  /// comparison, so defaulted three-way comparison implements it.
  friend constexpr auto operator<=>(const Timestamp&,
                                    const Timestamp&) = default;

  std::string to_string() const;
};

/// The paper's `lt` predicate, named for readability at call sites that
/// quote Lspec clauses ("j.REQk lt REQj").
constexpr bool lt(const Timestamp& a, const Timestamp& b) { return a < b; }

std::ostream& operator<<(std::ostream& os, const Timestamp& ts);

/// An arbitrary timestamp for state and message corruption, drawn in a
/// fixed order: a shift in [0, 63], a raw 64-bit counter shifted right by
/// it, then a pid in [0, n). The log-uniform counter covers everything from
/// 0 to astronomically large values, exercising both the "corrupted low"
/// (deadlock-prone) and "corrupted high" (clock-jump) recovery paths.
Timestamp random_timestamp(Rng& rng, std::size_t n);

}  // namespace graybox::clk
