// Violation records produced by specification monitors.
//
// A monitor never stops a run: stabilization is precisely the property that
// violations are confined to a finite prefix, so monitors *record* breaches
// with their simulated time and the stabilization detector later asks "when
// was the last one?". (Contrast masking fault-tolerance, where a single
// violation is fatal — Section 6 discusses the distinction.)
#pragma once

#include <string>

#include "common/types.hpp"

namespace graybox::spec {

struct Violation {
  SimTime time = 0;
  /// Name of the violated specification clause, e.g. "ME1" or
  /// "StructuralSpec(3)".
  std::string clause;
  /// Human-readable details of the breach.
  std::string detail;

  std::string to_string() const;
};

}  // namespace graybox::spec
