#include "spec/violation.hpp"

namespace graybox::spec {

std::string Violation::to_string() const {
  return "[" + std::to_string(time) + "] " + clause +
         (detail.empty() ? "" : ": " + detail);
}

}  // namespace graybox::spec
