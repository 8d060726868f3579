#include "clock/timestamp.hpp"

#include <ostream>

namespace graybox::clk {

std::string Timestamp::to_string() const {
  return std::to_string(counter) + "." + std::to_string(pid);
}

std::ostream& operator<<(std::ostream& os, const Timestamp& ts) {
  return os << ts.to_string();
}

Timestamp random_timestamp(Rng& rng, std::size_t n) {
  const int shift = static_cast<int>(rng.uniform(0, 63));
  Timestamp ts;
  ts.counter = rng.next() >> shift;
  ts.pid = static_cast<ProcessId>(rng.index(n));
  return ts;
}

}  // namespace graybox::clk
