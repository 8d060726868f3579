#include "mc/trace.hpp"

#include <sstream>

namespace graybox::mc {

std::string ScheduleTrace::to_text() const {
  std::ostringstream out;
  out << "graybox-mc-trace v1\n";
  out << "seed " << seed << "\n";
  if (!choices.empty()) {
    out << "choices";
    for (std::uint32_t c : choices) out << " " << c;
    out << "\n";
  }
  for (const FaultAt& f : faults) {
    out << "fault " << f.at_event << " "
        << static_cast<unsigned>(f.fault.code) << " "
        << f.fault.a << " " << f.fault.b << " " << f.fault.index << " "
        << f.fault.index2 << " " << f.fault.mask << "\n";
  }
  return out.str();
}

std::optional<ScheduleTrace> ScheduleTrace::from_text(
    const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header) || header != "graybox-mc-trace v1")
    return std::nullopt;
  ScheduleTrace trace;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "seed") {
      if (!(ls >> trace.seed)) return std::nullopt;
    } else if (key == "choices") {
      std::uint32_t c;
      while (ls >> c) trace.choices.push_back(c);
    } else if (key == "fault") {
      FaultAt f;
      unsigned code;
      if (!(ls >> f.at_event >> code >> f.fault.a >> f.fault.b >>
            f.fault.index >> f.fault.index2 >> f.fault.mask))
        return std::nullopt;
      // A code past the vocabulary would replay as a silent no-op.
      if (code >= net::kFaultKindCount) return std::nullopt;
      f.fault.code = static_cast<net::FaultKind>(code);
      trace.faults.push_back(f);
    } else {
      return std::nullopt;
    }
  }
  return trace;
}

}  // namespace graybox::mc
