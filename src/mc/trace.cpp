#include "mc/trace.hpp"

#include <sstream>
#include <utility>

namespace graybox::mc {

std::string ScheduleTrace::to_text(const TraceHeader& header) const {
  std::ostringstream out;
  out << "graybox-mc-trace v2\n";
  for (const std::string& flag : header.flags) out << flag << "\n";
  if (!header.config.empty()) out << "config " << header.config << "\n";
  if (!header.bug.empty()) out << "bug " << header.bug << "\n";
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

std::optional<ScheduleTrace> ScheduleTrace::from_text(const std::string& text,
                                                     TraceHeader* header) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "graybox-mc-trace v2")
    return std::nullopt;
  TraceHeader read;
  ScheduleTrace trace;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key.rfind("--", 0) == 0) {
      read.flags.push_back(line);
    } else if (key == "config") {
      if (!(ls >> read.config)) return std::nullopt;
    } else if (key == "bug") {
      if (!(ls >> read.bug)) return std::nullopt;
    } else if (key == "seed") {
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
  if (header != nullptr) *header = std::move(read);
  return trace;
}

}  // namespace graybox::mc
