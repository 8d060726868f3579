// One command-line spelling for the harness knobs: n, algorithm, wrapped,
// level1, delta, think, eat and seed. Both CLIs (tools/graybox_mc,
// examples/explorer) read their system through it, each onto defaults of
// its own, and graybox_mc writes a trace's system with it and reads it back.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "core/harness.hpp"

namespace graybox::core {

/// `spec` plus one flag per harness knob, each help text ending in the
/// value `defaults` holds for it.
std::map<std::string, std::string> with_harness_flags(
    const HarnessConfig& defaults,
    std::map<std::string, std::string> spec = {});

/// `defaults` with every harness knob that `flags` carries applied. A value
/// its flag cannot read exits 2 (Flags); an unreadable algorithm spec
/// aborts when the registry resolves it.
HarnessConfig harness_from_flags(const Flags& flags, HarnessConfig defaults);

/// The system `config` names, as "--name=value" arguments: every knob but
/// the seed (which config_digest leaves out too), the algorithm as
/// algorithm_spec and doubles in shortest round-trip form, so that
/// harness_from_flags reads them back onto any defaults to the same knobs.
std::vector<std::string> harness_flags(const HarnessConfig& config);

}  // namespace graybox::core
