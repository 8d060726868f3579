// Umbrella header for the graybox-stabilization library.
//
// Most applications only need core/harness.hpp (the assembled system) or
// wrapper/graybox_wrapper.hpp (to wrap their own TmeProcess); this header
// pulls in the full public API for exploratory use:
//
//   #include "graybox.hpp"
//   using namespace graybox;
//
// Layers, bottom to top (each only depends on the ones above it):
//   common  -> sim, clock -> net -> algebra, spec -> me -> lspec
//           -> wrapper -> core
#pragma once

#include "common/flags.hpp"     // IWYU pragma: export
#include "common/parallel.hpp"  // IWYU pragma: export
#include "common/report.hpp"    // IWYU pragma: export
#include "common/rng.hpp"       // IWYU pragma: export
#include "common/stats.hpp"     // IWYU pragma: export
#include "common/table.hpp"     // IWYU pragma: export
#include "common/types.hpp"     // IWYU pragma: export

#include "sim/scheduler.hpp"    // IWYU pragma: export
#include "sim/timer.hpp"        // IWYU pragma: export

#include "clock/logical_clock.hpp"  // IWYU pragma: export
#include "clock/timestamp.hpp"      // IWYU pragma: export
#include "clock/vector_clock.hpp"   // IWYU pragma: export

#include "net/channel.hpp"         // IWYU pragma: export
#include "net/delay.hpp"           // IWYU pragma: export
#include "net/fault_injector.hpp"  // IWYU pragma: export
#include "net/message.hpp"         // IWYU pragma: export
#include "net/network.hpp"         // IWYU pragma: export

#include "algebra/bitset.hpp"     // IWYU pragma: export
#include "algebra/checks.hpp"     // IWYU pragma: export
#include "algebra/generate.hpp"   // IWYU pragma: export
#include "algebra/scc.hpp"        // IWYU pragma: export
#include "algebra/synthesis.hpp"  // IWYU pragma: export
#include "algebra/system.hpp"     // IWYU pragma: export
#include "algebra/tolerance.hpp"  // IWYU pragma: export

#include "spec/monitor.hpp"    // IWYU pragma: export
#include "spec/unity.hpp"      // IWYU pragma: export
#include "spec/violation.hpp"  // IWYU pragma: export

#include "me/client.hpp"           // IWYU pragma: export
#include "me/fragile.hpp"          // IWYU pragma: export
#include "me/lamport.hpp"          // IWYU pragma: export
#include "me/ricart_agrawala.hpp"  // IWYU pragma: export
#include "me/tme_process.hpp"      // IWYU pragma: export

#include "lspec/lspec_clause_monitors.hpp"  // IWYU pragma: export
#include "lspec/program_monitors.hpp"       // IWYU pragma: export
#include "lspec/snapshot.hpp"               // IWYU pragma: export
#include "lspec/tme_monitors.hpp"           // IWYU pragma: export

#include "wrapper/graybox_wrapper.hpp"  // IWYU pragma: export

#include "core/engine.hpp"         // IWYU pragma: export
#include "core/experiment.hpp"     // IWYU pragma: export
#include "core/harness.hpp"        // IWYU pragma: export
#include "core/stabilization.hpp"  // IWYU pragma: export
