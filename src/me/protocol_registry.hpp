// The protocol registry: the open seam through which mutual-exclusion
// implementations reach the harness.
//
// The paper's reusability results (Theorem 4, Corollary 11) quantify over
// *every* everywhere-implementation of Lspec, so the set of programs the
// harness can assemble must be open, not a closed enum. A ProcessFactory
// names one implementation, declares its options (as a key=value schema
// with defaults, giving every configuration a canonical serialization for
// config digests), declares which parts of the Lspec reading it claims via
// SpecConformance, and constructs processes. The registry is the single
// source of algorithm names — the harness, the engine's config digests,
// the explorer CLI, and the benches all resolve names here.
//
// Built-in factories (Ricart-Agrawala, Lamport, Carvalho-Roucairol, and
// the FragileMe negative control) live in their algorithm's translation
// unit and are anchored by ProtocolRegistry::instance() referencing their
// accessor functions — a plain static registrar object would be dropped
// when linking from a static archive, since nothing else in a bench binary
// names the algorithm's TU. External implementations self-register through
// ProtocolRegistry::add() (tests/test_protocol_registry.cpp exercises the
// seam with a factory the library has never heard of).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "me/tme_process.hpp"

namespace graybox::me {

/// Which parts of the monitors' Lspec reading an implementation claims.
/// The harness installs the monitoring battery accordingly.
struct SpecConformance {
  /// Claims to *everywhere* implement Lspec (correct from any reachable
  /// state, Section 2.1). FragileMe sets this false: it implements Lspec
  /// only from its initial states and is the negative control for
  /// Theorem 8's premise.
  bool everywhere = true;
  /// Claims that knows_earlier(k) is backed by a view of k's actual
  /// request — Invariant I ("knows_earlier(j,k) => REQj lt REQk") applies.
  /// Implementations whose entry guard rests on *retained permissions*
  /// (Carvalho-Roucairol) set this false; the harness then monitors the
  /// weaker pairwise mutual-belief consistency instead of per-view truth.
  bool view_entry_truth = true;
  /// Claims FCFS entry order (ME3): a process never enters the CS while a
  /// peer whose request happened-before its own is still waiting.
  /// Carvalho-Roucairol sets this false — its retained-permission fast path
  /// deliberately trades request ordering for message-free consecutive
  /// entries, so a leased re-entry can overtake a causally earlier request
  /// even fault-free. The ME3 monitor exempts entries by non-claiming
  /// processes (fault jumps into the CS are still reported for everyone).
  bool fcfs = true;
};

/// One schema entry: an option key, its default, and a help line. Schema
/// order is canonical — serializations and digests list keys in it.
struct OptionSpec {
  std::string key;
  std::string default_value;
  std::string help;
};

/// Options resolved against a factory's schema: every schema key present
/// exactly once, in schema order, defaults filled in. The canonical form
/// is what config digests hash, so two configs that resolve identically
/// digest identically regardless of how their options were spelled.
class ResolvedOptions {
 public:
  const std::string& get(std::string_view key) const;
  bool get_bool(std::string_view key) const;
  std::uint64_t get_u64(std::string_view key) const;

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  /// "key1=value1,key2=value2" in schema order; "" for an empty schema.
  std::string canonical() const;

 private:
  friend class ProcessFactory;
  std::vector<std::pair<std::string, std::string>> entries_;
};

class ProcessFactory {
 public:
  virtual ~ProcessFactory() = default;

  /// Canonical registry name (e.g. "ricart-agrawala"). Also the value the
  /// constructed processes report from TmeProcess::algorithm().
  virtual std::string_view name() const = 0;

  /// Short alternative spellings accepted by lookups ("ra", "cr", ...).
  virtual std::vector<std::string_view> aliases() const { return {}; }

  virtual SpecConformance conformance() const = 0;

  /// The option schema; empty by default. Keys outside it are rejected.
  virtual std::vector<OptionSpec> option_schema() const { return {}; }

  /// Construct one process. `n` is the system size (== net.size(), passed
  /// for convenience and contract checks). `rng` is a dedicated stream for
  /// randomized constructions; the built-in factories draw nothing from it
  /// (their initial states are the deterministic paper inits), and a
  /// factory that does draw shifts no other stream — the harness splits it
  /// after every pre-existing stream.
  virtual std::unique_ptr<TmeProcess> make(
      ProcessId pid, std::size_t n, net::Network& net, Rng& rng,
      const ResolvedOptions& options) const = 0;

  /// Resolve "key=value" strings against the schema (later entries win;
  /// unknown keys abort with the schema listed). The layered harness
  /// options (uniform, then per-process) concatenate into one list before
  /// resolution.
  ResolvedOptions resolve(const std::vector<std::string>& options) const;

  /// "name" or "name[key=value,...]" — the canonical spec of one configured
  /// process, used by config digests and the engine's JSON cells.
  std::string canonical_spec(const ResolvedOptions& options) const;
};

class ProtocolRegistry {
 public:
  /// The process-wide registry, with the built-ins pre-registered.
  static ProtocolRegistry& instance();

  /// Register an external factory (not owned; must outlive the registry).
  /// Duplicate names or aliases abort.
  void add(const ProcessFactory* factory);

  /// Lookup by canonical name or alias; nullptr when absent.
  const ProcessFactory* find(std::string_view name) const;

  /// Lookup that aborts with the registered-name list on failure — the
  /// fail-fast path for configuration errors.
  const ProcessFactory& require(std::string_view name) const;

  /// Canonical names in registration order.
  std::vector<std::string_view> names() const;

  /// Registration-order access (for completeness smokes over all
  /// implementations).
  const std::vector<const ProcessFactory*>& factories() const {
    return factories_;
  }

 private:
  std::vector<const ProcessFactory*> factories_;
};

// Built-in factory accessors, defined in each algorithm's .cpp file.
// instance() references them, which anchors those translation units into
// every binary that links the registry.
const ProcessFactory& ricart_agrawala_factory();
const ProcessFactory& lamport_factory();
const ProcessFactory& carvalho_roucairol_factory();
const ProcessFactory& fragile_factory();

}  // namespace graybox::me
