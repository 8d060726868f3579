// The protocol registry: the open seam through which mutual-exclusion
// implementations reach the harness.
//
// The paper's reusability results (Theorem 4, Corollary 11) quantify over
// *every* everywhere-implementation of Lspec, so the set of programs the
// harness can assemble must be open, not a closed enum. One Protocol record
// names one implementation, declares its options (typed keys with
// defaults), declares which parts of the Lspec reading it claims via
// SpecConformance, and constructs processes. The registry is the single
// source of algorithm names, and its spec string "name[key=value,...]" is
// the one way to name a configured process: HarnessConfig holds one per
// process, and the engine's config digests and JSON cells record its
// canonical form.
//
// The built-in records (Ricart-Agrawala, Lamport, Carvalho-Roucairol, and
// the FragileMe negative control) are function-local statics of
// ProtocolRegistry::instance(). External implementations join through
// ProtocolRegistry::add() (tests/test_protocol_registry.cpp exercises the
// seam with a protocol the library has never heard of).
#pragma once

#include <cstdint>
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

/// One declared option. Declaration order is canonical: a spec's canonical
/// form lists every key in it.
struct Option {
  enum class Kind : std::uint8_t {
    kFlag,   ///< 1/true or 0/false, stored as "1" or "0"
    kCount,  ///< a decimal that fits 32 bits, stored without leading zeros
  };
  std::string_view key;
  std::string_view default_value;
  Kind kind;
};

/// A protocol's options as one spec resolved them: every declared key
/// exactly once, in declaration order, defaults filled in and every value
/// normalized for its kind.
struct ResolvedOptions {
  std::vector<std::pair<std::string_view, std::string>> entries;

  bool get_bool(std::string_view key) const;
  std::uint32_t get_count(std::string_view key) const;
};

/// One registered implementation.
struct Protocol {
  using MakeFn = std::unique_ptr<TmeProcess> (*)(ProcessId, net::Network&,
                                                 const ResolvedOptions&);

  /// Canonical name (e.g. "ricart-agrawala").
  std::string_view name;
  /// Alternative spellings a spec may use for the name ("ra", "cr", ...).
  std::vector<std::string_view> aliases{};
  SpecConformance conformance{};
  std::vector<Option> options{};
  /// Construct one process of this protocol.
  MakeFn make;
};

/// One configured process: a registered protocol and its resolved options.
struct ResolvedProtocol {
  const Protocol* protocol = nullptr;
  ResolvedOptions options;

  /// "name" or "name[key=value,...]": the canonical name and every
  /// declared option in declaration order. Specs that construct identical
  /// processes have the same canonical form however they were spelled (an
  /// alias, a default spelled out, a later entry overriding an earlier one,
  /// true for 1, a leading zero).
  std::string canonical() const;

  std::unique_ptr<TmeProcess> make(ProcessId pid, net::Network& net) const;
};

class ProtocolRegistry {
 public:
  /// The process-wide registry, with the built-ins pre-registered.
  static ProtocolRegistry& instance();

  /// Register an external protocol (not owned; must outlive the registry).
  /// A duplicate name or alias aborts, and so does a name, alias or option
  /// key containing one of the spec delimiters [ ] , = +.
  void add(const Protocol* protocol);

  /// Lookup by canonical name or alias; nullptr when absent.
  const Protocol* find(std::string_view name) const;

  /// Read "name" or "name[key=value,...]": the name may be an alias, and a
  /// later entry of a key wins. An unknown name aborts listing the
  /// registered names; an undeclared key, a value its kind cannot read, a
  /// malformed list or a missing ']' abort too — the fail-fast path for
  /// configuration errors.
  ResolvedProtocol resolve(std::string_view spec) const;

  /// Canonical names in registration order.
  std::vector<std::string_view> names() const;

  /// Registration-order access (for completeness smokes over all
  /// implementations).
  const std::vector<const Protocol*>& protocols() const { return protocols_; }

 private:
  std::vector<const Protocol*> protocols_;
};

}  // namespace graybox::me
