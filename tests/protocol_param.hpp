// The built-in protocols as a gtest value parameter.
//
// The harness names a protocol by its me::ProtocolRegistry string.
// Parameterized suites carry this 4-byte tag instead because gtest prints a
// parameter's bytes into every test id; the tag keeps those ids stable.
#pragma once

namespace graybox::test {

/// New values go last: a value's bytes are part of existing test ids.
enum class Protocol { kRicartAgrawala, kLamport, kFragile, kCarvalhoRoucairol };

/// The protocol's me::ProtocolRegistry name.
inline const char* registry_name(Protocol p) {
  constexpr const char* kNames[] = {"ricart-agrawala", "lamport",
                                    "fragile-ra", "carvalho-roucairol"};
  return kNames[static_cast<int>(p)];
}

}  // namespace graybox::test
