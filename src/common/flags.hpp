// Minimal command-line flag parsing for the bench and example binaries.
// Supports "--name=value", "--name value", and bare "--name" booleans; any
// unrecognized argument aborts with a usage message so experiment scripts
// fail fast on typos.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace graybox {

class Flags {
 public:
  /// Parse argv. `spec` maps flag name -> help text; flags not in the spec
  /// are rejected. Call as: Flags flags(argc, argv, {{"seed", "RNG seed"}});
  Flags(int argc, const char* const* argv,
        std::map<std::string, std::string> spec);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// A non-negative decimal; any other value prints what the flag expects
  /// and exits 2.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// A finite, non-negative decimal; any other value exits 2 likewise.
  double get_double(const std::string& name, double fallback) const;
  /// true, false, 1, 0, yes or no (a bare --name reads true); any other
  /// value exits 2 likewise.
  bool get_bool(const std::string& name, bool fallback) const;

  const std::string& program() const { return program_; }

 private:
  [[noreturn]] void usage_and_exit(const std::string& bad) const;

  std::string program_;
  std::map<std::string, std::string> spec_;
  std::map<std::string, std::string> values_;
};

/// The flag spec shared by every engine-backed bench binary — merges
/// --jobs (worker threads; 0 = all cores), --trials (seeds per grid cell)
/// and --json (result artifact path; default BENCH_<name>.json, "-" to
/// disable) into `spec`. Keeping the spelling in one place means every
/// binary accepts the same invocation:
///
///   bench_stabilization_time --trials 64 --jobs $(nproc) --json out.json
std::map<std::string, std::string> with_engine_flags(
    std::map<std::string, std::string> spec = {});

}  // namespace graybox
