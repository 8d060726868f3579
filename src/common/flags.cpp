#include "common/flags.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace graybox {

Flags::Flags(int argc, const char* const* argv,
             std::map<std::string, std::string> spec)
    : program_(argc > 0 ? argv[0] : "?"), spec_(std::move(spec)) {
  // google-benchmark binaries share argv with us; ignore its flags.
  auto is_benchmark_flag = [](const std::string& s) {
    return s.rfind("--benchmark", 0) == 0;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (is_benchmark_flag(arg)) continue;
    if (arg.rfind("--", 0) != 0) usage_and_exit(arg);
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";
    }
    if (!spec_.count(name)) usage_and_exit("--" + name);
    values_[name] = value;
  }
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  // Every integer flag is a count, a time or a seed: exactly a
  // non-negative decimal, or the run would silently use some other value.
  const std::string& v = it->second;
  const char* end = v.data() + v.size();
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < 0) {
    std::fprintf(stderr, "%s: --%s expects a non-negative integer, got '%s'\n",
                 program_.c_str(), name.c_str(), v.c_str());
    std::exit(2);
  }
  return value;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  // Every double flag is a mean time or a rate: exactly a finite,
  // non-negative decimal.
  const std::string& v = it->second;
  const char* end = v.data() + v.size();
  double value = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) ||
      std::signbit(value)) {
    std::fprintf(stderr,
                 "%s: --%s expects a finite non-negative number, got '%s'\n",
                 program_.c_str(), name.c_str(), v.c_str());
    std::exit(2);
  }
  return value;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  std::fprintf(stderr,
               "%s: --%s expects true, false, 1, 0, yes or no, got '%s'\n",
               program_.c_str(), name.c_str(), v.c_str());
  std::exit(2);
}

std::map<std::string, std::string> with_engine_flags(
    std::map<std::string, std::string> spec) {
  spec.emplace("jobs", "worker threads for trial fan-out (default 0 = all cores)");
  spec.emplace("trials", "trials (consecutive seeds) per grid cell");
  spec.emplace("json",
               "bench artifact path (default BENCH_<name>.json; '-' disables)");
  return spec;
}

void Flags::usage_and_exit(const std::string& bad) const {
  std::fprintf(stderr, "%s: unknown argument '%s'\nknown flags:\n",
               program_.c_str(), bad.c_str());
  for (const auto& [name, help] : spec_)
    std::fprintf(stderr, "  --%-24s %s\n", name.c_str(), help.c_str());
  std::exit(2);
}

}  // namespace graybox
