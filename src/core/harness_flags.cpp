#include "core/harness_flags.hpp"

#include <array>
#include <charconv>
#include <cstdint>
#include <utility>

namespace graybox::core {

namespace {

/// Each knob's flag and what it sets, in written order, the seed last.
constexpr std::pair<const char*, const char*> kKnobs[] = {
    {"n", "number of processes"},
    {"algorithm",
     "registry spec name[key=value,...] for every process, or n of them "
     "joined by '+' in pid order"},
    {"wrapped", "attach level-2 graybox wrappers W'"},
    {"level1", "attach level-1 local wrappers"},
    {"delta", "wrapper timeout: ticks between W' resends"},
    {"think", "client mean think time"},
    {"eat", "client mean eat time"},
    {"seed", "master seed"},
};

std::string shortest(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::string boolean(bool b) { return b ? "true" : "false"; }

/// `c`'s value of each knob as its flag spells it, in kKnobs order.
std::array<std::string, std::size(kKnobs)> values(const HarnessConfig& c) {
  return {std::to_string(c.n),
          algorithm_spec(c),
          boolean(c.wrapped),
          boolean(c.level1),
          std::to_string(c.wrapper.resend_period),
          shortest(c.client.think_mean),
          shortest(c.client.eat_mean),
          std::to_string(c.seed)};
}

}  // namespace

std::map<std::string, std::string> with_harness_flags(
    const HarnessConfig& defaults, std::map<std::string, std::string> spec) {
  const auto v = values(defaults);
  for (std::size_t i = 0; i < v.size(); ++i) {
    spec.emplace(kKnobs[i].first,
                 std::string(kKnobs[i].second) + " (default " + v[i] + ")");
  }
  return spec;
}

HarnessConfig harness_from_flags(const Flags& flags, HarnessConfig c) {
  c.n = static_cast<std::size_t>(flags.get_int("n", c.n));
  c.algorithm = flags.get("algorithm", c.algorithm);
  c.wrapped = flags.get_bool("wrapped", c.wrapped);
  c.level1 = flags.get_bool("level1", c.level1);
  c.wrapper.resend_period =
      static_cast<SimTime>(flags.get_int("delta", c.wrapper.resend_period));
  c.client.think_mean = flags.get_double("think", c.client.think_mean);
  c.client.eat_mean = flags.get_double("eat", c.client.eat_mean);
  c.seed = static_cast<std::uint64_t>(flags.get_int("seed", c.seed));
  return c;
}

std::vector<std::string> harness_flags(const HarnessConfig& config) {
  const auto v = values(config);
  std::vector<std::string> args;
  for (std::size_t i = 0; i + 1 < v.size(); ++i)  // all but the seed
    args.push_back("--" + std::string(kKnobs[i].first) + "=" + v[i]);
  return args;
}

}  // namespace graybox::core
