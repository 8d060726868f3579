#include "me/protocol_registry.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common/contracts.hpp"
#include "me/carvalho_roucairol.hpp"
#include "me/fragile.hpp"
#include "me/lamport.hpp"
#include "me/ricart_agrawala.hpp"

namespace graybox::me {

namespace {

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "protocol registry: %s\n", message.c_str());
  std::abort();
}

std::string quoted(std::string_view s) { return "'" + std::string(s) + "'"; }

/// "a, b, c", or "<none>".
std::string joined(const std::vector<std::string_view>& words) {
  std::string out;
  for (const std::string_view word : words) {
    if (!out.empty()) out += ", ";
    out += word;
  }
  return out.empty() ? "<none>" : out;
}

const std::string& value_of(const ResolvedOptions& options,
                            std::string_view key) {
  for (const auto& [k, v] : options.entries) {
    if (k == key) return v;
  }
  die("option " + quoted(key) + " is not declared");
}

/// `value` in its kind's one spelling; aborts naming the key when the kind
/// cannot read it.
std::string normalized(const Protocol& protocol, const Option& option,
                       std::string_view value) {
  if (option.kind == Option::Kind::kFlag) {
    if (value == "1" || value == "true") return "1";
    if (value == "0" || value == "false") return "0";
  } else {
    std::uint32_t count = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, count);
    if (ec == std::errc{} && ptr == end) return std::to_string(count);
  }
  die("option " + quoted(option.key) + " of " + quoted(protocol.name) +
      " expects " +
      (option.kind == Option::Kind::kFlag
           ? "1, true, 0 or false"
           : "a decimal count below 2^32") +
      ", got " + quoted(value));
}

void check_word(std::string_view what, std::string_view word) {
  if (word.empty() || word.find_first_of("[],=+") != std::string_view::npos)
    die(std::string(what) + " " + quoted(word) +
        " is empty or contains a spec delimiter ([ ] , = +)");
}

}  // namespace

// --- ResolvedOptions --------------------------------------------------------

bool ResolvedOptions::get_bool(std::string_view key) const {
  return value_of(*this, key) == "1";
}

std::uint32_t ResolvedOptions::get_count(std::string_view key) const {
  const std::string& v = value_of(*this, key);
  std::uint32_t count = 0;
  std::from_chars(v.data(), v.data() + v.size(), count);
  return count;
}

// --- ResolvedProtocol -------------------------------------------------------

std::string ResolvedProtocol::canonical() const {
  std::string spec(protocol->name);
  const char* separator = "[";
  for (const auto& [k, v] : options.entries) {
    spec += separator;
    spec += k;
    spec += '=';
    spec += v;
    separator = ",";
  }
  if (!options.entries.empty()) spec += ']';
  return spec;
}

std::unique_ptr<TmeProcess> ResolvedProtocol::make(ProcessId pid,
                                                   net::Network& net) const {
  std::unique_ptr<TmeProcess> process = protocol->make(pid, net, options);
  GBX_ENSURES(process != nullptr);
  return process;
}

// --- ProtocolRegistry -------------------------------------------------------

ProtocolRegistry& ProtocolRegistry::instance() {
  // Function-local records, registered in this order on first use: no
  // static-initialization order is involved, and naming the classes here
  // links their translation units into every binary that uses the registry.
  static const Protocol ricart_agrawala{
      .name = "ricart-agrawala",
      .aliases = {"ra"},
      .options = {{"monotone_views", "0", Option::Kind::kFlag}},
      .make = [](ProcessId pid, net::Network& net,
                 const ResolvedOptions& o) -> std::unique_ptr<TmeProcess> {
        return std::make_unique<RicartAgrawala>(
            pid, net, RicartAgrawalaOptions{o.get_bool("monotone_views")});
      }};
  static const Protocol lamport{
      .name = "lamport",
      .options = {{"head_only_release", "0", Option::Kind::kFlag}},
      .make = [](ProcessId pid, net::Network& net,
                 const ResolvedOptions& o) -> std::unique_ptr<TmeProcess> {
        return std::make_unique<LamportMe>(
            pid, net, LamportOptions{o.get_bool("head_only_release")});
      }};
  static const Protocol carvalho_roucairol{
      .name = "carvalho-roucairol",
      .aliases = {"cr"},
      .conformance = {.everywhere = true, .view_entry_truth = false,
                      .fcfs = false},
      .options = {{"lease", "8", Option::Kind::kCount}},
      .make = [](ProcessId pid, net::Network& net,
                 const ResolvedOptions& o) -> std::unique_ptr<TmeProcess> {
        return std::make_unique<CarvalhoRoucairol>(
            pid, net, CarvalhoRoucairolOptions{o.get_count("lease")});
      }};
  // The negative control: implements Lspec only from its initial states
  // (Theorem 8's premise fails, and so does its conclusion — see
  // tests/test_fragile.cpp).
  static const Protocol fragile{
      .name = "fragile-ra",
      .aliases = {"fragile"},
      .conformance = {.everywhere = false},
      .make = [](ProcessId pid, net::Network& net,
                 const ResolvedOptions&) -> std::unique_ptr<TmeProcess> {
        return std::make_unique<FragileMe>(pid, net);
      }};
  static ProtocolRegistry* registry = [] {
    auto* r = new ProtocolRegistry();
    for (const Protocol* p :
         {&ricart_agrawala, &lamport, &carvalho_roucairol, &fragile})
      r->add(p);
    return r;
  }();
  return *registry;
}

void ProtocolRegistry::add(const Protocol* protocol) {
  GBX_EXPECTS(protocol != nullptr && protocol->make != nullptr);
  check_word("protocol name", protocol->name);
  for (const std::string_view alias : protocol->aliases)
    check_word("alias", alias);
  for (const Option& option : protocol->options)
    check_word("option key", option.key);
  if (find(protocol->name) != nullptr) {
    die("duplicate registration of " + quoted(protocol->name));
  }
  for (const std::string_view alias : protocol->aliases) {
    if (find(alias) != nullptr) {
      die("alias " + quoted(alias) + " of " + quoted(protocol->name) +
          " is already taken");
    }
  }
  protocols_.push_back(protocol);
}

const Protocol* ProtocolRegistry::find(std::string_view name) const {
  for (const Protocol* p : protocols_) {
    if (p->name == name) return p;
    for (const std::string_view alias : p->aliases) {
      if (alias == name) return p;
    }
  }
  return nullptr;
}

ResolvedProtocol ProtocolRegistry::resolve(std::string_view spec) const {
  const std::size_t open = spec.find('[');
  const std::string_view name = spec.substr(0, open);
  const Protocol* protocol = find(name);
  if (protocol == nullptr) {
    die("unknown algorithm " + quoted(name) +
        "; registered: " + joined(names()));
  }

  ResolvedProtocol resolved{protocol, {}};
  resolved.options.entries.reserve(protocol->options.size());
  for (const Option& option : protocol->options)
    resolved.options.entries.emplace_back(option.key, option.default_value);
  if (open == std::string_view::npos) return resolved;

  if (spec.back() != ']') die("spec " + quoted(spec) + " has no closing ']'");
  std::string_view list = spec.substr(open + 1, spec.size() - open - 2);
  while (true) {
    const std::size_t comma = list.find(',');
    const std::string_view kv = list.substr(0, comma);
    const std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      die("malformed option " + quoted(kv) + " in spec " + quoted(spec) +
          " (expected key=value)");
    }
    const std::string_view key = kv.substr(0, eq);
    std::size_t i = 0;
    while (i < protocol->options.size() && protocol->options[i].key != key)
      ++i;
    if (i == protocol->options.size()) {
      std::vector<std::string_view> keys;
      for (const Option& option : protocol->options) keys.push_back(option.key);
      die(quoted(protocol->name) + " has no option " + quoted(key) +
          " (options: " + joined(keys) + ")");
    }
    resolved.options.entries[i].second =
        normalized(*protocol, protocol->options[i], kv.substr(eq + 1));
    if (comma == std::string_view::npos) return resolved;
    list.remove_prefix(comma + 1);
  }
}

std::vector<std::string_view> ProtocolRegistry::names() const {
  std::vector<std::string_view> out;
  out.reserve(protocols_.size());
  for (const Protocol* p : protocols_) out.push_back(p->name);
  return out;
}

}  // namespace graybox::me
