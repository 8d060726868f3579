// The protocol registry: the open seam the harness resolves algorithms
// through. Covers name/alias lookup, spec resolution against declared
// options, the canonical serialization that config digests hash, openness
// to protocols the library has never heard of, and the completeness smoke
// that runs every registered implementation through a wrapped fault burst
// (the CI registry smoke is this test).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <typeinfo>

#include "common/report.hpp"
#include "core/engine.hpp"
#include "core/harness.hpp"
#include "me/protocol_registry.hpp"
#include "me/ricart_agrawala.hpp"

namespace graybox::core {
namespace {

using me::Protocol;
using me::ProtocolRegistry;

// --- names and lookup --------------------------------------------------------

TEST(ProtocolRegistry, BuiltinsAreRegistered) {
  ProtocolRegistry& reg = ProtocolRegistry::instance();
  // Prefix check, not exact: tests in this binary may add protocols.
  const auto names = reg.names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names[0], "ricart-agrawala");
  EXPECT_EQ(names[1], "lamport");
  EXPECT_EQ(names[2], "carvalho-roucairol");
  EXPECT_EQ(names[3], "fragile-ra");
}

TEST(ProtocolRegistry, AliasesResolveToTheSameFactory) {
  ProtocolRegistry& reg = ProtocolRegistry::instance();
  EXPECT_EQ(reg.find("ra"), reg.find("ricart-agrawala"));
  EXPECT_EQ(reg.find("cr"), reg.find("carvalho-roucairol"));
  EXPECT_EQ(reg.find("fragile"), reg.find("fragile-ra"));
  EXPECT_NE(reg.find("lamport"), nullptr);
  EXPECT_EQ(reg.find("zab"), nullptr);
  EXPECT_EQ(reg.find(""), nullptr);
}

TEST(ProtocolRegistryDeathTest, RequireDiesListingRegisteredNames) {
  // The fail-fast configuration path: a typo'd name aborts and the message
  // carries every registered name (the explorer prints the same list).
  EXPECT_DEATH(ProtocolRegistry::instance().resolve("paxos"),
               "unknown algorithm 'paxos'.*ricart-agrawala.*lamport"
               ".*carvalho-roucairol.*fragile-ra");
}

TEST(ProtocolRegistry, ConformanceFlagsMatchTheImplementations) {
  ProtocolRegistry& reg = ProtocolRegistry::instance();
  EXPECT_TRUE(reg.find("ra")->conformance.everywhere);
  EXPECT_TRUE(reg.find("ra")->conformance.view_entry_truth);
  EXPECT_TRUE(reg.find("ra")->conformance.fcfs);
  EXPECT_TRUE(reg.find("lamport")->conformance.everywhere);
  EXPECT_TRUE(reg.find("lamport")->conformance.fcfs);
  EXPECT_TRUE(reg.find("cr")->conformance.everywhere);
  EXPECT_FALSE(reg.find("cr")->conformance.view_entry_truth);
  EXPECT_FALSE(reg.find("cr")->conformance.fcfs);
  EXPECT_FALSE(reg.find("fragile")->conformance.everywhere);
  EXPECT_TRUE(reg.find("fragile")->conformance.fcfs);
}

// --- spec resolution ---------------------------------------------------------

TEST(ProtocolRegistry, ResolveFillsDefaultsInSchemaOrder) {
  const me::ResolvedProtocol ra = ProtocolRegistry::instance().resolve("ra");
  EXPECT_EQ(ra.protocol, ProtocolRegistry::instance().find("ricart-agrawala"));
  EXPECT_FALSE(ra.options.get_bool("monotone_views"));
  EXPECT_EQ(ra.canonical(), "ricart-agrawala[monotone_views=0]");
}

TEST(ProtocolRegistry, LaterOptionEntriesWin) {
  const me::ResolvedProtocol cr =
      ProtocolRegistry::instance().resolve("cr[lease=4,lease=16]");
  EXPECT_EQ(cr.options.get_count("lease"), 16u);
  EXPECT_EQ(cr.canonical(), "carvalho-roucairol[lease=16]");
}

TEST(ProtocolRegistry, EmptySchemaYieldsBareSpec) {
  EXPECT_EQ(ProtocolRegistry::instance().resolve("fragile").canonical(),
            "fragile-ra");
}

TEST(ProtocolRegistry, CanonicalSpecReadsBackAsItself) {
  const ProtocolRegistry& reg = ProtocolRegistry::instance();
  // Every single-protocol "algorithm" string the committed BENCH_*.json
  // cells record: what a cell records is exactly what a config accepts.
  for (const char* recorded :
       {"ricart-agrawala[monotone_views=0]",
        "ricart-agrawala[monotone_views=1]", "lamport[head_only_release=0]",
        "lamport[head_only_release=1]", "carvalho-roucairol[lease=8]",
        "fragile-ra"}) {
    EXPECT_EQ(reg.resolve(recorded).canonical(), recorded);
  }
  // One system, one spec: each value has one stored spelling.
  EXPECT_EQ(reg.resolve("ra[monotone_views=true]").canonical(),
            "ricart-agrawala[monotone_views=1]");
  EXPECT_EQ(reg.resolve("lamport[head_only_release=false]").canonical(),
            "lamport[head_only_release=0]");
  EXPECT_EQ(reg.resolve("cr[lease=08]").canonical(),
            "carvalho-roucairol[lease=8]");
  EXPECT_EQ(reg.resolve("cr[lease=4294967295]").options.get_count("lease"),
            4294967295u);
}

TEST(ProtocolRegistryDeathTest, UnknownOptionKeyDiesListingSchema) {
  EXPECT_DEATH(ProtocolRegistry::instance().resolve("ra[bogus=1]"),
               "monotone_views");
}

TEST(ProtocolRegistryDeathTest, SpecsItCannotReadDie) {
  const ProtocolRegistry& reg = ProtocolRegistry::instance();
  // A value its kind cannot read aborts naming the key: a count past 32
  // bits must not wrap into some other system.
  EXPECT_DEATH(reg.resolve("cr[lease=4294967297]"),
               "option 'lease' of 'carvalho-roucairol' expects");
  EXPECT_DEATH(reg.resolve("cr[lease=-1]"), "option 'lease'");
  EXPECT_DEATH(reg.resolve("ra[monotone_views=2]"),
               "option 'monotone_views' of 'ricart-agrawala' expects");
  EXPECT_DEATH(reg.resolve("cr[lease=4"), "no closing");
  EXPECT_DEATH(reg.resolve("cr[lease]"), "malformed option 'lease'");
  EXPECT_DEATH(reg.resolve("cr[]"), "malformed option");
  // A name that holds a spec delimiter could never be read back.
  static const Protocol bracketed{
      .name = "ra[2]",
      .make = [](ProcessId pid, net::Network& net, const me::ResolvedOptions&)
          -> std::unique_ptr<me::TmeProcess> {
        return std::make_unique<me::RicartAgrawala>(pid, net);
      }};
  EXPECT_DEATH(ProtocolRegistry::instance().add(&bracketed),
               "spec delimiter");
}

// --- openness ----------------------------------------------------------------

// A protocol the library has never heard of: RA under a new name, with its
// own option. Registering it must make it reachable through every layer
// (registry lookup, spec resolution, harness construction, algorithm_spec,
// config digest) without touching library code.
std::uint32_t external_flavor = 0;  // what the last make() was handed
const Protocol kExternal{
    .name = "external-ra",
    .aliases = {"xra"},
    .options = {{"flavor", "1", me::Option::Kind::kCount}},
    .make = [](ProcessId pid, net::Network& net,
               const me::ResolvedOptions& options)
        -> std::unique_ptr<me::TmeProcess> {
      external_flavor = options.get_count("flavor");
      return std::make_unique<me::RicartAgrawala>(pid, net);
    }};

TEST(ProtocolRegistry, ExternalFactoryReachesEveryLayer) {
  ProtocolRegistry::instance().add(&kExternal);
  EXPECT_EQ(ProtocolRegistry::instance().find("xra"), &kExternal);

  HarnessConfig config;
  config.n = 3;
  config.algorithm = "xra[flavor=03]";
  config.wrapped = true;
  config.seed = 11;
  EXPECT_EQ(algorithm_spec(config), "external-ra[flavor=3]");
  EXPECT_NE(config_digest(config), config_digest(HarnessConfig{}));

  SystemHarness h(config);
  EXPECT_EQ(external_flavor, 3u);
  h.start();
  h.run_for(3000);
  h.drain(2000);
  EXPECT_EQ(typeid(h.process(0)), typeid(me::RicartAgrawala));
  EXPECT_EQ(h.monitors().total_violations(), 0u);
  EXPECT_GT(h.stats().cs_entries, 0u);
}

// --- canonical-serialization digests ----------------------------------------

TEST(ConfigDigest, UniformVectorEqualsUniformScalar) {
  HarnessConfig scalar;
  scalar.n = 3;
  scalar.algorithm = "lamport";

  HarnessConfig vector = scalar;
  vector.algorithm = "lamport+lamport+lamport";

  EXPECT_EQ(algorithm_spec(vector), algorithm_spec(scalar));
  EXPECT_EQ(config_digest(vector), config_digest(scalar));
}

TEST(ConfigDigest, PinnedValuesForBenchArtifacts) {
  // Regression pin for BENCH_*.json stability: these are the digests the
  // bench_reusability RA and Lamport cells record. If either moves, every
  // committed artifact silently stops being comparable PR-over-PR — treat
  // a failure here as "I changed what a digest means" and regenerate all
  // BENCH artifacts in the same commit.
  HarnessConfig ra;
  ra.n = 4;
  ra.algorithm = "ricart-agrawala";
  ra.wrapped = true;
  ra.wrapper.resend_period = 20;
  ra.client.think_mean = 35;
  ra.client.eat_mean = 7;
  ra.seed = 500;
  HarnessConfig lamport = ra;
  lamport.algorithm = "lamport";

  EXPECT_EQ(config_digest(ra), "8b21a08ffa81dd7e");
  EXPECT_EQ(config_digest(lamport), "a2cca858be4bf291");
}

TEST(ConfigDigest, MovesWithAlgorithmOptionsAndTiers) {
  HarnessConfig base;
  base.n = 4;
  base.algorithm = "cr";
  const std::string digest = config_digest(base);

  HarnessConfig lease = base;
  lease.algorithm = "cr[lease=4]";
  EXPECT_NE(config_digest(lease), digest);

  HarnessConfig redundant = base;
  redundant.algorithm = "carvalho-roucairol[lease=8]";  // == the default
  EXPECT_EQ(config_digest(redundant), digest);

  HarnessConfig level1 = base;
  level1.level1 = true;
  EXPECT_NE(config_digest(level1), digest);

  HarnessConfig tiers = base;
  tiers.per_process_tiers = {kTierLevel2, kTierLevel2, kTierLevel2,
                             kTierLevel1 | kTierLevel2};
  EXPECT_NE(config_digest(tiers), digest);

  HarnessConfig per_proc = base;
  per_proc.algorithm = "cr+cr[lease=4]+cr+cr";
  EXPECT_NE(config_digest(per_proc), digest);
}

// --- completeness smoke ------------------------------------------------------

TEST(RegistrySmoke, EveryFactoryRunsWrappedAndRoundTripsItsName) {
  // One short wrapped fault-burst per registered implementation (message
  // drops only: recoverable for every entry including the fragile negative
  // control, whose documented failure mode is process corruption). Asserts
  // stabilization and that the engine's JSON cell round-trips the
  // registry-canonical algorithm spec.
  for (const Protocol* protocol : ProtocolRegistry::instance().protocols()) {
    RunSpec spec;
    spec.name = std::string(protocol->name);
    spec.config.n = 3;
    spec.config.algorithm = std::string(protocol->name);
    spec.config.wrapped = true;
    spec.config.client.think_mean = 30;
    spec.config.client.eat_mean = 5;
    spec.config.seed = 7100;
    spec.scenario.warmup = 400;
    spec.scenario.burst = 6;
    spec.scenario.mix = net::FaultMix::only(net::FaultKind::kMessageDrop);
    spec.scenario.observation = 4000;
    spec.scenario.drain = 3000;
    spec.trials = 2;

    const CellResult cell =
        ExperimentEngine(EngineOptions{.jobs = 1}).run_cell(spec);
    EXPECT_EQ(cell.result.stabilized, cell.result.trials)
        << protocol->name << " failed the wrapped drop-burst smoke";

    const std::string json = cell_to_json(cell).dump(0);
    const std::string spec_string =
        ProtocolRegistry::instance().resolve(protocol->name).canonical();
    EXPECT_NE(json.find("\"algorithm\":\"" + spec_string + "\""),
              std::string::npos)
        << protocol->name << " cell JSON: " << json.substr(0, 200);
  }
}

}  // namespace
}  // namespace graybox::core
