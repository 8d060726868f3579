// The protocol registry: the open seam the harness resolves algorithms
// through. Covers name/alias lookup, option resolution against schemas,
// the canonical serialization that config digests hash, openness to
// factories the library has never heard of, and the completeness smoke
// that runs every registered implementation through a wrapped fault burst
// (the CI registry smoke is this test).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/report.hpp"
#include "core/engine.hpp"
#include "core/harness.hpp"
#include "me/protocol_registry.hpp"
#include "me/ricart_agrawala.hpp"

namespace graybox::core {
namespace {

using me::ProcessFactory;
using me::ProtocolRegistry;

// --- names and lookup --------------------------------------------------------

TEST(ProtocolRegistry, BuiltinsAreRegistered) {
  ProtocolRegistry& reg = ProtocolRegistry::instance();
  // Prefix check, not exact: tests in this binary may add factories.
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
  EXPECT_DEATH(ProtocolRegistry::instance().require("paxos"),
               "unknown algorithm 'paxos'.*ricart-agrawala.*lamport"
               ".*carvalho-roucairol.*fragile-ra");
}

TEST(ProtocolRegistry, ConformanceFlagsMatchTheImplementations) {
  ProtocolRegistry& reg = ProtocolRegistry::instance();
  EXPECT_TRUE(reg.require("ra").conformance().everywhere);
  EXPECT_TRUE(reg.require("ra").conformance().view_entry_truth);
  EXPECT_TRUE(reg.require("ra").conformance().fcfs);
  EXPECT_TRUE(reg.require("lamport").conformance().everywhere);
  EXPECT_TRUE(reg.require("lamport").conformance().fcfs);
  EXPECT_TRUE(reg.require("cr").conformance().everywhere);
  EXPECT_FALSE(reg.require("cr").conformance().view_entry_truth);
  EXPECT_FALSE(reg.require("cr").conformance().fcfs);
  EXPECT_FALSE(reg.require("fragile").conformance().everywhere);
  EXPECT_TRUE(reg.require("fragile").conformance().fcfs);
}

// --- option resolution -------------------------------------------------------

TEST(ProtocolRegistry, ResolveFillsDefaultsInSchemaOrder) {
  const ProcessFactory& ra = ProtocolRegistry::instance().require("ra");
  const me::ResolvedOptions defaults = ra.resolve({});
  EXPECT_EQ(defaults.canonical(), "monotone_views=0");
  EXPECT_FALSE(defaults.get_bool("monotone_views"));
  EXPECT_EQ(ra.canonical_spec(defaults),
            "ricart-agrawala[monotone_views=0]");
}

TEST(ProtocolRegistry, LaterOptionEntriesWin) {
  const ProcessFactory& cr = ProtocolRegistry::instance().require("cr");
  const me::ResolvedOptions opts =
      cr.resolve({"lease=4", "lease=16"});
  EXPECT_EQ(opts.get_u64("lease"), 16u);
  EXPECT_EQ(cr.canonical_spec(opts), "carvalho-roucairol[lease=16]");
}

TEST(ProtocolRegistry, EmptySchemaYieldsBareSpec) {
  const ProcessFactory& fragile =
      ProtocolRegistry::instance().require("fragile");
  EXPECT_EQ(fragile.canonical_spec(fragile.resolve({})), "fragile-ra");
}

TEST(ProtocolRegistryDeathTest, UnknownOptionKeyDiesListingSchema) {
  const ProcessFactory& ra = ProtocolRegistry::instance().require("ra");
  EXPECT_DEATH(ra.resolve({"bogus=1"}), "monotone_views");
}

// --- openness ----------------------------------------------------------------

// A factory the library has never heard of: RA under a new name, with its
// own option. Registering it must make it reachable through every layer
// (registry lookup, harness construction, algorithm_spec, config digest)
// without touching library code.
class ExternalFactory : public ProcessFactory {
 public:
  std::string_view name() const override { return "external-ra"; }
  std::vector<std::string_view> aliases() const override { return {"xra"}; }
  me::SpecConformance conformance() const override { return {}; }
  std::vector<me::OptionSpec> option_schema() const override {
    return {{"flavor", "plain", "exercise external option plumbing"}};
  }
  std::unique_ptr<me::TmeProcess> make(
      ProcessId pid, std::size_t n, net::Network& net, Rng& /*rng*/,
      const me::ResolvedOptions& /*options*/) const override {
    EXPECT_EQ(n, net.size());
    return std::make_unique<me::RicartAgrawala>(pid, net);
  }
};

TEST(ProtocolRegistry, ExternalFactoryReachesEveryLayer) {
  static const ExternalFactory factory;
  ProtocolRegistry::instance().add(&factory);
  EXPECT_EQ(ProtocolRegistry::instance().find("xra"), &factory);

  HarnessConfig config;
  config.n = 3;
  config.algorithm = "external-ra";
  config.algorithm_options = {"flavor=test"};
  config.wrapped = true;
  config.seed = 11;
  EXPECT_EQ(algorithm_spec(config), "external-ra[flavor=test]");
  EXPECT_NE(config_digest(config), config_digest(HarnessConfig{}));

  SystemHarness h(config);
  h.start();
  h.run_for(3000);
  h.drain(2000);
  EXPECT_EQ(h.process(0).algorithm(), "ricart-agrawala");  // the impl's name
  EXPECT_EQ(h.monitors().total_violations(), 0u);
  EXPECT_GT(h.stats().cs_entries, 0u);
}

// --- canonical-serialization digests ----------------------------------------

TEST(ConfigDigest, UniformVectorEqualsUniformScalar) {
  HarnessConfig scalar;
  scalar.n = 3;
  scalar.algorithm = "lamport";

  HarnessConfig vector = scalar;
  vector.per_process_algorithms = {"lamport", "lamport", "lamport"};

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
  lease.algorithm_options = {"lease=4"};
  EXPECT_NE(config_digest(lease), digest);

  HarnessConfig redundant = base;
  redundant.algorithm_options = {"lease=8"};  // == the default
  EXPECT_EQ(config_digest(redundant), digest);

  HarnessConfig level1 = base;
  level1.level1 = true;
  EXPECT_NE(config_digest(level1), digest);

  HarnessConfig tiers = base;
  tiers.per_process_tiers = {kTierLevel2, kTierLevel2, kTierLevel2,
                             kTierLevel1 | kTierLevel2};
  EXPECT_NE(config_digest(tiers), digest);

  HarnessConfig per_proc = base;
  per_proc.per_process_options = {{}, {"lease=4"}, {}, {}};
  EXPECT_NE(config_digest(per_proc), digest);
}

// --- completeness smoke ------------------------------------------------------

TEST(RegistrySmoke, EveryFactoryRunsWrappedAndRoundTripsItsName) {
  // One short wrapped fault-burst per registered implementation (message
  // drops only: recoverable for every entry including the fragile negative
  // control, whose documented failure mode is process corruption). Asserts
  // stabilization and that the engine's JSON cell round-trips the
  // registry-canonical algorithm spec.
  for (const ProcessFactory* factory :
       ProtocolRegistry::instance().factories()) {
    RunSpec spec;
    spec.name = std::string(factory->name());
    spec.config.n = 3;
    spec.config.algorithm = std::string(factory->name());
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
        << factory->name() << " failed the wrapped drop-burst smoke";

    const std::string json = cell_to_json(cell).dump(0);
    const std::string spec_string =
        factory->canonical_spec(factory->resolve({}));
    EXPECT_NE(json.find("\"algorithm\":\"" + spec_string + "\""),
              std::string::npos)
        << factory->name() << " cell JSON: " << json.substr(0, 200);
  }
}

}  // namespace
}  // namespace graybox::core
