// White-box tests of the Innet executor internals: multicast routes, group
// decisions, GHT rendezvous structure, Yang+07 mechanics, learning details
// and oracle mode.

#include <set>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "join/executor.h"
#include "net/topology.h"
#include "routing/content_address.h"
#include "tests/reference_join.h"
#include "workload/workload.h"

namespace aspen {
namespace join {
namespace {

using workload::SelectivityParams;
using workload::Workload;

net::Topology Topo(uint64_t seed = 42) {
  return *net::Topology::Random(100, 7.0, seed);
}

ExecutorOptions Opts(Algorithm algo, InnetFeatures f,
                     SelectivityParams assumed) {
  ExecutorOptions o;
  o.algorithm = algo;
  o.features = f;
  o.assumed = assumed;
  o.seed = 1;
  return o;
}

TEST(GroupOptTest, HighJoinSelectivityGroupsAtBase) {
  // With sigma_st = 1 and w = 3 the result-forwarding term dominates, so
  // every group should decide for the base station.
  net::Topology topo = Topo();
  SelectivityParams sel{1.0, 1.0, 1.0};
  auto wl = Workload::MakeQuery1(&topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  JoinExecutor exec(&*wl, Opts(Algorithm::kInnet, InnetFeatures::Cmg(), sel));
  ASSERT_TRUE(exec.Initiate().ok());
  for (const auto& pl : exec.placements()) {
    EXPECT_TRUE(pl.at_base) << pl.pair.s << "," << pl.pair.t;
  }
}

TEST(GroupOptTest, RareJoinsStayInNetwork) {
  net::Topology topo = Topo();
  SelectivityParams sel{1.0, 1.0, 1.0 / 50};
  auto wl = Workload::MakeQuery0(&topo, sel, 10, 1, 7);
  ASSERT_TRUE(wl.ok());
  JoinExecutor exec(&*wl, Opts(Algorithm::kInnet, InnetFeatures::Cmg(), sel));
  ASSERT_TRUE(exec.Initiate().ok());
  int in_net = 0;
  for (const auto& pl : exec.placements()) in_net += !pl.at_base;
  EXPECT_GT(in_net, 5);
}

TEST(GroupOptTest, GroupDecisionIsPerGroup) {
  // Query 2's groups are (cid, id%4) clusters; decisions can differ across
  // groups. Verify all pairs within one group share the same at_base bit.
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.1};
  auto wl = Workload::MakeQuery2(&topo, sel, 1, 7);
  ASSERT_TRUE(wl.ok());
  JoinExecutor exec(&*wl, Opts(Algorithm::kInnet, InnetFeatures::Cmg(), sel));
  ASSERT_TRUE(exec.Initiate().ok());
  std::vector<std::pair<net::NodeId, net::NodeId>> raw;
  for (const auto& key : exec.pairs()) raw.emplace_back(key.s, key.t);
  auto groups = opt::DiscoverGroups(raw);
  for (const auto& g : groups) {
    // Within a group, pairs whose pairwise decision was in-network must all
    // follow the group decision; compare against the group's first pair.
    std::set<bool> decisions;
    for (const auto& [s, t] : g.pairs) {
      const auto& pl = *exec.FindPlacement(PairKey{s, t});
      if (!pl.pairwise_at_base) decisions.insert(pl.at_base);
    }
    EXPECT_LE(decisions.size(), 1u);
  }
}

TEST(GhtTest, SameKeyPairsShareRendezvous) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery1(&topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  JoinExecutor exec(&*wl, Opts(Algorithm::kGht, {}, sel));
  ASSERT_TRUE(exec.Initiate().ok());
  std::map<int32_t, net::NodeId> key_home;
  for (const auto& pl : exec.placements()) {
    EXPECT_FALSE(pl.at_base);
    int32_t join_key = *wl->SJoinKey(pl.pair.s);
    auto [it, inserted] = key_home.emplace(join_key, pl.join_node);
    if (!inserted) {
      EXPECT_EQ(it->second, pl.join_node);
    }
  }
  // Grouped-by-key: fewer distinct homes than pairs (when keys repeat).
  EXPECT_LE(key_home.size(), exec.placements().size());
}

TEST(Yang07Test, JoinNodesAreTheTargets) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery1(&topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  JoinExecutor exec(&*wl, Opts(Algorithm::kYang07, {}, sel));
  ASSERT_TRUE(exec.Initiate().ok());
  for (const auto& pl : exec.placements()) {
    EXPECT_FALSE(pl.at_base);
    EXPECT_EQ(pl.join_node, pl.pair.t);
  }
  // Through-the-base funnels everything through the root: base traffic is
  // a large share of total.
  ASSERT_TRUE(exec.RunCycles(30).ok());
  auto stats = exec.Stats();
  EXPECT_GT(stats.base_bytes, stats.total_bytes / 10);
}

TEST(OracleTest, OracleUsesPerNodeTruth) {
  // Half the nodes run Sel1, half Sel2. Oracle placements should differ
  // from any single global assumption.
  net::Topology topo = Topo();
  SelectivityParams sel1{0.1, 1.0, 0.05};
  SelectivityParams sel2{1.0, 0.1, 0.2};
  auto make = [&]() {
    auto wl = *Workload::MakeQuery1(&topo, sel1, 3, 7);
    for (net::NodeId i = 0; i < topo.num_nodes(); ++i) {
      wl.SetNodeParams(i, i % 2 == 0 ? sel1 : sel2);
    }
    return wl;
  };
  auto wl_oracle = make();
  auto opts = Opts(Algorithm::kInnet, {}, sel1);
  opts.oracle = true;
  JoinExecutor oracle(&wl_oracle, opts);
  ASSERT_TRUE(oracle.Initiate().ok());
  auto wl_fixed = make();
  JoinExecutor fixed(&wl_fixed, Opts(Algorithm::kInnet, {}, sel1));
  ASSERT_TRUE(fixed.Initiate().ok());
  int differing = 0;
  for (const auto& pl : oracle.placements()) {
    const auto& other = *fixed.FindPlacement(pl.pair);
    if (pl.at_base != other.at_base || pl.join_node != other.join_node) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(MulticastTest, MulticastNeverIncreasesDataTraffic) {
  // For an m:n query, multicast trees share path prefixes, so data traffic
  // must not exceed the per-pair unicast variant.
  net::Topology topo = Topo();
  SelectivityParams sel{1.0, 1.0, 0.05};
  auto wl1 = *Workload::MakeQuery1(&topo, sel, 3, 7);
  auto wl2 = *Workload::MakeQuery1(&topo, sel, 3, 7);
  InnetFeatures mcast_only;
  mcast_only.multicast = true;
  auto plain = core::RunExperiment(wl1, Opts(Algorithm::kInnet, {}, sel), 60);
  auto mcast = core::RunExperiment(
      wl2, Opts(Algorithm::kInnet, mcast_only, sel), 60);
  ASSERT_TRUE(plain.ok() && mcast.ok());
  EXPECT_LE(mcast->total_bytes, plain->total_bytes);
  EXPECT_EQ(mcast->results, plain->results);
}

TEST(LearningTest, CountersResetPeriodically) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery0(&topo, sel, 5, 3, 7);
  ASSERT_TRUE(wl.ok());
  auto opts = Opts(Algorithm::kInnet, {}, sel);
  opts.knobs.reopt_interval = 5;
  opts.knobs.counter_reset_interval = 10;
  JoinExecutor exec(&*wl, opts);
  ASSERT_TRUE(exec.Initiate().ok());
  // Just exercise the reset path over several periods; correctness is the
  // absence of drift (placements remain sane under true estimates).
  ASSERT_TRUE(exec.RunCycles(50).ok());
  uint64_t expected = testing_util::ReferenceResults(*wl, 50);
  EXPECT_EQ(exec.results(), expected);
}

TEST(LearningTest, MigrationTransfersWindowLosslessly) {
  // Under wrong estimates with learning, placements move — and the runs
  // must still produce exactly the reference results (window transfer
  // preserves buffered tuples).
  for (uint64_t seed : {3ULL, 7ULL, 13ULL}) {
    net::Topology topo = Topo(seed);
    SelectivityParams truth{0.1, 1.0, 0.2};
    SelectivityParams wrong{1.0, 0.1, 0.2};
    auto wl = Workload::MakeQuery0(&topo, truth, 8, 3, seed);
    ASSERT_TRUE(wl.ok());
    auto opts = Opts(Algorithm::kInnet, InnetFeatures::Cmg(), wrong);
    opts.knobs.reopt_interval = 10;
    opts.knobs.counter_reset_interval = 200;
    JoinExecutor exec(&*wl, opts);
    ASSERT_TRUE(exec.Initiate().ok());
    ASSERT_TRUE(exec.RunCycles(120).ok());
    EXPECT_EQ(exec.results(), testing_util::ReferenceResults(*wl, 120))
        << "seed " << seed;
  }
}

TEST(PathCollapseTest, DiscoversLinksAndStaysCorrect) {
  net::Topology topo = Topo();
  SelectivityParams sel{1.0, 1.0, 0.05};
  auto wl1 = *Workload::MakeQuery2(&topo, sel, 1, 7);
  auto wl2 = *Workload::MakeQuery2(&topo, sel, 1, 7);
  auto cmp = core::RunExperiment(
      wl1, Opts(Algorithm::kInnet, InnetFeatures::Cmp(), sel), 60);
  auto cm = core::RunExperiment(
      wl2, Opts(Algorithm::kInnet, InnetFeatures::Cm(), sel), 60);
  ASSERT_TRUE(cmp.ok() && cm.ok());
  EXPECT_EQ(cmp->results, cm->results);  // collapse must not change results
  // Collapse adds hint traffic but may shorten trees: within 10% either way.
  EXPECT_LT(cmp->total_bytes, cm->total_bytes * 11 / 10);
}

TEST(InitLatencyTest, DistributedInitiationIsFast) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery1(&topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  JoinExecutor exec(&*wl, Opts(Algorithm::kInnet, {}, sel));
  ASSERT_TRUE(exec.Initiate().ok());
  auto stats = exec.Stats();
  EXPECT_GT(stats.init_latency_cycles, 0);
  // Exploration latency is bounded by a few network diameters: searches in
  // the non-primary trees can ascend to a far root and then descend, and
  // the reply doubles the path.
  auto depths = topo.HopDistancesFrom(0);
  int diameter_bound = 8 * *std::max_element(depths.begin(), depths.end());
  EXPECT_LE(stats.init_latency_cycles, diameter_bound);
}

TEST(StatsTest, InitiationPlusComputationEqualsTotal) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  for (Algorithm algo : {Algorithm::kNaive, Algorithm::kBase,
                         Algorithm::kGht, Algorithm::kInnet}) {
    auto wl = Workload::MakeQuery1(&topo, sel, 3, 7);
    ASSERT_TRUE(wl.ok());
    auto stats = core::RunExperiment(*wl, Opts(algo, {}, sel), 20);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->total_bytes,
              stats->initiation_bytes + stats->computation_bytes);
    EXPECT_EQ(stats->sampling_cycles, 20);
  }
}

TEST(StatsTest, NaiveHasZeroInitiation) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery1(&topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  auto stats =
      core::RunExperiment(*wl, Opts(Algorithm::kNaive, {}, sel), 10);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->initiation_bytes, 0u);
}

}  // namespace
}  // namespace join
}  // namespace aspen
