// Whole-simulator property tests: conservation (every submitted message is
// eventually delivered or reported dropped), loss-sweep robustness, and
// determinism of entire experiment runs.

#include <gtest/gtest.h>

#include "common/phase.h"
#include "common/rng.h"
#include "core/engine.h"
#include "net/network.h"
#include "net/topology.h"
#include "routing/routing_tree.h"
#include "workload/workload.h"

namespace aspen {
namespace {

class ConservationTest : public ::testing::TestWithParam<double> {};

TEST_P(ConservationTest, EveryMessageDeliveredOrDropped) {
  // The single test thread is the sequential phase: nothing runs
  // concurrently with these direct network mutations.
  common::SequentialPhaseScope seq_phase;
  const double loss = GetParam();
  auto topo = *net::Topology::Random(60, 7.0, 21);
  auto tree = routing::RoutingTree::Build(topo, 0);
  net::NetworkOptions opts;
  opts.loss_prob = loss;
  opts.max_retries = 6;
  opts.seed = 5;
  net::Network net(&topo, opts);
  net.set_parent_resolver(&tree);
  int delivered = 0, dropped = 0;
  net.set_delivery_handler([&](const net::Message&, net::NodeId) {
    ++delivered;
  });
  net.set_drop_handler([&](const net::Message&, net::NodeId, net::NodeId) {
    ++dropped;
  });
  Rng rng(9);
  int submitted = 0;
  for (int i = 0; i < 300; ++i) {
    net::Message m;
    m.kind = net::MessageKind::kData;
    m.origin = static_cast<net::NodeId>(rng.UniformInt(60));
    if (rng.Bernoulli(0.5)) {
      m.mode = net::RoutingMode::kTreeToRoot;
      m.dest = 0;
    } else {
      m.mode = net::RoutingMode::kSourcePath;
      m.dest = static_cast<net::NodeId>(rng.UniformInt(60));
      auto path = topo.ShortestPath(m.origin, m.dest);
      if (path.size() < 2 && m.origin != m.dest) continue;
      m.route = net.routes().InternPath(path);
    }
    m.size_bytes = 6;
    if (net.Submit(std::move(m)).ok()) ++submitted;
    if (i % 10 == 0) net.Step();
  }
  net.StepUntilQuiet(100000);
  EXPECT_EQ(delivered + dropped, submitted);
  if (loss == 0.0) {
    EXPECT_EQ(dropped, 0);
  }
  EXPECT_FALSE(net.HasTrafficInFlight());
}

INSTANTIATE_TEST_SUITE_P(LossSweep, ConservationTest,
                         ::testing::Values(0.0, 0.05, 0.2, 0.5));

TEST(DeterminismTest, IdenticalSeedsIdenticalRuns) {
  common::SequentialPhaseScope seq_phase;
  auto topo = *net::Topology::Random(80, 7.0, 13);
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  opts.knobs.reopt_interval = 25;
  opts.knobs.counter_reset_interval = 200;
  opts.loss_prob = 0.05;  // even stochastic loss is seed-deterministic
  opts.seed = 17;
  auto run = [&]() {
    auto wl = *workload::Workload::MakeQuery1(&topo, sel, 3, 7);
    return *core::RunExperiment(wl, opts, 60);
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.base_bytes, b.base_bytes);
}

TEST(DeterminismTest, DifferentNetworkSeedsDifferUnderLoss) {
  common::SequentialPhaseScope seq_phase;
  auto topo = *net::Topology::Random(80, 7.0, 13);
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kBase;
  opts.assumed = sel;
  opts.loss_prob = 0.3;
  opts.max_retries = 1;  // losses actually bite
  auto run = [&](uint64_t seed) {
    opts.seed = seed;
    auto wl = *workload::Workload::MakeQuery1(&topo, sel, 3, 7);
    return *core::RunExperiment(wl, opts, 40);
  };
  EXPECT_NE(run(1).total_bytes, run(2).total_bytes);
}

TEST(ChurnTest, ReviveRestoresService) {
  common::SequentialPhaseScope seq_phase;
  auto topo = *net::Topology::Random(60, 7.0, 21);
  auto tree = routing::RoutingTree::Build(topo, 0);
  net::Network net(&topo, {});
  net.set_parent_resolver(&tree);
  int delivered = 0;
  net.set_delivery_handler([&](const net::Message&, net::NodeId) {
    ++delivered;
  });
  // Pick a deep node and its parent; fail the parent, then revive it.
  net::NodeId deep = 0;
  for (net::NodeId u = 0; u < 60; ++u) {
    if (tree.DepthOf(u) > tree.DepthOf(deep)) deep = u;
  }
  net::NodeId parent = tree.ParentOf(deep);
  net.FailNode(parent);
  net::Message m;
  m.kind = net::MessageKind::kData;
  m.mode = net::RoutingMode::kTreeToRoot;
  m.origin = deep;
  m.dest = 0;
  m.size_bytes = 4;
  ASSERT_TRUE(net.Submit(m).ok());
  net.StepUntilQuiet(1000);
  EXPECT_EQ(delivered, 0);  // parent dead: nothing gets through
  net.ReviveNode(parent);
  ASSERT_TRUE(net.Submit(m).ok());
  net.StepUntilQuiet(1000);
  EXPECT_EQ(delivered, 1);
}

TEST(AllNodesToRootTest, ExactlyOneDeliveryPerNode) {
  common::SequentialPhaseScope seq_phase;
  auto topo = *net::Topology::Random(70, 7.0, 33);
  auto tree = routing::RoutingTree::Build(topo, 0);
  net::Network net(&topo, {});
  net.set_parent_resolver(&tree);
  int delivered = 0;
  net.set_delivery_handler([&](const net::Message&, net::NodeId at) {
    EXPECT_EQ(at, 0);
    ++delivered;
  });
  for (net::NodeId u = 0; u < 70; ++u) {
    net::Message m;
    m.kind = net::MessageKind::kData;
    m.mode = net::RoutingMode::kTreeToRoot;
    m.origin = u;
    m.dest = 0;
    m.size_bytes = 4;
    ASSERT_TRUE(net.Submit(std::move(m)).ok());
  }
  net.StepUntilQuiet();
  EXPECT_EQ(delivered, 70);
  // Total hop count equals the sum of depths.
  uint64_t messages = net.stats().TotalMessagesSent();
  uint64_t depth_sum = 0;
  for (net::NodeId u = 0; u < 70; ++u) depth_sum += tree.DepthOf(u);
  EXPECT_EQ(messages, depth_sum);
}

}  // namespace
}  // namespace aspen
