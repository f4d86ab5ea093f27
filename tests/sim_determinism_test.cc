// Determinism guarantees of the simulation kernel: the same seed must yield
// identical RunStats across repeated runs, and RunAveraged must produce
// bit-identical aggregates for any thread count (repetitions are
// independent; aggregation is serialized in seed order).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "join/executor.h"
#include "join/medium.h"
#include "net/topology.h"
#include "sim/cycle_scheduler.h"
#include "workload/workload.h"

namespace aspen {
namespace {

using workload::SelectivityParams;
using workload::Workload;

void ExpectIdentical(const join::RunStats& a, const join::RunStats& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.base_bytes, b.base_bytes);
  EXPECT_EQ(a.max_node_bytes, b.max_node_bytes);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.initiation_bytes, b.initiation_bytes);
  EXPECT_EQ(a.computation_bytes, b.computation_bytes);
  EXPECT_EQ(a.query_bytes, b.query_bytes);
  EXPECT_EQ(a.results, b.results);
  EXPECT_DOUBLE_EQ(a.avg_result_delay_cycles, b.avg_result_delay_cycles);
  EXPECT_DOUBLE_EQ(a.max_result_delay_cycles, b.max_result_delay_cycles);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.sampling_cycles, b.sampling_cycles);
}

TEST(SchedulerDeterminismTest, SameSeedSameStats) {
  auto topo = *net::Topology::Random(80, 7.0, 5);
  SelectivityParams sel{0.5, 0.5, 0.2};
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  opts.knobs.reopt_interval = 25;
  opts.knobs.counter_reset_interval = 200;
  opts.loss_prob = 0.05;  // exercise the RNG-dependent paths
  opts.seed = 42;

  auto wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  auto first = core::RunExperiment(wl, opts, 60);
  auto second = core::RunExperiment(wl, opts, 60);
  ASSERT_TRUE(first.ok() && second.ok());
  ExpectIdentical(*first, *second);
  EXPECT_GT(first->results, 0u);
}

TEST(SchedulerDeterminismTest, SharedMediumSameSeedSameStats) {
  auto topo = *net::Topology::Random(60, 7.0, 3);
  SelectivityParams sel{0.5, 0.5, 0.2};
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kBase;
  opts.assumed = sel;

  auto run_once = [&]() {
    auto q1 = *Workload::MakeQuery1(&topo, sel, 3, 7);
    auto q2 = *Workload::MakeQuery2(&topo, sel, 3, 9);
    join::SharedMedium medium(&topo, {});
    auto r1 = medium.TryAddQuery(&q1, opts);
    auto r2 = medium.TryAddQuery(&q2, opts);
    EXPECT_TRUE(r1.ok() && r2.ok());
    join::JoinExecutor* e1 = *r1;
    join::JoinExecutor* e2 = *r2;
    EXPECT_TRUE(medium.InitiateAll().ok());
    EXPECT_TRUE(medium.RunCycles(20).ok());
    return std::make_pair(e1->Stats(), e2->Stats());
  };
  auto [a1, a2] = run_once();
  auto [b1, b2] = run_once();
  ExpectIdentical(a1, b1);
  ExpectIdentical(a2, b2);
}

TEST(SchedulerDeterminismTest, ShardedStatsMatchSequential) {
  // Learning and a lossy radio on top of the node-range phases: every
  // shard count must reproduce the one-shard run's stats exactly.
  auto topo = *net::Topology::Random(80, 7.0, 5);
  SelectivityParams sel{0.5, 0.5, 0.2};
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  opts.knobs.reopt_interval = 25;
  opts.knobs.counter_reset_interval = 200;
  opts.loss_prob = 0.05;  // exercise the RNG-dependent paths
  opts.seed = 42;

  auto wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  auto baseline = core::RunExperiment(wl, opts, 60);
  ASSERT_TRUE(baseline.ok());
  for (int shards : {2, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    opts.knobs.shards = shards;
    auto sharded = core::RunExperiment(wl, opts, 60);
    ASSERT_TRUE(sharded.ok());
    ExpectIdentical(*baseline, *sharded);
  }
}

join::RunStats RunInChunks(const net::Topology& topo,
                           const workload::Workload& wl,
                           join::ExecutorOptions opts,
                           const std::vector<int>& chunks, int seek_between) {
  (void)topo;
  join::JoinExecutor exec(&wl, opts);
  EXPECT_TRUE(exec.Initiate().ok());
  bool first = true;
  for (int n : chunks) {
    if (!first && seek_between > 0) {
      exec.scheduler()->SeekTo(exec.scheduler()->cycle() + seek_between);
    }
    first = false;
    EXPECT_TRUE(exec.RunCycles(n).ok());
  }
  return exec.Stats();
}

TEST(SchedulerDeterminismTest, ContinuationInvarianceAcrossShards) {
  // RunCycles(5) twice must equal RunCycles(10) at every shard count: the
  // straggler drain at the end of each call leaves the same state whatever
  // the partition.
  auto topo = *net::Topology::Random(70, 7.0, 11);
  SelectivityParams sel{0.5, 0.5, 0.2};
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  opts.seed = 9;
  auto wl = *Workload::MakeQuery1(&topo, sel, 3, 13);

  auto whole = RunInChunks(topo, wl, opts, {10}, 0);
  for (int shards : {1, 2, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    opts.knobs.shards = shards;
    ExpectIdentical(whole, RunInChunks(topo, wl, opts, {5, 5}, 0));
    ExpectIdentical(whole, RunInChunks(topo, wl, opts, {3, 3, 4}, 0));
  }
}

TEST(SchedulerDeterminismTest, SeekToMatchesAcrossShards) {
  // SeekTo between RunCycles calls (the shared-medium mid-run-admission
  // replay) resumes from the sought cycle identically at every shard
  // count.
  auto topo = *net::Topology::Random(70, 7.0, 17);
  SelectivityParams sel{0.5, 0.5, 0.2};
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  opts.seed = 5;
  auto wl = *Workload::MakeQuery1(&topo, sel, 3, 19);

  auto sequential = RunInChunks(topo, wl, opts, {4, 8}, /*seek_between=*/7);
  for (int shards : {2, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    opts.knobs.shards = shards;
    ExpectIdentical(sequential,
                    RunInChunks(topo, wl, opts, {4, 8}, /*seek_between=*/7));
  }
}

void ExpectIdenticalAggregates(const core::AggregatedStats& a,
                               const core::AggregatedStats& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_DOUBLE_EQ(a.total_bytes, b.total_bytes);
  EXPECT_DOUBLE_EQ(a.total_bytes_ci, b.total_bytes_ci);
  EXPECT_DOUBLE_EQ(a.base_bytes, b.base_bytes);
  EXPECT_DOUBLE_EQ(a.max_node_bytes, b.max_node_bytes);
  EXPECT_DOUBLE_EQ(a.total_messages, b.total_messages);
  EXPECT_DOUBLE_EQ(a.initiation_bytes, b.initiation_bytes);
  EXPECT_DOUBLE_EQ(a.computation_bytes, b.computation_bytes);
  EXPECT_DOUBLE_EQ(a.results, b.results);
  EXPECT_DOUBLE_EQ(a.avg_result_delay_cycles, b.avg_result_delay_cycles);
  EXPECT_DOUBLE_EQ(a.migrations, b.migrations);
  EXPECT_DOUBLE_EQ(a.failovers, b.failovers);
}

TEST(SchedulerDeterminismTest, RunAveragedInvariantAcrossThreadCounts) {
  auto topo = *net::Topology::Random(60, 7.0, 13);
  SelectivityParams sel{0.5, 0.5, 0.2};
  core::WorkloadFactory factory = [&](uint64_t seed) {
    return Workload::MakeQuery1(&topo, sel, 3, seed);
  };
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  opts.knobs.reopt_interval = 25;
  opts.knobs.counter_reset_interval = 200;

  auto serial = core::RunAveraged(factory, opts, 30, 9, 1, /*num_threads=*/1);
  auto parallel4 =
      core::RunAveraged(factory, opts, 30, 9, 1, /*num_threads=*/4);
  auto parallel0 =
      core::RunAveraged(factory, opts, 30, 9, 1, /*num_threads=*/0);
  ASSERT_TRUE(serial.ok() && parallel4.ok() && parallel0.ok());
  ExpectIdenticalAggregates(*serial, *parallel4);
  ExpectIdenticalAggregates(*serial, *parallel0);
  EXPECT_GT(serial->results, 0.0);
}

TEST(SchedulerDeterminismTest, RunAveragedParallelGeoRouting) {
  // GHT mote mode routes over the Gabriel planarization, which is built at
  // topology construction — repetitions sharing one topology must be safe.
  auto topo = *net::Topology::Random(60, 7.0, 21);
  SelectivityParams sel{0.5, 0.5, 0.2};
  core::WorkloadFactory factory = [&](uint64_t seed) {
    return Workload::MakeQuery1(&topo, sel, 3, seed);
  };
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kGht;
  opts.assumed = sel;
  auto serial = core::RunAveraged(factory, opts, 20, 8, 1, /*num_threads=*/1);
  auto parallel = core::RunAveraged(factory, opts, 20, 8, 1,
                                    /*num_threads=*/4);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ExpectIdenticalAggregates(*serial, *parallel);
}

}  // namespace
}  // namespace aspen
