#include <gtest/gtest.h>

#include <algorithm>

#include "join/medium.h"
#include "net/topology.h"
#include "query/parser.h"
#include "tests/reference_join.h"
#include "workload/workload.h"

namespace aspen {
namespace join {
namespace {

using workload::SelectivityParams;
using workload::Workload;

TEST(SharedMediumTest, TwoQueriesProduceCorrectResults) {
  auto topo = net::Topology::Random(100, 7.0, 42);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto q1 = Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto q2 = Workload::MakeQuery2(&*topo, sel, 3, 9);
  ASSERT_TRUE(q1.ok() && q2.ok());

  SharedMedium medium(&*topo, {});
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.features = InnetFeatures::Cmg();
  opts.assumed = sel;
  auto r1 = medium.TryAddQuery(&*q1, opts);
  auto r2 = medium.TryAddQuery(&*q2, opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  JoinExecutor* e1 = *r1;
  JoinExecutor* e2 = *r2;
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(30).ok());

  EXPECT_EQ(e1->results(), testing_util::ReferenceResults(*q1, 30));
  EXPECT_EQ(e2->results(), testing_util::ReferenceResults(*q2, 30));
  EXPECT_GT(medium.stats().TotalBytesSent(), 0u);
}

TEST(SharedMediumTest, ResultsMatchSoloExecution) {
  // Interleaving two queries on one medium must not change either query's
  // semantics — only the shared traffic accounting.
  auto topo = net::Topology::Random(80, 7.0, 11);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto shared_wl = *Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto other_wl = *Workload::MakeQuery2(&*topo, sel, 3, 9);
  auto solo_wl = *Workload::MakeQuery1(&*topo, sel, 3, 7);

  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  opts.assumed = sel;

  SharedMedium medium(&*topo, {});
  auto shared_admitted = medium.TryAddQuery(&shared_wl, opts);
  ASSERT_TRUE(shared_admitted.ok());
  JoinExecutor* shared_exec = *shared_admitted;
  ASSERT_TRUE(medium.TryAddQuery(&other_wl, opts).ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(25).ok());

  JoinExecutor solo(&solo_wl, opts);
  ASSERT_TRUE(solo.Initiate().ok());
  ASSERT_TRUE(solo.RunCycles(25).ok());
  EXPECT_EQ(shared_exec->results(), solo.results());
}

TEST(SharedMediumTest, CombinedTrafficAtLeastEachQuery) {
  auto topo = net::Topology::Random(80, 7.0, 11);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto q1 = *Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto q1_solo = *Workload::MakeQuery1(&*topo, sel, 3, 7);
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  opts.assumed = sel;

  JoinExecutor solo(&q1_solo, opts);
  ASSERT_TRUE(solo.Initiate().ok());
  ASSERT_TRUE(solo.RunCycles(20).ok());
  uint64_t solo_bytes = solo.network().stats().TotalBytesSent();

  auto q2 = *Workload::MakeQuery2(&*topo, sel, 3, 9);
  SharedMedium medium(&*topo, {});
  ASSERT_TRUE(medium.TryAddQuery(&q1, opts).ok());
  ASSERT_TRUE(medium.TryAddQuery(&q2, opts).ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(20).ok());
  EXPECT_GT(medium.stats().TotalBytesSent(), solo_bytes);
}

TEST(SharedMediumTest, CrossQueryMergingSavesHeaders) {
  // With combining enabled, data frames from different queries headed the
  // same way share link headers, so two queries on one medium cost less
  // than the sum of two isolated runs.
  auto topo = net::Topology::Random(80, 7.0, 11);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{1.0, 1.0, 0.2};
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  opts.assumed = sel;

  uint64_t sum_solo = 0;
  for (uint64_t seed : {7ULL, 9ULL}) {
    auto wl = *Workload::MakeQuery1(&*topo, sel, 3, seed);
    JoinExecutor solo(&wl, opts);
    ASSERT_TRUE(solo.Initiate().ok());
    ASSERT_TRUE(solo.RunCycles(20).ok());
    sum_solo += solo.network().stats().TotalBytesSent();
  }

  auto a = *Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto b = *Workload::MakeQuery1(&*topo, sel, 3, 9);
  net::NetworkOptions shared_opts;
  shared_opts.enable_merging = true;
  SharedMedium medium(&*topo, shared_opts);
  ASSERT_TRUE(medium.TryAddQuery(&a, opts).ok());
  ASSERT_TRUE(medium.TryAddQuery(&b, opts).ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(20).ok());
  EXPECT_LT(medium.stats().TotalBytesSent(), sum_solo);
}

TEST(SharedMediumTest, RunCyclesRejectedOnAttachedExecutor) {
  auto topo = net::Topology::Random(40, 7.0, 3);
  ASSERT_TRUE(topo.ok());
  auto wl = *Workload::MakeQuery1(&*topo, {0.5, 0.5, 0.2}, 3, 7);
  SharedMedium medium(&*topo, {});
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  auto admitted = medium.TryAddQuery(&wl, opts);
  ASSERT_TRUE(admitted.ok());
  JoinExecutor* exec = *admitted;
  ASSERT_TRUE(medium.InitiateAll().ok());
  EXPECT_FALSE(exec->RunCycles(1).ok());
  EXPECT_TRUE(medium.RunCycles(1).ok());
}

TEST(SharedMediumTest, UninitiatedQueryFailsPreconditionAtEveryShardCount) {
  // An admitted but never-initiated query has no node state; its sample
  // phase must refuse to run before any shard pass touches that state.
  auto topo = net::Topology::Random(40, 7.0, 3);
  ASSERT_TRUE(topo.ok());
  auto wl = *Workload::MakeQuery1(&*topo, {0.5, 0.5, 0.2}, 3, 7);
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  for (int shards : {1, 2, 4}) {
    MediumOptions mopts;
    mopts.knobs.shards = shards;
    SharedMedium medium(&*topo, {}, mopts);
    ASSERT_TRUE(medium.TryAddQuery(&wl, opts).ok());
    Status st = medium.RunCycles(1);
    EXPECT_TRUE(st.IsFailedPrecondition())
        << "shards=" << shards << ": " << st.ToString();
  }
}

TEST(SharedMediumTest, OutOfRangeShardCountsMatchOneShard) {
  // The scheduler clamps the shard count to [1, node count], so zero,
  // negative and oversized requests run and match the one-shard medium.
  auto topo = net::Topology::Random(40, 7.0, 3);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto q1 = *Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto q2 = *Workload::MakeQuery2(&*topo, sel, 3, 9);
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.features = InnetFeatures::Cmg();
  opts.assumed = sel;
  struct Outcome {
    uint64_t results1, results2, bytes, messages;
  };
  auto run = [&](int shards) {
    MediumOptions mopts;
    mopts.knobs.shards = shards;
    SharedMedium medium(&*topo, {}, mopts);
    JoinExecutor* e1 = *medium.TryAddQuery(&q1, opts);
    JoinExecutor* e2 = *medium.TryAddQuery(&q2, opts);
    EXPECT_TRUE(medium.InitiateAll().ok());
    EXPECT_TRUE(medium.RunCycles(20).ok());
    EXPECT_EQ(medium.scheduler()->num_shards(),
              std::max(1, std::min(shards, topo->num_nodes())));
    return Outcome{e1->results(), e2->results(),
                   medium.stats().TotalBytesSent(),
                   medium.stats().TotalMessagesSent()};
  };
  const Outcome base = run(1);
  EXPECT_GT(base.results1 + base.results2, 0u);
  for (int shards : {0, -2, topo->num_nodes() + 5}) {
    const Outcome o = run(shards);
    EXPECT_EQ(o.results1, base.results1) << "shards=" << shards;
    EXPECT_EQ(o.results2, base.results2) << "shards=" << shards;
    EXPECT_EQ(o.bytes, base.bytes) << "shards=" << shards;
    EXPECT_EQ(o.messages, base.messages) << "shards=" << shards;
  }
}

TEST(SharedMediumTest, EmptyMediumRejectsRun) {
  auto topo = net::Topology::Random(40, 7.0, 3);
  ASSERT_TRUE(topo.ok());
  SharedMedium medium(&*topo, {});
  EXPECT_FALSE(medium.RunCycles(1).ok());
}

TEST(SharedMediumTest, TryAddQueryRejectsMismatchedSampleInterval) {
  auto topo = net::Topology::Random(40, 7.0, 3);
  ASSERT_TRUE(topo.ok());
  auto wl = *Workload::MakeQuery1(&*topo, {0.5, 0.5, 0.2}, 3, 7);
  // Same query, slower sampling clock: incompatible with the first query's
  // scheduler.
  query::JoinQuery slow_query = wl.join_query();
  slow_query.window.sample_interval *= 2;
  auto slow = Workload::FromQuery(&*topo, slow_query, {0.5, 0.5, 0.2}, 9);
  ASSERT_TRUE(slow.ok());

  SharedMedium medium(&*topo, {});
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  ASSERT_TRUE(medium.TryAddQuery(&wl, opts).ok());
  auto rejected = medium.TryAddQuery(&*slow, opts);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  // Nothing was registered by the failed call; the medium still runs.
  EXPECT_EQ(medium.num_queries(), 1);
  ASSERT_TRUE(medium.InitiateAll().ok());
  EXPECT_TRUE(medium.RunCycles(1).ok());
}

TEST(SharedMediumTest, TryAddQueryRejectsForeignTopology) {
  auto topo = net::Topology::Random(40, 7.0, 3);
  auto other_topo = net::Topology::Random(40, 7.0, 4);
  ASSERT_TRUE(topo.ok() && other_topo.ok());
  auto wl = *Workload::MakeQuery1(&*other_topo, {0.5, 0.5, 0.2}, 3, 7);
  SharedMedium medium(&*topo, {});
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  auto rejected = medium.TryAddQuery(&wl, opts);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_EQ(medium.num_queries(), 0);
}

// ---- QuerySpec admission (SQL in, medium-owned workload) --------------------

constexpr char kAppendixBSql[] =
    "SELECT S.id, T.id, S.time FROM S, T [windowsize=3 sampleinterval=100] "
    "WHERE S.id < 25 AND hash(S.u) % 2 = 0 AND T.id > 50 AND "
    "hash(T.u) % 2 = 0 AND S.x = T.y + 5 AND S.u = T.u";

TEST(SharedMediumTest, QuerySpecAdmissionMatchesHandBuiltWorkload) {
  auto topo = net::Topology::Random(100, 7.0, 42);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};

  SharedMedium::QuerySpec spec;
  spec.sql = kAppendixBSql;
  spec.params = sel;
  spec.seed = 7;
  spec.options.algorithm = Algorithm::kBase;
  spec.options.assumed = sel;

  SharedMedium medium(&*topo, {});
  auto admitted = medium.TryAddQuery(spec);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  JoinExecutor* exec = *admitted;
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(30).ok());

  // The spec path must be equivalent to parsing + building the workload by
  // hand: same query, params and seed → same reference result count.
  auto query = query::ParseQuery(kAppendixBSql);
  ASSERT_TRUE(query.ok());
  auto by_hand = Workload::FromQuery(&*topo, *std::move(query), sel, 7);
  ASSERT_TRUE(by_hand.ok());
  EXPECT_EQ(exec->results(), testing_util::ReferenceResults(*by_hand, 30));
  EXPECT_GT(exec->results(), 0u);
}

TEST(SharedMediumTest, QuerySpecBadSqlRejectedNothingRegistered) {
  auto topo = net::Topology::Random(40, 7.0, 3);
  ASSERT_TRUE(topo.ok());
  SharedMedium medium(&*topo, {});
  SharedMedium::QuerySpec spec;
  spec.sql = "SELECT FROM WHERE";  // not a join query
  auto rejected = medium.TryAddQuery(spec);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(medium.num_queries(), 0);
  // The medium is unharmed: a valid spec still admits afterwards.
  spec.sql = kAppendixBSql;
  spec.params = {0.5, 0.5, 0.2};
  spec.options.assumed = spec.params;
  EXPECT_TRUE(medium.TryAddQuery(spec).ok());
  EXPECT_EQ(medium.num_queries(), 1);
}

TEST(SharedMediumTest, RemoveQueryFreesSpecOwnedWorkload) {
  auto topo = net::Topology::Random(60, 7.0, 5);
  ASSERT_TRUE(topo.ok());
  SharedMedium medium(&*topo, {});
  SharedMedium::QuerySpec spec;
  spec.sql = kAppendixBSql;
  spec.params = {0.5, 0.5, 0.2};
  spec.seed = 9;
  spec.options.algorithm = Algorithm::kBase;
  spec.options.assumed = spec.params;
  auto admitted = medium.TryAddQuery(spec);
  ASSERT_TRUE(admitted.ok());
  int id = (*admitted)->query_id();
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(5).ok());
  // Removal tears down the executor AND the medium-owned workload (ASan
  // would flag a leak or a dangling sample if either survived)...
  ASSERT_TRUE(medium.RemoveQuery(id).ok());
  EXPECT_EQ(medium.num_queries(), 0);
  // ...and the medium keeps serving: re-admit and run again.
  auto again = medium.TryAddQuery(spec);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  EXPECT_TRUE(medium.RunCycles(5).ok());
}

TEST(SharedMediumTest, PlacementSharingKeysOnAdaptiveLoopSettings) {
  // A subscriber's pairs are evaluated (and re-placed) by the owner, so two
  // queries may share a placement only if they would adapt it identically.
  auto topo = *net::Topology::Random(80, 7.0, 11);
  SelectivityParams sel{0.5, 0.5, 0.2};
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.features = InnetFeatures::Cm();
  opts.assumed = sel;
  opts.knobs.tree_mode = common::TreeMode::kShared;
  opts.knobs.reopt_interval = 10;
  MediumOptions mopts;
  mopts.knobs.tree_mode = common::TreeMode::kShared;

  auto shared_count = [&](const ExecutorOptions& second) {
    auto q1 = *Workload::MakeQuery1(&topo, sel, 3, 7);
    auto q2 = *Workload::MakeQuery1(&topo, sel, 3, 7);
    SharedMedium medium(&topo, {}, mopts);
    EXPECT_TRUE(medium.TryAddQuery(&q1, opts).ok());
    EXPECT_TRUE(medium.TryAddQuery(&q2, second).ok());
    EXPECT_TRUE(medium.InitiateAll().ok());
    return medium.num_shared_placements();
  };
  EXPECT_GT(shared_count(opts), 0);
  ExecutorOptions other_interval = opts;
  other_interval.knobs.reopt_interval = 25;
  EXPECT_EQ(shared_count(other_interval), 0);
  ExecutorOptions other_threshold = opts;
  other_threshold.knobs.reopt_threshold = 0.5;
  EXPECT_EQ(shared_count(other_threshold), 0);
  ExecutorOptions other_reset = opts;
  other_reset.knobs.counter_reset_interval = 200;
  EXPECT_EQ(shared_count(other_reset), 0);
}

}  // namespace
}  // namespace join
}  // namespace aspen
