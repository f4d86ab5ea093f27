// Service-mode coverage: core::ServiceRunner / RunService drive a
// SharedMedium through scripted query arrivals and departures. The run
// must admit and tear down exactly the scheduled population, keep
// data-plane occupancy bounded (back to the resident baseline after the
// churn horizon), retain departed queries' metrics in the ledger, and be
// byte-identical for any medium shard count.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.h"
#include "join/medium.h"
#include "net/topology.h"
#include "scenario/dynamics.h"
#include "workload/workload.h"

namespace aspen {
namespace core {
namespace {

using workload::SelectivityParams;
using workload::Workload;

struct ServiceFixture {
  net::Topology topo;
  std::vector<Workload> pool;
  std::vector<const Workload*> templates;
  scenario::DynamicsSchedule schedule;

  explicit ServiceFixture(uint64_t seed = 11)
      : topo(*net::Topology::Random(80, 7.0, seed)) {
    SelectivityParams sel{0.5, 0.5, 0.2};
    pool.push_back(*Workload::MakeQuery1(&topo, sel, 3, 7));
    pool.push_back(*Workload::MakeQuery2(&topo, sel, 3, 9));
    for (const auto& wl : pool) templates.push_back(&wl);
    // One resident (slot 100, never departs) plus two churn waves.
    schedule.ArriveAt(0, /*slot=*/100, /*template_id=*/0);
    scenario::DynamicsSchedule::QueryChurnOptions churn;
    churn.start_cycle = 2;
    churn.waves = 2;
    churn.arrivals_per_wave = 2;
    churn.wave_period = 12;
    churn.min_lifetime = 3;
    churn.max_lifetime = 8;
    churn.num_templates = 2;
    churn.seed = 5;
    const scenario::DynamicsSchedule churned =
        scenario::DynamicsSchedule::QueryChurn(churn);
    for (const auto& e : churned.events()) schedule.Add(e);
  }

  ServiceOptions Options(int shards = 1) const {
    ServiceOptions opts;
    opts.executor.algorithm = join::Algorithm::kInnet;
    opts.executor.assumed = {0.5, 0.5, 0.2};
    opts.medium.knobs.shards = shards;
    opts.dynamics = &schedule;
    return opts;
  }
};

TEST(ServiceTest, ChurnAdmitsAndRemovesScheduledPopulation) {
  ServiceFixture fx;
  auto stats = RunService(fx.templates, fx.Options(), /*cycles=*/32);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->arrivals, 5);    // 1 resident + 4 churned
  EXPECT_EQ(stats->departures, 4);  // every churned instance departed
  EXPECT_EQ(stats->resident_queries, 1);
  EXPECT_EQ(stats->ledger.size(), 4u);
  EXPECT_GT(stats->total_results, 0u);
  EXPECT_EQ(stats->cycles, 32);
  for (const auto& rec : stats->ledger) {
    EXPECT_GT(rec.removed_cycle, rec.admitted_cycle);
  }
}

TEST(ServiceTest, OccupancyReturnsToResidentBaselineAfterChurn) {
  ServiceFixture fx;
  auto stats = RunService(fx.templates, fx.Options(), /*cycles=*/32);
  ASSERT_TRUE(stats.ok());
  // Sample 0 precedes the resident's admission (empty plane); sample 1 is
  // the steady checkpoint before the first churned arrival — the resident
  // baseline. The final sample (post-drain) must return to it exactly.
  ASSERT_GE(stats->occupancy.size(), 3u);
  const auto& baseline = stats->occupancy[1];
  const auto& final_sample = stats->occupancy.back();
  ASSERT_GT(baseline.routes_live, 0u);
  EXPECT_EQ(final_sample.routes_live, baseline.routes_live);
  EXPECT_EQ(final_sample.mcasts_live, baseline.mcasts_live);
  EXPECT_EQ(final_sample.payload_live, 0u);
  EXPECT_GE(stats->peak_routes_live, baseline.routes_live);
}

TEST(ServiceTest, ShardedServiceRunsAreByteIdentical) {
  // The whole service path — churn, teardown, route GC — must preserve
  // the sharded kernel's byte-identity invariant.
  ServiceFixture fx;
  auto s1 = RunService(fx.templates, fx.Options(/*shards=*/1), 30);
  auto s3 = RunService(fx.templates, fx.Options(/*shards=*/3), 30);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(s1->total_results, s3->total_results);
  EXPECT_EQ(s1->total_bytes, s3->total_bytes);
  EXPECT_EQ(s1->total_messages, s3->total_messages);
  EXPECT_EQ(s1->arrivals, s3->arrivals);
  EXPECT_EQ(s1->departures, s3->departures);
  ASSERT_EQ(s1->occupancy.size(), s3->occupancy.size());
  for (size_t i = 0; i < s1->occupancy.size(); ++i) {
    EXPECT_EQ(s1->occupancy[i].routes_live, s3->occupancy[i].routes_live);
    EXPECT_EQ(s1->occupancy[i].payload_live, s3->occupancy[i].payload_live);
    EXPECT_EQ(s1->occupancy[i].payload_capacity,
              s3->occupancy[i].payload_capacity);
  }
  ASSERT_EQ(s1->ledger.size(), s3->ledger.size());
  for (size_t i = 0; i < s1->ledger.size(); ++i) {
    EXPECT_EQ(s1->ledger[i].stats.results, s3->ledger[i].stats.results);
    EXPECT_EQ(s1->ledger[i].stats.query_bytes,
              s3->ledger[i].stats.query_bytes);
  }
}

TEST(ServiceTest, RunnerContinuesAcrossRunCalls) {
  ServiceFixture fx;
  ServiceOptions opts = fx.Options();
  auto runner = ServiceRunner::Create(fx.templates, opts);
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE((*runner)->Run(16).ok());
  ASSERT_TRUE((*runner)->Run(16).ok());
  ServiceStats split = (*runner)->Finalize();
  auto whole = RunService(fx.templates, opts, 32);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(split.arrivals, whole->arrivals);
  EXPECT_EQ(split.departures, whole->departures);
  EXPECT_EQ(split.cycles, whole->cycles);
  EXPECT_EQ(split.resident_queries, whole->resident_queries);
}

TEST(ServiceTest, RejectsDuplicateSlotWithoutLeakingAQuery) {
  ServiceFixture fx;
  scenario::DynamicsSchedule bad;
  bad.ArriveAt(0, /*slot=*/7, /*template_id=*/0);
  bad.ArriveAt(1, /*slot=*/7, /*template_id=*/1);  // slot reused while live
  ServiceOptions opts = fx.Options();
  opts.dynamics = &bad;
  auto runner = ServiceRunner::Create(fx.templates, opts);
  ASSERT_TRUE(runner.ok());
  Status st = (*runner)->Run(4);
  EXPECT_FALSE(st.ok());
  // The duplicate was rejected before admission: only the first instance
  // is live and accounted.
  EXPECT_EQ((*runner)->medium().num_queries(), 1);
  EXPECT_EQ((*runner)->progress().arrivals, 1);
}

TEST(ServiceTest, SharedModeChurnIsShardCountInvariant) {
  // Mid-run owner departure under placement sharing: adoption restores the
  // promoted subscriber's pair lists — state its sample shard passes read
  // through the per-shard producer caches, which the adoption must
  // invalidate. Slot 0 owns every shared placement of template 0, slots
  // 1-2 subscribe; the owner departs mid-run, promoting slot 1 while slot
  // 2 stays subscribed. The whole run must be byte-identical at every
  // shard count.
  net::Topology topo = *net::Topology::Random(80, 7.0, 11);
  SelectivityParams sel{0.5, 0.5, 0.2};
  Workload wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  std::vector<const Workload*> templates = {&wl};
  scenario::DynamicsSchedule schedule;
  schedule.ArriveAt(0, /*slot=*/0, /*template_id=*/0);
  schedule.ArriveAt(2, /*slot=*/1, /*template_id=*/0);
  schedule.ArriveAt(4, /*slot=*/2, /*template_id=*/0);
  schedule.DepartAt(12, /*slot=*/0);

  auto run = [&](int shards) {
    ServiceOptions opts;
    opts.executor.algorithm = join::Algorithm::kInnet;
    opts.executor.assumed = sel;
    opts.executor.knobs.tree_mode = common::TreeMode::kShared;
    opts.medium.knobs.tree_mode = common::TreeMode::kShared;
    opts.medium.knobs.shards = shards;
    opts.dynamics = &schedule;
    auto stats = RunService(templates, opts, /*cycles=*/28);
    EXPECT_TRUE(stats.ok());
    return *std::move(stats);
  };

  const ServiceStats base = run(1);
  EXPECT_EQ(base.arrivals, 3);
  EXPECT_EQ(base.departures, 1);
  EXPECT_GT(base.total_results, 0u);
  for (int shards : {2, 3, 4}) {
    const ServiceStats other = run(shards);
    EXPECT_EQ(other.total_results, base.total_results) << "shards=" << shards;
    EXPECT_EQ(other.total_bytes, base.total_bytes) << "shards=" << shards;
    EXPECT_EQ(other.total_messages, base.total_messages)
        << "shards=" << shards;
    ASSERT_EQ(other.ledger.size(), base.ledger.size());
    EXPECT_EQ(other.ledger[0].stats.results, base.ledger[0].stats.results);
  }
}

TEST(ServiceTest, RejectsTemplateOutsideThePool) {
  ServiceFixture fx;
  scenario::DynamicsSchedule bad;
  bad.ArriveAt(0, /*slot=*/0, /*template_id=*/9);  // pool has 2 templates
  ServiceOptions opts = fx.Options();
  opts.dynamics = &bad;
  auto runner = ServiceRunner::Create(fx.templates, opts);
  ASSERT_TRUE(runner.ok());
  Status st = (*runner)->Run(2);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(ServiceTest, RejectsMixedTopologyTemplates) {
  ServiceFixture fx;
  auto other_topo = *net::Topology::Random(40, 7.0, 3);
  auto foreign = *Workload::MakeQuery1(&other_topo, {0.5, 0.5, 0.2}, 3, 7);
  std::vector<const Workload*> templates = fx.templates;
  templates.push_back(&foreign);
  auto r = ServiceRunner::Create(templates, fx.Options());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

}  // namespace
}  // namespace core
}  // namespace aspen
