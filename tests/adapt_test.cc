#include <gtest/gtest.h>

#include "adapt/estimator.h"
#include "adapt/reopt.h"

namespace aspen {
namespace adapt {
namespace {

using workload::SelectivityParams;

TEST(EstimatorTest, SigmaStFormula) {
  // sigma_st = Nst / (w * (Ns + Nt)) — Section 6.
  SelectivityEstimator e;
  for (int i = 0; i < 10; ++i) e.RecordS(1);  // Ns=10, Nst=10
  for (int i = 0; i < 10; ++i) e.RecordT(0);  // Nt=10
  for (int i = 0; i < 20; ++i) e.Tick();
  SelectivityParams prior{0.5, 0.5, 0.5};
  auto est = e.Estimate(/*w=*/2, prior);
  EXPECT_DOUBLE_EQ(est.sigma_st, 10.0 / (2.0 * 20.0));
  EXPECT_DOUBLE_EQ(est.sigma_s, 0.5);  // 10 sends / 20 cycles
  EXPECT_DOUBLE_EQ(est.sigma_t, 0.5);
}

TEST(EstimatorTest, FallsBackToPriorWithoutEvidence) {
  SelectivityEstimator e;
  SelectivityParams prior{0.3, 0.7, 0.1};
  auto est = e.Estimate(1, prior);
  EXPECT_DOUBLE_EQ(est.sigma_s, 0.3);
  EXPECT_DOUBLE_EQ(est.sigma_t, 0.7);
  EXPECT_DOUBLE_EQ(est.sigma_st, 0.1);
}

TEST(EstimatorTest, ClampsToProbabilityRange) {
  SelectivityEstimator e;
  e.RecordS(50);  // burst: Nst >> w*(Ns+Nt)
  e.Tick();
  auto est = e.Estimate(1, SelectivityParams{0.5, 0.5, 0.5});
  EXPECT_LE(est.sigma_st, 1.0);
  EXPECT_GE(est.sigma_s, 1e-4);
}

TEST(EstimatorTest, ResetClearsCounters) {
  SelectivityEstimator e;
  e.RecordS(1);
  e.RecordT(2);
  e.Tick();
  e.Reset();
  EXPECT_EQ(e.ns(), 0);
  EXPECT_EQ(e.nt(), 0);
  EXPECT_EQ(e.nst(), 0);
  EXPECT_EQ(e.cycles(), 0);
}

TEST(DivergenceTest, TriggersBeyondThreshold) {
  SelectivityParams ref{0.5, 0.5, 0.2};
  // 33% of 0.5 is 0.165: a move to 0.70 diverges, 0.60 does not.
  SelectivityParams close = ref;
  close.sigma_s = 0.60;
  EXPECT_FALSE(SelectivityEstimator::Diverged(close, ref, 0.33));
  SelectivityParams far = ref;
  far.sigma_s = 0.70;
  EXPECT_TRUE(SelectivityEstimator::Diverged(far, ref, 0.33));
}

TEST(DivergenceTest, AnyComponentSuffices) {
  SelectivityParams ref{0.5, 0.5, 0.2};
  SelectivityParams st_only = ref;
  st_only.sigma_st = 0.05;
  EXPECT_TRUE(SelectivityEstimator::Diverged(st_only, ref, 0.33));
}

TEST(DivergenceTest, RelativeNotAbsolute) {
  // Small absolute changes on small references still trigger.
  SelectivityParams ref{0.5, 0.5, 0.01};
  SelectivityParams fresh = ref;
  fresh.sigma_st = 0.02;  // +100% relative
  EXPECT_TRUE(SelectivityEstimator::Diverged(fresh, ref, 0.33));
}

TEST(DivergenceTest, ZeroReferenceHandled) {
  SelectivityParams ref{0.0, 0.5, 0.2};
  SelectivityParams fresh = ref;
  EXPECT_FALSE(SelectivityEstimator::Diverged(fresh, ref, 0.33));
  fresh.sigma_s = 0.001;
  EXPECT_TRUE(SelectivityEstimator::Diverged(fresh, ref, 0.33));
}

TEST(ReoptResetTest, ResetArmsEveryResetIntervalAlongsideItsPass) {
  // Pass every 5 ticks, reset every 10: each reset is armed on the same
  // tick as a pass, and both flags are drained once.
  ReoptController ctl(/*interval=*/5, /*threshold=*/0.33,
                      /*reset_interval=*/10);
  for (int t = 1; t <= 20; ++t) {
    ctl.Tick();
    EXPECT_EQ(ctl.TakeDue(), t % 5 == 0) << "tick " << t;
    EXPECT_EQ(ctl.TakeReset(), t % 10 == 0) << "tick " << t;
  }
  EXPECT_FALSE(ctl.TakeReset());
}

TEST(ReoptResetTest, ZeroResetIntervalOrLoopOffNeverResets) {
  ReoptController no_reset(/*interval=*/5, /*threshold=*/0.33);
  ReoptController off(/*interval=*/0, /*threshold=*/0.33,
                      /*reset_interval=*/10);
  for (int t = 1; t <= 20; ++t) {
    no_reset.Tick();
    off.Tick();
    EXPECT_FALSE(no_reset.TakeReset());
    EXPECT_FALSE(off.TakeReset());
  }
}

}  // namespace
}  // namespace adapt
}  // namespace aspen
