// The BFS engine across thread counts: a multi-threaded run must be a
// valid minimal counterexample, bail on a budget at the same level as a
// 1-thread run, and survive its own growth paths. Agreement with the
// independent oracle is tests/mc_bfs_oracle_test.cpp's job.
#include <gtest/gtest.h>

#include "mc/checker.h"
#include "naive_bfs.h"

namespace tta::mc {
namespace {

ModelConfig config(guardian::Authority a) {
  ModelConfig cfg;
  cfg.authority = a;
  return cfg;
}

constexpr unsigned kThreadCounts[] = {1, 2, 5};

void expect_same_stats(const CheckStats& reference, const CheckStats& other,
                       const char* what) {
  EXPECT_EQ(reference.states_explored, other.states_explored) << what;
  EXPECT_EQ(reference.transitions, other.transitions) << what;
  EXPECT_EQ(reference.max_depth, other.max_depth) << what;
  EXPECT_EQ(reference.exhausted, other.exhausted) << what;
}

TEST(CheckerThreads, CounterexampleIsAValidMinimalViolationTrace) {
  // The multi-threaded trace may pick a different minimal-depth violation
  // than the 1-thread run, but it must be a connected root-anchored trace
  // whose only violating transition is the last one.
  TtpcStarModel model(config(guardian::Authority::kFullShifting));
  Checker checker(model, Threads{4});
  auto res = checker.check(no_integrated_node_freezes());
  ASSERT_FALSE(res.holds());
  ASSERT_FALSE(res.trace.empty());
  EXPECT_EQ(res.trace.front().before, model.initial());
  for (std::size_t i = 1; i < res.trace.size(); ++i) {
    EXPECT_EQ(res.trace[i - 1].after, res.trace[i].before) << "gap at " << i;
  }
  auto violation = no_integrated_node_freezes();
  for (std::size_t i = 0; i + 1 < res.trace.size(); ++i) {
    EXPECT_FALSE(violation(res.trace[i].before, res.trace[i].after))
        << "premature violation at step " << i;
  }
  EXPECT_TRUE(violation(res.trace.back().before, res.trace.back().after));
}

TEST(CheckerThreads, StateBudgetReportsUnexhaustedAtEveryThreadCount) {
  TtpcStarModel model(config(guardian::Authority::kPassive));
  auto impossible = [](const WorldState& w) {
    return w.nodes[0].state == ttpc::CtrlState::kDownload;
  };
  auto reference = Checker(model).find_state(impossible, /*max_states=*/500);
  for (unsigned threads : kThreadCounts) {
    Checker checker(model, Threads{threads});
    auto res = checker.find_state(impossible, /*max_states=*/500);
    EXPECT_FALSE(res.holds());  // a budget bail is not "unreachable"
    EXPECT_EQ(res.verdict, Verdict::kInconclusive);
    EXPECT_FALSE(res.stats.exhausted);
    // Budget bail-outs are level-synchronized, so even the partial
    // exploration agrees across thread counts.
    expect_same_stats(reference.stats, res.stats, "budget");
  }
}

TEST(CheckerThreads, RecoverabilityBudgetBailIsExplicit) {
  ModelConfig cfg = config(guardian::Authority::kFullShifting);
  cfg.max_out_of_slot_errors = 1;
  TtpcStarModel model(cfg);
  auto all_active = [&model](const WorldState& w) {
    for (std::size_t i = 0; i < model.num_nodes(); ++i) {
      if (w.nodes[i].state != ttpc::CtrlState::kActive) return false;
    }
    return true;
  };
  Checker checker(model, Threads{2});
  auto res = checker.check_recoverability(all_active, /*max_states=*/1'000);
  EXPECT_FALSE(res.stats.exhausted);
  EXPECT_FALSE(res.recoverable_everywhere);  // withheld, not fabricated
  EXPECT_EQ(res.dead_states, 0u);
  EXPECT_TRUE(res.witness.empty());
  EXPECT_GT(res.stats.seconds, 0.0);
}

TEST(CheckerThreads, TinyInitialTableGrowsThroughOverflow) {
  // Start from a 64-slot table with proactive growth disabled, so every
  // expanding level saturates mid-flight and must take the overflow ->
  // drop-partial-level -> rebuild -> retry path; ~111k states later the
  // stats must still equal the oracle's, at one thread and at four.
  TtpcStarModel model(config(guardian::Authority::kPassive));
  const auto oracle =
      naive::check<TtpcStarModel>(model, no_integrated_node_freezes());
  for (unsigned threads : {1u, 4u}) {
    Checker checker(model, Threads{threads}, /*initial_capacity=*/64);
    checker.set_growth_headroom(0);
    auto res = checker.check(no_integrated_node_freezes());
    EXPECT_TRUE(res.holds());
    EXPECT_EQ(res.stats.states_explored, oracle.states) << threads;
    EXPECT_EQ(res.stats.transitions, oracle.transitions) << threads;
    EXPECT_EQ(res.stats.max_depth, oracle.max_depth) << threads;
    EXPECT_GT(res.stats.hash_recomputes, 0u) << threads;
  }
}

TEST(CheckerThreads, FiveNodeClusterCrossValidates) {
  // The bench headline workload in miniature: 5-node small-shifting
  // exhaustive verification, one thread vs the hardware concurrency.
  ModelConfig cfg = config(guardian::Authority::kSmallShifting);
  cfg.protocol.num_nodes = 5;
  cfg.protocol.num_slots = 5;
  // Keep the state space test-sized: no transient silence/bad-frame faults.
  cfg.allow_silence_fault = false;
  cfg.allow_bad_frame_fault = false;
  TtpcStarModel model(cfg);
  auto reference = Checker(model).check(no_integrated_node_freezes());
  Checker checker(model, Threads{0});  // hardware concurrency
  auto res = checker.check(no_integrated_node_freezes());
  EXPECT_TRUE(reference.holds());
  EXPECT_TRUE(res.holds());
  expect_same_stats(reference.stats, res.stats, "5-node");
}

}  // namespace
}  // namespace tta::mc
