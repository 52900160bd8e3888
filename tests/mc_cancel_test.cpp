// Cooperative cancellation at one thread and at several: a fired
// CancelToken (manual or deadline) must yield an explicit kInconclusive
// verdict with honest partial statistics — never a hang, never a
// fabricated HOLDS/VIOLATED — and a token that never fires must not
// perturb results at all.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "mc/checker.h"
#include "naive_bfs.h"
#include "util/cancel_token.h"

namespace tta::mc {
namespace {

ModelConfig config(guardian::Authority a, std::uint8_t nodes = 4) {
  ModelConfig cfg;
  cfg.authority = a;
  cfg.protocol.num_nodes = nodes;
  cfg.protocol.num_slots = nodes;
  return cfg;
}

Checker<TtpcStarModel>::Goal all_active(const TtpcStarModel& model) {
  std::size_t n = model.num_nodes();
  return [n](const WorldState& w) {
    for (std::size_t i = 0; i < n; ++i) {
      if (w.nodes[i].state != ttpc::CtrlState::kActive) return false;
    }
    return true;
  };
}

TEST(CancelToken, ManualAndDeadlineFiring) {
  util::CancelToken manual;
  EXPECT_FALSE(manual.cancelled_now());
  manual.request_cancel();
  EXPECT_TRUE(manual.cancelled());
  EXPECT_TRUE(manual.cancelled_now());

  util::CancelToken deadline =
      util::CancelToken::after(std::chrono::milliseconds(20));
  EXPECT_FALSE(deadline.cancelled_now());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(deadline.cancelled_now());
  // Once observed, the fast-path flag reports it too.
  EXPECT_TRUE(deadline.cancelled());
}

TEST(CancelTokenDeadline, OvershootIsBoundedByTheClockPollPeriod) {
  // The amortized deadline clock promises (util/cancel_token.h): a fired
  // deadline is observed at most kClockPollPeriod cancelled() polls after
  // the clock passed it. Desynchronize the poll counter, let the deadline
  // fire, and count the polls until observation.
  util::CancelToken token =
      util::CancelToken::after(std::chrono::milliseconds(25));
  // A handful of pre-deadline polls leave the counter mid-period (these
  // take nanoseconds; the deadline is comfortably far away).
  for (int i = 0; i < 7; ++i) (void)token.cancelled();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The deadline has passed on the wall clock but the fast path may not
  // know yet. Poll until it fires: the worst case is one full period.
  std::uint64_t polls = 0;
  while (!token.cancelled()) {
    ++polls;
    ASSERT_LE(polls, util::CancelToken::kClockPollPeriod)
        << "deadline overshoot exceeded the documented bound";
  }
  EXPECT_LE(polls, util::CancelToken::kClockPollPeriod);

  // cancelled_now() has no such lag: a fresh token past its deadline
  // reports cancellation on the first forced check.
  util::CancelToken expired =
      util::CancelToken::after(std::chrono::milliseconds(-1));
  EXPECT_TRUE(expired.cancelled_now());
}

TEST(SerialCancel, PreCancelledCheckIsInconclusive) {
  TtpcStarModel model(config(guardian::Authority::kPassive));
  util::CancelToken token;
  token.request_cancel();
  auto res = Checker(model).check(no_integrated_node_freezes(),
                                  /*max_states=*/50'000'000, &token);
  EXPECT_EQ(res.verdict, Verdict::kInconclusive);
  EXPECT_TRUE(res.stats.cancelled);
  EXPECT_FALSE(res.stats.exhausted);
  EXPECT_TRUE(res.trace.empty());
  // holds() is computed from the verdict, so a bail can no longer
  // masquerade as a pass (the old bool defaulted to true here).
  EXPECT_FALSE(res.holds());
}

TEST(SerialCancel, DeadlineInterruptsMidRunWithPartialStats) {
  // 4-node passive is ~110k states / hundreds of ms: a few-ms deadline
  // fires mid-search.
  TtpcStarModel model(config(guardian::Authority::kPassive));
  util::CancelToken token =
      util::CancelToken::after(std::chrono::milliseconds(2));
  auto res = Checker(model).check(no_integrated_node_freezes(),
                                  /*max_states=*/50'000'000, &token);
  EXPECT_EQ(res.verdict, Verdict::kInconclusive);
  EXPECT_TRUE(res.stats.cancelled);
  EXPECT_FALSE(res.stats.exhausted);
  EXPECT_GT(res.stats.states_explored, 0u);
  EXPECT_LT(res.stats.states_explored, 110'956u);
}

TEST(SerialCancel, BudgetBailIsInconclusiveNotHolds) {
  TtpcStarModel model(config(guardian::Authority::kPassive));
  auto res =
      Checker(model).check(no_integrated_node_freezes(), /*max_states=*/1'000);
  EXPECT_EQ(res.verdict, Verdict::kInconclusive);
  EXPECT_FALSE(res.stats.exhausted);
  EXPECT_FALSE(res.stats.cancelled);  // budget, not cancellation
  EXPECT_FALSE(res.holds());          // a bail is not a pass
}

TEST(SerialCancel, ExhaustiveVerdictsAreExplicit) {
  {
    TtpcStarModel model(config(guardian::Authority::kSmallShifting));
    auto res = Checker(model).check(no_integrated_node_freezes());
    EXPECT_EQ(res.verdict, Verdict::kHolds);
    EXPECT_TRUE(res.stats.exhausted);
  }
  {
    TtpcStarModel model(config(guardian::Authority::kFullShifting));
    auto res = Checker(model).check(no_integrated_node_freezes());
    EXPECT_EQ(res.verdict, Verdict::kViolated);
    EXPECT_FALSE(res.trace.empty());
  }
}

TEST(SerialCancel, LiveTokenThatNeverFiresChangesNothing) {
  TtpcStarModel model(config(guardian::Authority::kPassive));
  auto plain = Checker(model).check(no_integrated_node_freezes());
  util::CancelToken token;  // no deadline, never cancelled
  auto tracked = Checker(model).check(no_integrated_node_freezes(),
                                      /*max_states=*/50'000'000, &token);
  EXPECT_EQ(tracked.verdict, plain.verdict);
  EXPECT_EQ(tracked.stats.states_explored, plain.stats.states_explored);
  EXPECT_EQ(tracked.stats.transitions, plain.stats.transitions);
  EXPECT_EQ(tracked.stats.max_depth, plain.stats.max_depth);
  EXPECT_FALSE(tracked.stats.cancelled);
}

TEST(SerialCancel, RecoverabilityHonorsToken) {
  TtpcStarModel model(config(guardian::Authority::kSmallShifting));
  util::CancelToken token;
  token.request_cancel();
  auto res = Checker(model).check_recoverability(
      all_active(model), /*max_states=*/10'000'000, &token);
  EXPECT_EQ(res.verdict, Verdict::kInconclusive);
  EXPECT_TRUE(res.stats.cancelled);
  EXPECT_FALSE(res.stats.exhausted);
  // The bail-out must not leak a fabricated verdict or partial artifacts.
  EXPECT_FALSE(res.recoverable_everywhere);
  EXPECT_EQ(res.dead_states, 0u);
  EXPECT_TRUE(res.witness.empty());
}

TEST(SerialCancel, RecoverabilityBudgetBailStaysInconclusive) {
  TtpcStarModel model(config(guardian::Authority::kFullShifting));
  auto res = Checker(model).check_recoverability(all_active(model),
                                                 /*max_states=*/1'000);
  EXPECT_EQ(res.verdict, Verdict::kInconclusive);
  EXPECT_FALSE(res.stats.cancelled);  // budget, not cancellation
  EXPECT_FALSE(res.stats.exhausted);
}

TEST(SerialCancel, RecoverabilityCancelledMidRunIsInconclusive) {
  // The goal predicate runs once per discovered state of the forward pass;
  // tripping the token from inside it cancels a search that is well under
  // way, with part of the graph recorded and no closure computed yet.
  TtpcStarModel model(config(guardian::Authority::kFullShifting));
  util::CancelToken token;
  const auto all = all_active(model);
  std::uint64_t calls = 0;
  auto tripping_goal = [&](const WorldState& w) {
    if (++calls == 5'000) token.request_cancel();
    return all(w);
  };
  auto res = Checker(model).check_recoverability(
      tripping_goal, /*max_states=*/10'000'000, &token);
  EXPECT_GE(calls, 5'000u);
  EXPECT_EQ(res.verdict, Verdict::kInconclusive);
  EXPECT_TRUE(res.stats.cancelled);
  EXPECT_FALSE(res.stats.exhausted);
  EXPECT_FALSE(res.recoverable_everywhere);
  EXPECT_TRUE(res.witness.empty());
  EXPECT_EQ(res.dead_states, 0u);
  EXPECT_GT(res.stats.states_explored, 1u);
}

TEST(ParallelCancel, PreCancelledCheckIsInconclusive) {
  for (unsigned threads : {1u, 4u}) {
    TtpcStarModel model(config(guardian::Authority::kPassive));
    util::CancelToken token;
    token.request_cancel();
    Checker checker(model, Threads{threads});
    auto res = checker.check(no_integrated_node_freezes(),
                             /*max_states=*/50'000'000, &token);
    EXPECT_EQ(res.verdict, Verdict::kInconclusive) << threads;
    EXPECT_TRUE(res.stats.cancelled) << threads;
    EXPECT_FALSE(res.stats.exhausted) << threads;
    EXPECT_TRUE(res.trace.empty()) << threads;
  }
}

TEST(ParallelCancel, DeadlineInterruptsMidRunWithPartialStats) {
  TtpcStarModel model(config(guardian::Authority::kPassive));
  util::CancelToken token =
      util::CancelToken::after(std::chrono::milliseconds(2));
  Checker checker(model, Threads{4});
  auto res = checker.check(no_integrated_node_freezes(),
                           /*max_states=*/50'000'000, &token);
  EXPECT_EQ(res.verdict, Verdict::kInconclusive);
  EXPECT_TRUE(res.stats.cancelled);
  EXPECT_FALSE(res.stats.exhausted);
  EXPECT_LT(res.stats.states_explored, 110'956u);
}

TEST(ParallelCancel, VerdictsMatchOracleWhenUncancelled) {
  for (guardian::Authority a : {guardian::Authority::kSmallShifting,
                                guardian::Authority::kFullShifting}) {
    TtpcStarModel model(config(a));
    const auto oracle =
        naive::check<TtpcStarModel>(model, no_integrated_node_freezes());
    Checker checker(model, Threads{4});
    util::CancelToken token;  // never fires
    auto parallel = checker.check(no_integrated_node_freezes(),
                                  /*max_states=*/50'000'000, &token);
    EXPECT_EQ(parallel.verdict,
              oracle.found ? Verdict::kViolated : Verdict::kHolds)
        << guardian::to_string(a);
    EXPECT_EQ(parallel.stats.states_explored, oracle.states);
    EXPECT_EQ(parallel.stats.transitions, oracle.transitions);
  }
}

TEST(ParallelCancel, RecoverabilityHonorsToken) {
  TtpcStarModel model(config(guardian::Authority::kSmallShifting));
  util::CancelToken token;
  token.request_cancel();
  Checker checker(model, Threads{2});
  auto res = checker.check_recoverability(all_active(model),
                                          /*max_states=*/10'000'000, &token);
  EXPECT_EQ(res.verdict, Verdict::kInconclusive);
  EXPECT_TRUE(res.stats.cancelled);
  EXPECT_FALSE(res.recoverable_everywhere);
  EXPECT_TRUE(res.witness.empty());
}

}  // namespace
}  // namespace tta::mc
