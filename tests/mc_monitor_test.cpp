// The history-augmented model: reproduces the paper's exact trace-1 causal
// shape (victim integrates ON the replayed frame, then freezes).
#include "mc/monitor.h"

#include <gtest/gtest.h>

#include "mc/trace_printer.h"
#include "util/rng.h"

namespace tta::mc {
namespace {

ModelConfig paper_trace1_config() {
  ModelConfig cfg;
  cfg.authority = guardian::Authority::kFullShifting;
  cfg.max_out_of_slot_errors = 1;
  return cfg;
}

TEST(MonitoredModel, PackUnpackRoundTripsMonitorBits) {
  MonitoredModel model(paper_trace1_config());
  MonitoredState s = model.initial();
  s.base.nodes[1].state = ttpc::CtrlState::kPassive;
  s.base.nodes[1].slot = 2;
  s.integrated_on_replay = 0b0010;
  EXPECT_EQ(model.unpack(model.pack(s)), s);
  s.integrated_on_replay = 0b1111;
  EXPECT_EQ(model.unpack(model.pack(s)), s);
}

TEST(MonitoredModel, MonitorBitsDistinguishStates) {
  MonitoredModel model(paper_trace1_config());
  MonitoredState a = model.initial();
  MonitoredState b = a;
  b.integrated_on_replay = 1;
  EXPECT_NE(model.pack(a), model.pack(b));
}

TEST(MonitoredModel, SuccessorsMirrorInnerModel) {
  MonitoredModel model(paper_trace1_config());
  TtpcStarModel inner(paper_trace1_config());
  auto mon_succs = model.successors(model.initial());
  auto inner_succs = inner.successors(inner.initial());
  ASSERT_EQ(mon_succs.size(), inner_succs.size());
  for (std::size_t i = 0; i < mon_succs.size(); ++i) {
    EXPECT_EQ(mon_succs[i].next.base, inner_succs[i].next);
    EXPECT_EQ(mon_succs[i].choice_code, inner_succs[i].choice_code);
  }
}

TEST(MonitoredModel, SuccessorKeysArePack) {
  // The engine inserts succ.key without packing; for the monitored model
  // it must be the monitored pack(), monitor bits included.
  MonitoredModel model(paper_trace1_config());
  util::Rng rng(17);
  bool saw_monitor_bit = false;
  for (int walk = 0; walk < 8; ++walk) {
    MonitoredState s = model.initial();
    for (int step = 0; step < 40; ++step) {
      const auto succs = model.successors(s);
      ASSERT_FALSE(succs.empty());
      for (const MonitoredSuccessor& succ : succs) {
        ASSERT_EQ(succ.key, model.pack(succ.next));
        saw_monitor_bit |= succ.next.integrated_on_replay != 0;
      }
      s = succs[rng.next_below(succs.size())].next;
    }
  }
  EXPECT_TRUE(saw_monitor_bit);
}

TEST(MonitoredModel, PaperTraceOneShapeIsReachable) {
  // "Node B integrates on [the replayed cold start frame] ... Node B
  // freezes due to a clique avoidance error." — a violation where the
  // frozen node's integration came from the replay.
  MonitoredModel model(paper_trace1_config());
  Checker checker(model);
  auto res = checker.check(replay_victim_freezes());
  ASSERT_FALSE(res.holds());
  ASSERT_FALSE(res.trace.empty());

  // The victim both integrated via a replayed frame and froze.
  const auto& last = res.trace.back();
  int victim = -1;
  for (std::size_t i = 0; i < model.num_nodes(); ++i) {
    if (((last.before.integrated_on_replay >> i) & 1u) &&
        last.after.base.nodes[i].state == ttpc::CtrlState::kFreeze) {
      victim = static_cast<int>(i);
    }
  }
  ASSERT_GE(victim, 0);

  // Somewhere in the trace that victim integrated during a replay step.
  bool integrated_on_replay_step = false;
  for (const auto& step : res.trace) {
    bool replay = step.label.fault0 == guardian::CouplerFault::kOutOfSlot ||
                  step.label.fault1 == guardian::CouplerFault::kOutOfSlot;
    auto ev = step.label.events[static_cast<std::size_t>(victim)];
    if (replay && (ev == ttpc::StepEvent::kIntegratedOnColdStart ||
                   ev == ttpc::StepEvent::kIntegratedOnCState)) {
      integrated_on_replay_step = true;
    }
  }
  EXPECT_TRUE(integrated_on_replay_step);
}

TEST(MonitoredModel, ReplayVictimTraceIsLongerThanPlainShortest) {
  // The plain property's shortest violation (observer freezes) is shorter
  // than the specific integrated-on-replay shape the paper narrates.
  TtpcStarModel plain(paper_trace1_config());
  auto plain_res = Checker(plain).check(no_integrated_node_freezes());
  MonitoredModel monitored(paper_trace1_config());
  auto mon_res = Checker(monitored).check(replay_victim_freezes());
  ASSERT_FALSE(plain_res.holds());
  ASSERT_FALSE(mon_res.holds());
  EXPECT_GE(mon_res.trace.size(), plain_res.trace.size());
}

TEST(MonitoredModel, NoReplayVictimsWithoutBufferingAuthority) {
  ModelConfig cfg;
  cfg.authority = guardian::Authority::kSmallShifting;
  MonitoredModel model(cfg);
  auto res = Checker(model).check(replay_victim_freezes());
  EXPECT_TRUE(res.holds());
  EXPECT_TRUE(res.stats.exhausted);
}

TEST(MonitoredModel, StripMonitorPreservesLabelsForNarration) {
  MonitoredModel model(paper_trace1_config());
  auto res = Checker(model).check(replay_victim_freezes());
  ASSERT_FALSE(res.holds());
  std::vector<TraceStep> base_trace = strip_monitor(res.trace);
  ASSERT_EQ(base_trace.size(), res.trace.size());
  TracePrinter printer(model.inner());
  std::string story = printer.narrate(base_trace);
  EXPECT_NE(story.find("replays the buffered"), std::string::npos);
  EXPECT_NE(story.find("integrated on"), std::string::npos);
  EXPECT_NE(story.find("FROZE"), std::string::npos);
}

TEST(MonitoredModel, CStateVariantAlsoHasReplayVictims) {
  ModelConfig cfg = paper_trace1_config();
  cfg.allow_coldstart_duplication = false;
  MonitoredModel model(cfg);
  auto res = Checker(model).check(replay_victim_freezes());
  EXPECT_FALSE(res.holds());
}

}  // namespace
}  // namespace tta::mc
