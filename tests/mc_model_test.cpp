#include "mc/model.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "ttpc/controller.h"
#include "util/rng.h"

namespace tta::mc {
namespace {

ModelConfig full_shifting(unsigned max_oos = 7) {
  ModelConfig cfg;
  cfg.authority = guardian::Authority::kFullShifting;
  cfg.max_out_of_slot_errors = max_oos;
  return cfg;
}

ModelConfig passive() {
  ModelConfig cfg;
  cfg.authority = guardian::Authority::kPassive;
  return cfg;
}

TEST(Model, InitialStateIsAllFrozen) {
  TtpcStarModel model(passive());
  WorldState init = model.initial();
  for (std::size_t i = 0; i < model.num_nodes(); ++i) {
    EXPECT_EQ(init.nodes[i].state, ttpc::CtrlState::kFreeze);
  }
  EXPECT_EQ(init.couplers[0].buffered_frame, ttpc::FrameKind::kNone);
  EXPECT_EQ(init.oos_errors_used, 0);
}

TEST(Model, PackUnpackRoundTripsRandomStates) {
  TtpcStarModel model(full_shifting());
  util::Rng rng(31);
  for (int iter = 0; iter < 500; ++iter) {
    WorldState s;
    for (std::size_t i = 0; i < model.num_nodes(); ++i) {
      s.nodes[i].state = static_cast<ttpc::CtrlState>(rng.next_below(9));
      s.nodes[i].slot = static_cast<ttpc::SlotNumber>(rng.next_in(1, 4));
      s.nodes[i].agreed = static_cast<std::uint8_t>(rng.next_below(16));
      s.nodes[i].failed = static_cast<std::uint8_t>(rng.next_below(16));
      s.nodes[i].big_bang = rng.next_bool(0.5);
      s.nodes[i].listen_timeout = static_cast<std::uint8_t>(rng.next_below(9));
    }
    for (auto& c : s.couplers) {
      c.buffered_frame = static_cast<ttpc::FrameKind>(rng.next_below(5));
      c.buffered_id = static_cast<ttpc::SlotNumber>(rng.next_below(5));
    }
    s.oos_errors_used = static_cast<std::uint8_t>(rng.next_below(8));
    EXPECT_EQ(model.unpack(model.pack(s)), s);
  }
}

TEST(Model, DistinctStatesPackDistinctly) {
  TtpcStarModel model(passive());
  WorldState a = model.initial();
  WorldState b = a;
  b.nodes[2].big_bang = true;
  EXPECT_NE(model.pack(a), model.pack(b));
  WorldState c = a;
  c.couplers[1].buffered_id = 3;
  EXPECT_NE(model.pack(a), model.pack(c));
}

TEST(Model, InitialSuccessorsCoverFreezeChoices) {
  // 4 nodes x {stay, init} = 16 node-choice combinations; only the no-fault
  // and silence/bad single-fault pairs apply (no frames buffered yet).
  TtpcStarModel model(passive());
  auto succs = model.successors(model.initial());
  // fault pairs: nn, s-, -s, b-, -b = 5; choices: 2^4 = 16.
  EXPECT_EQ(succs.size(), 5u * 16u);
}

TEST(Model, FaultAlphabetRespectsConfigFlags) {
  ModelConfig cfg = passive();
  cfg.allow_silence_fault = false;
  cfg.allow_bad_frame_fault = false;
  TtpcStarModel model(cfg);
  auto succs = model.successors(model.initial());
  EXPECT_EQ(succs.size(), 16u);  // only the fault-free pair remains
}

TEST(Model, ApplyReplaysSuccessorExactly) {
  TtpcStarModel model(full_shifting());
  WorldState s = model.initial();
  for (int depth = 0; depth < 6; ++depth) {
    auto succs = model.successors(s);
    ASSERT_FALSE(succs.empty());
    const Successor& pick = succs[succs.size() / 2];
    auto [replayed, label] = model.apply(s, pick.choice_code);
    EXPECT_EQ(replayed, pick.next);
    s = pick.next;
  }
}

TEST(Model, ReplayRequiresBufferedFrame) {
  // out_of_slot on an empty buffer is pruned (it would be plain silence).
  TtpcStarModel model(full_shifting());
  for (const Successor& succ : model.successors(model.initial())) {
    auto [next, label] = model.apply(model.initial(), succ.choice_code);
    EXPECT_EQ(label.fault0 == guardian::CouplerFault::kOutOfSlot, false);
    EXPECT_EQ(label.fault1 == guardian::CouplerFault::kOutOfSlot, false);
  }
}

WorldState state_with_buffered_coldstart(const TtpcStarModel& model) {
  WorldState s = model.initial();
  s.couplers[0].buffered_frame = ttpc::FrameKind::kColdStart;
  s.couplers[0].buffered_id = 1;
  s.couplers[1].buffered_frame = ttpc::FrameKind::kColdStart;
  s.couplers[1].buffered_id = 1;
  return s;
}

TEST(Model, ReplayAvailableOnceBufferHoldsAFrame) {
  TtpcStarModel model(full_shifting());
  WorldState s = state_with_buffered_coldstart(model);
  bool saw_replay = false;
  for (const Successor& succ : model.successors(s)) {
    auto [next, label] = model.apply(s, succ.choice_code);
    if (label.fault0 == guardian::CouplerFault::kOutOfSlot) {
      saw_replay = true;
      EXPECT_EQ(label.ch0,
                (ttpc::ChannelFrame{ttpc::FrameKind::kColdStart, 1}));
      EXPECT_EQ(next.oos_errors_used, 1);
    }
  }
  EXPECT_TRUE(saw_replay);
}

TEST(Model, OutOfSlotBudgetIsEnforced) {
  TtpcStarModel model(full_shifting(/*max_oos=*/1));
  WorldState s = state_with_buffered_coldstart(model);
  s.oos_errors_used = 1;  // budget spent
  for (const Successor& succ : model.successors(s)) {
    auto [next, label] = model.apply(s, succ.choice_code);
    EXPECT_NE(label.fault0, guardian::CouplerFault::kOutOfSlot);
    EXPECT_NE(label.fault1, guardian::CouplerFault::kOutOfSlot);
  }
}

TEST(Model, ColdStartDuplicationConstraintPrunesReplay) {
  ModelConfig cfg = full_shifting();
  cfg.allow_coldstart_duplication = false;
  TtpcStarModel model(cfg);
  WorldState s = state_with_buffered_coldstart(model);
  for (const Successor& succ : model.successors(s)) {
    auto [next, label] = model.apply(s, succ.choice_code);
    EXPECT_NE(label.fault0, guardian::CouplerFault::kOutOfSlot);
    EXPECT_NE(label.fault1, guardian::CouplerFault::kOutOfSlot);
  }
}

TEST(Model, CStateDuplicationConstraintIsIndependent) {
  ModelConfig cfg = full_shifting();
  cfg.allow_coldstart_duplication = false;  // but C-state replay still legal
  TtpcStarModel model(cfg);
  WorldState s = model.initial();
  s.couplers[0].buffered_frame = ttpc::FrameKind::kCState;
  s.couplers[0].buffered_id = 2;
  bool saw_replay = false;
  for (const Successor& succ : model.successors(s)) {
    auto [next, label] = model.apply(s, succ.choice_code);
    if (label.fault0 == guardian::CouplerFault::kOutOfSlot) saw_replay = true;
  }
  EXPECT_TRUE(saw_replay);
}

TEST(Model, NonBufferingAuthoritiesNeverReplay) {
  for (guardian::Authority a :
       {guardian::Authority::kPassive, guardian::Authority::kTimeWindows,
        guardian::Authority::kSmallShifting}) {
    ModelConfig cfg;
    cfg.authority = a;
    TtpcStarModel model(cfg);
    WorldState s = state_with_buffered_coldstart(model);
    for (const Successor& succ : model.successors(s)) {
      auto [next, label] = model.apply(s, succ.choice_code);
      EXPECT_NE(label.fault0, guardian::CouplerFault::kOutOfSlot);
      EXPECT_NE(label.fault1, guardian::CouplerFault::kOutOfSlot);
    }
  }
}

TEST(Model, AtMostOneCouplerFaultyPerStep) {
  // "couplerA.fault = none | couplerB.fault = none"
  TtpcStarModel model(full_shifting());
  WorldState s = state_with_buffered_coldstart(model);
  for (const Successor& succ : model.successors(s)) {
    auto [next, label] = model.apply(s, succ.choice_code);
    EXPECT_TRUE(label.fault0 == guardian::CouplerFault::kNone ||
                label.fault1 == guardian::CouplerFault::kNone);
  }
}

TEST(Model, SuccessorStatesAreDeduplicatableByPacking) {
  // Different choice codes may lead to identical states (e.g. silence fault
  // on a quiet channel); packing must make them collide for the BFS.
  TtpcStarModel model(passive());
  WorldState s = model.initial();
  auto succs = model.successors(s);
  std::size_t distinct = 0;
  std::vector<util::PackedState> seen;
  for (const auto& succ : succs) {
    util::PackedState p = model.pack(succ.next);
    bool found = false;
    for (const auto& q : seen) found |= (q == p);
    if (!found) {
      seen.push_back(p);
      ++distinct;
    }
  }
  // With a silent channel, all 5 fault pairs yield the same channel view,
  // so only the node-choice combinations remain distinct.
  EXPECT_EQ(distinct, 16u);
}

TEST(Model, SingleCouplerHasNoChannelOneFaults) {
  // The single-coupler composition removes channel 1 entirely: no fault
  // pairs target it and its view is permanent silence.
  ModelConfig cfg = full_shifting();
  cfg.num_couplers = 1;
  TtpcStarModel model(cfg);
  for (const Successor& succ : model.successors(model.initial())) {
    auto [next, label] = model.apply(model.initial(), succ.choice_code);
    EXPECT_EQ(label.fault1, guardian::CouplerFault::kNone);
    EXPECT_EQ(label.ch1.kind, ttpc::FrameKind::kNone);
    EXPECT_EQ(next.couplers[1].buffered_frame, ttpc::FrameKind::kNone);
  }
}

TEST(Model, SingleCouplerHalvesTheFaultAlphabet) {
  // Dual star: each single fault appears as (f, none) and (none, f).
  // Single star: only (f, none) survives, so the initial state has half
  // the faulty branches.
  ModelConfig dual = passive();
  ModelConfig single = passive();
  single.num_couplers = 1;
  const auto dual_succs = TtpcStarModel(dual).successors(
      TtpcStarModel(dual).initial());
  const auto single_succs = TtpcStarModel(single).successors(
      TtpcStarModel(single).initial());
  EXPECT_LT(single_succs.size(), dual_succs.size());
}

TEST(Model, SingleCouplerShrinksThePackedState) {
  ModelConfig dual = full_shifting();
  ModelConfig single = full_shifting();
  single.num_couplers = 1;
  TtpcStarModel dual_model(dual);
  TtpcStarModel single_model(single);
  EXPECT_LT(single_model.packed_bits(), dual_model.packed_bits());

  // Round-trip still holds at the narrower width.
  WorldState s = single_model.initial();
  s.nodes[0].state = ttpc::CtrlState::kActive;
  s.couplers[0].buffered_frame = ttpc::FrameKind::kCState;
  s.couplers[0].buffered_id = 3;
  EXPECT_EQ(single_model.unpack(single_model.pack(s)), s);
}

TEST(Model, SuccessorsAgreeWithApplyOverRandomWalks) {
  // successors() assembles its states from hoisted per-fault-pair and
  // per-(node, choice) work; apply() replays one code from scratch. Every
  // successor must be exactly apply()'s state for its code, and the codes
  // must keep their historical order: fault pair outermost, then an
  // odometer over the nodes' choices with node 0 changing fastest. Every
  // key must be pack(next); at 6 nodes (169 bits) node codes straddle the
  // word boundaries at bit 64 (node 2) and bit 128 (node 5).
  util::Rng rng(2004);
  for (guardian::Authority authority : guardian::kAllAuthorities) {
    for (unsigned couplers : {1u, 2u}) {
      for (std::uint8_t nodes : {3, 4, 5, 6}) {
        for (unsigned max_oos : {1u, 7u}) {
          ModelConfig cfg;
          cfg.authority = authority;
          cfg.num_couplers = couplers;
          cfg.protocol.num_nodes = nodes;
          cfg.protocol.num_slots = nodes;
          cfg.max_out_of_slot_errors = max_oos;
          TtpcStarModel model(cfg);
          ttpc::Controller controller(cfg.protocol);
          const std::string where =
              std::string(guardian::to_string(authority)) + " couplers=" +
              std::to_string(couplers) + " nodes=" + std::to_string(nodes) +
              " max_oos=" + std::to_string(max_oos);

          for (int walk = 0; walk < 4; ++walk) {
            WorldState s = model.initial();
            for (int step = 0; step < 40; ++step) {
              const std::vector<Successor> succs = model.successors(s);
              ASSERT_FALSE(succs.empty()) << where;

              std::vector<std::uint32_t> expected;
              for (const Successor& succ : succs) {
                const std::uint32_t fp = succ.choice_code & 0x7;
                if (!expected.empty() && (expected.back() & 0x7) == fp) {
                  continue;  // this fault pair's codes are already listed
                }
                ASSERT_TRUE(expected.empty() || (expected.back() & 0x7) < fp)
                    << where;
                std::array<unsigned, kMaxNodes> odo{};
                while (true) {
                  std::uint32_t code = fp;
                  for (std::size_t i = 0; i < nodes; ++i) {
                    code |= static_cast<std::uint32_t>(odo[i]) << (3 + 2 * i);
                  }
                  expected.push_back(code);
                  std::size_t i = 0;
                  for (; i < nodes; ++i) {
                    if (++odo[i] < controller.num_choices(s.nodes[i])) break;
                    odo[i] = 0;
                  }
                  if (i == nodes) break;
                }
              }
              ASSERT_EQ(succs.size(), expected.size()) << where;
              for (std::size_t k = 0; k < succs.size(); ++k) {
                ASSERT_EQ(succs[k].choice_code, expected[k]) << where;
                ASSERT_EQ(succs[k].next,
                          model.apply(s, succs[k].choice_code).first)
                    << where << " k=" << k;
                ASSERT_EQ(succs[k].key, model.pack(succs[k].next))
                    << where << " k=" << k;
              }
              s = succs[rng.next_below(succs.size())].next;
            }
          }
        }
      }
    }
  }
}

TEST(Model, LegalChoiceIsExactlyTheGeneratedCodes) {
  // A checkpoint restore vets stored codes with legal_choice() before
  // replaying them, so it must accept every code successors() generates
  // and nothing else: no missing or inadmissible fault pair, no choice at
  // or past a node's count, no bits past the last node.
  util::Rng rng(17);
  for (guardian::Authority authority : guardian::kAllAuthorities) {
    for (unsigned couplers : {1u, 2u}) {
      ModelConfig cfg;
      cfg.authority = authority;
      cfg.num_couplers = couplers;
      cfg.max_out_of_slot_errors = 1;
      TtpcStarModel model(cfg);
      const std::uint32_t codes = 1u << (3 + 2 * model.num_nodes() + 1);
      WorldState s = model.initial();
      for (int step = 0; step < 40; ++step) {
        const std::vector<Successor> succs = model.successors(s);
        std::vector<bool> generated(codes, false);
        for (const Successor& succ : succs) generated[succ.choice_code] = true;
        for (std::uint32_t code = 0; code < codes; ++code) {
          ASSERT_EQ(model.legal_choice(s, code), generated[code])
              << guardian::to_string(authority) << " couplers=" << couplers
              << " step=" << step << " code=" << code;
        }
        s = succs[rng.next_below(succs.size())].next;
      }
    }
  }
}

}  // namespace
}  // namespace tta::mc
