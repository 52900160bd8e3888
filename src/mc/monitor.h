// History-augmented model: tracks *how* each node integrated.
//
// BFS returns the shortest counterexample, which for the full-shifting
// coupler is a node freezing after merely *observing* a replayed frame. The
// paper's narrated trace 1 is a specific deeper violation: the victim
// integrates *on* the replayed cold-start frame and is expelled later. To
// reproduce that exact causal shape we run the same model in product with a
// monitor automaton: one extra bit per node recording "this node's current
// integration was adopted from a coupler-replayed frame". The property
// replay_victim_freezes() then quantifies only over those victims.
//
// This is the standard safety-monitor construction (state space grows by at
// most 2^nodes), built on the unmodified TtpcStarModel semantics.
#pragma once

#include <cstdint>
#include <vector>

#include "mc/checker.h"
#include "mc/model.h"

namespace tta::mc {

struct MonitoredState {
  WorldState base;
  /// Bit i set: node i+1 is integrated and adopted its C-state from a frame
  /// that a coupler replayed out of slot.
  std::uint8_t integrated_on_replay = 0;

  friend bool operator==(const MonitoredState&,
                         const MonitoredState&) = default;
};

using MonitoredSuccessor = SuccessorT<MonitoredState>;

class MonitoredModel {
 public:
  using State = MonitoredState;

  explicit MonitoredModel(const ModelConfig& config) : inner_(config) {}

  const TtpcStarModel& inner() const { return inner_; }
  std::size_t num_nodes() const { return inner_.num_nodes(); }

  State initial() const { return MonitoredState{inner_.initial(), 0}; }

  /// The inner model's successors, each advanced through the monitor and
  /// keyed with this model's own pack().
  void successors(const State& s, std::vector<MonitoredSuccessor>& out) const {
    out.clear();
    for (const Successor& succ : inner_.successors(s.base)) {
      const State next = advance(s, succ.choice_code).first;
      out.push_back(MonitoredSuccessor{next, succ.choice_code, pack(next)});
    }
  }

  std::vector<MonitoredSuccessor> successors(const State& s) const {
    std::vector<MonitoredSuccessor> out;
    successors(s, out);
    return out;
  }

  std::pair<State, TransitionLabel> apply(const State& s,
                                          std::uint32_t choice_code) const {
    return advance(s, choice_code);
  }

  bool legal_choice(const State& s, std::uint32_t choice_code) const {
    return inner_.legal_choice(s.base, choice_code);
  }

  util::PackedState pack(const State& s) const {
    util::PackedState p = inner_.pack(s.base);
    // The inner encoding never reaches the last word; stash the monitor
    // bits there (verified by the round-trip unit tests).
    p.words[util::kPackedWords - 1] |=
        static_cast<std::uint64_t>(s.integrated_on_replay) << 56;
    return p;
  }

  State unpack(const util::PackedState& p) const {
    util::PackedState base_packed = p;
    base_packed.words[util::kPackedWords - 1] &= ~(0xFFull << 56);
    MonitoredState s;
    s.base = inner_.unpack(base_packed);
    s.integrated_on_replay =
        static_cast<std::uint8_t>(p.words[util::kPackedWords - 1] >> 56);
    return s;
  }

 private:
  std::pair<State, TransitionLabel> advance(const State& s,
                                            std::uint32_t choice_code) const {
    auto [base_next, label] = inner_.apply(s.base, choice_code);
    MonitoredState next;
    next.base = base_next;
    next.integrated_on_replay = s.integrated_on_replay;
    for (std::size_t i = 0; i < num_nodes(); ++i) {
      const std::uint8_t bit = static_cast<std::uint8_t>(1u << i);
      switch (label.events[i]) {
        case ttpc::StepEvent::kIntegratedOnColdStart:
        case ttpc::StepEvent::kIntegratedOnCState: {
          bool via_replay = integration_channel_was_replayed(label, i);
          next.integrated_on_replay = static_cast<std::uint8_t>(
              via_replay ? next.integrated_on_replay | bit
                         : next.integrated_on_replay & ~bit);
          break;
        }
        default:
          // Leaving the integrated world clears the history bit (the freeze
          // transition itself is the property's concern and is evaluated on
          // the *before* state).
          if (!ttpc::is_integrated(base_next.nodes[i].state) &&
              base_next.nodes[i].state != ttpc::CtrlState::kColdStart) {
            next.integrated_on_replay =
                static_cast<std::uint8_t>(next.integrated_on_replay & ~bit);
          }
          break;
      }
    }
    return {next, label};
  }

  /// Mirrors the controller's integration preference (explicit C-state
  /// before cold-start, channel 0 before channel 1) to decide which channel
  /// the node adopted, then checks whether that channel carried a replay.
  static bool integration_channel_was_replayed(const TransitionLabel& label,
                                               std::size_t node_index) {
    ttpc::FrameKind wanted =
        label.events[node_index] == ttpc::StepEvent::kIntegratedOnCState
            ? ttpc::FrameKind::kCState
            : ttpc::FrameKind::kColdStart;
    if (label.ch0.kind == wanted) {
      return label.fault0 == guardian::CouplerFault::kOutOfSlot;
    }
    return label.fault1 == guardian::CouplerFault::kOutOfSlot;
  }

  TtpcStarModel inner_;
};

/// Paper trace 1's exact causal shape: a node whose current integration was
/// adopted from a replayed frame is forced into freeze.
std::function<bool(const MonitoredState&, const MonitoredState&)>
replay_victim_freezes();

/// Converts a monitored trace to base-model steps for TracePrinter.
std::vector<TraceStep> strip_monitor(
    const std::vector<TraceStepT<MonitoredState>>& trace);

}  // namespace tta::mc
