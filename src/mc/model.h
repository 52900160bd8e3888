// The synchronous formal model of Section 4: nodes + two star couplers,
// one transition per TDMA slot.
//
// This is the C++ rendering of the paper's SMV model. The node transition
// relation is the shared ttpc::Controller (identical to the simulator's);
// the coupler transfer function is the shared guardian::AbstractCoupler.
// What this class adds is the *composition*: enumerating every combination
// of nondeterministic node choices and coupler fault assignments, subject to
// the paper's constraints:
//   * at most one coupler is faulty at a given time (TTP/C fault hypothesis,
//     "couplerA.fault = none | couplerB.fault = none");
//   * the out_of_slot fault exists only for full-shifting couplers;
//   * optional: at most `max_out_of_slot_errors` replays in a run (the paper
//     adds this to get the minimal single-fault trace);
//   * optional: prohibit replaying cold-start frames (the paper adds this to
//     obtain the duplicated C-state trace).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "guardian/authority.h"
#include "guardian/coupler.h"
#include "ttpc/controller.h"
#include "util/bitpack.h"

namespace tta::mc {

/// Upper bound on cluster size supported by the packed encoding.
inline constexpr std::size_t kMaxNodes = 6;

/// Upper bound on a node's nondeterministic choices per step (the choice
/// code spends 2 bits per node).
inline constexpr unsigned kMaxChoices = 4;

struct ModelConfig {
  ttpc::ProtocolConfig protocol;  ///< defaults: 4 nodes, restricted choices
  guardian::Authority authority = guardian::Authority::kFullShifting;

  /// Star couplers in the composition (1 or 2). The paper's cluster is the
  /// dual-coupler star; the single-coupler point removes channel 1 entirely
  /// (permanent silence, no coupler-1 faults, no coupler-1 state), which
  /// both shrinks the packed state and drops channel redundancy — the
  /// degraded axis the campaign subsystem sweeps.
  unsigned num_couplers = 2;

  /// Budget of out_of_slot replays across a run (paper Section 5.2 limits
  /// this to 1 for the narrated trace). Saturates at 7.
  unsigned max_out_of_slot_errors = 7;

  /// Which buffered frames an out_of_slot fault may replay. Clearing
  /// allow_coldstart_duplication reproduces the paper's second trace.
  bool allow_coldstart_duplication = true;
  bool allow_cstate_duplication = true;

  /// Enable/disable the transient silence / bad-frame fault modes.
  bool allow_silence_fault = true;
  bool allow_bad_frame_fault = true;
};

/// Full system state: every node's protocol variables plus both couplers'
/// frame buffers and the consumed out-of-slot budget.
struct WorldState {
  std::array<ttpc::NodeState, kMaxNodes> nodes{};
  std::array<guardian::CouplerState, 2> couplers{};
  std::uint8_t oos_errors_used = 0;

  friend bool operator==(const WorldState&, const WorldState&) = default;
};

/// Everything needed to narrate one transition of a counterexample.
struct TransitionLabel {
  guardian::CouplerFault fault0 = guardian::CouplerFault::kNone;
  guardian::CouplerFault fault1 = guardian::CouplerFault::kNone;
  ttpc::ChannelFrame ch0;  ///< what channel 0 carried during the slot
  ttpc::ChannelFrame ch1;
  std::array<ttpc::ChannelFrame, kMaxNodes> sent{};
  std::array<ttpc::StepEvent, kMaxNodes> events{};
};

/// One enumerated successor; `choice_code` replays the exact transition
/// and `key` is the successor's packed visited-table key, always equal to
/// pack(next). The model builds it alongside `next`, so the checker never
/// packs a successor itself.
template <class State>
struct SuccessorT {
  State next;
  std::uint32_t choice_code = 0;
  util::PackedState key;
};

using Successor = SuccessorT<WorldState>;

class TtpcStarModel {
 public:
  using State = WorldState;

  explicit TtpcStarModel(const ModelConfig& config);

  const ModelConfig& config() const { return config_; }
  std::size_t num_nodes() const { return config_.protocol.num_nodes; }

  /// "Initially, all the nodes are in the freeze state."
  WorldState initial() const { return WorldState{}; }

  /// All successors of `s` under every legal choice combination, each with
  /// its packed key, written into `out` (cleared first; the caller keeps
  /// the buffer so its capacity is reused from state to state).
  void successors(const WorldState& s, std::vector<Successor>& out) const;

  /// Returning form of successors(), for callers off the BFS hot path
  /// (tests, benches, the persistent cache's trace replay).
  std::vector<Successor> successors(const WorldState& s) const;

  /// Deterministically replays one transition (used for counterexample
  /// reconstruction). `choice_code` must satisfy legal_choice(s, ...).
  std::pair<WorldState, TransitionLabel> apply(const WorldState& s,
                                               std::uint32_t choice_code) const;

  /// Whether successors(s) would generate `choice_code`: an existing fault
  /// pair that is admissible in `s`, a choice below each node's count, and
  /// no bits beyond the last node. Lets a checkpoint restore vet a stored
  /// code before replaying it.
  bool legal_choice(const WorldState& s, std::uint32_t choice_code) const;

  /// The reference encoding: fields written one after another through a
  /// util::BitWriter, node i's 25 bits at offset 25 * i, then each
  /// coupler's 8 bits, then the 3-bit out-of-slot budget. successors()
  /// builds the same bits at those fixed offsets; pack() stays the simple
  /// reference that trace replay and the test oracles use.
  util::PackedState pack(const WorldState& s) const;
  WorldState unpack(const util::PackedState& p) const;

  /// Number of significant low bits pack() writes (every higher bit of the
  /// PackedState is zero). Lets the compact visited-table backend quotient
  /// keys down to the model's true width — 119 bits for the paper's 4-node
  /// cluster instead of the container's 256.
  unsigned packed_bits() const;

 private:
  struct FaultPair {
    guardian::CouplerFault f0 = guardian::CouplerFault::kNone;
    guardian::CouplerFault f1 = guardian::CouplerFault::kNone;
  };

  /// Coupler transfer of the merged transmissions under `pair`: updates
  /// the frame buffers and the replay budget in `next`, and returns what
  /// the two channels carried. Shared by apply() and successors().
  ttpc::ChannelView transfer(const ttpc::ChannelFrame& merged,
                             const FaultPair& pair, WorldState& next) const;

  /// Whether an out_of_slot replay is admissible for `coupler` in state `s`
  /// (budget, authority, buffered-frame content constraints).
  bool replay_allowed(const WorldState& s,
                      const guardian::CouplerState& coupler) const;

  ModelConfig config_;
  ttpc::Controller controller_;
  guardian::AbstractCoupler coupler_;
  std::vector<FaultPair> fault_pairs_;  ///< static part of the fault lattice
};

}  // namespace tta::mc
