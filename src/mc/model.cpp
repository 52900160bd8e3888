#include "mc/model.h"

#include "util/check.h"

namespace tta::mc {

namespace {

// Packed field widths (must cover the value ranges asserted in pack()).
constexpr unsigned kStateBits = 4;
constexpr unsigned kSlotBits = 5;
constexpr unsigned kCounterBits = 4;
constexpr unsigned kTimeoutBits = 6;
constexpr unsigned kKindBits = 3;
constexpr unsigned kOosBits = 3;
constexpr unsigned kNodeBits = kStateBits + kSlotBits + 2 * kCounterBits + 1 +
                               kTimeoutBits + 1;
static_assert(kNodeBits == 25);

/// pack()'s fields of one node, in order.
void write_node(util::BitWriter& w, const ttpc::NodeState& ns) {
  w.write(static_cast<std::uint64_t>(ns.state), kStateBits);
  w.write(ns.slot, kSlotBits);
  w.write(ns.agreed, kCounterBits);
  w.write(ns.failed, kCounterBits);
  w.write_bool(ns.big_bang);
  w.write(ns.listen_timeout, kTimeoutBits);
  w.write_bool(ns.ever_integrated);
}

/// pack()'s fields after the nodes: the couplers, then the oos budget.
void write_tail(util::BitWriter& w, const WorldState& s, unsigned couplers) {
  for (std::size_t c = 0; c < couplers; ++c) {
    w.write(static_cast<std::uint64_t>(s.couplers[c].buffered_frame),
            kKindBits);
    w.write(s.couplers[c].buffered_id, kSlotBits);
  }
  w.write(s.oos_errors_used, kOosBits);
}

/// One node's pack() code moved to node i's fixed offset: `lo` belongs in
/// key word `word`, `hi` (non-zero only when the code straddles a word
/// boundary) in the word after it, which always exists.
struct PlacedCode {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  unsigned word = 0;
};
static_assert(kMaxNodes * kNodeBits <= 64 * (util::kPackedWords - 1));

PlacedCode place_node(std::size_t i, const ttpc::NodeState& ns) {
  util::PackedState code;
  util::BitWriter w(code);
  write_node(w, ns);
  const unsigned offset = static_cast<unsigned>(i) * kNodeBits;
  const unsigned shift = offset % 64;
  PlacedCode placed;
  placed.word = offset / 64;
  placed.lo = code.words[0] << shift;
  placed.hi = shift + kNodeBits > 64 ? code.words[0] >> (64 - shift) : 0;
  return placed;
}

}  // namespace

TtpcStarModel::TtpcStarModel(const ModelConfig& config)
    : config_(config),
      controller_(config.protocol),
      coupler_(config.authority) {
  TTA_CHECK(config_.protocol.num_nodes <= kMaxNodes);
  TTA_CHECK(config_.num_couplers >= 1 && config_.num_couplers <= 2);

  // Build the static fault lattice: every (f0, f1) pair with at most one
  // coupler faulty and each fault possible for this authority level. The
  // state-dependent admissibility of out_of_slot is checked at apply time.
  std::vector<guardian::CouplerFault> singles{guardian::CouplerFault::kNone};
  if (config_.allow_silence_fault) {
    singles.push_back(guardian::CouplerFault::kSilence);
  }
  if (config_.allow_bad_frame_fault) {
    singles.push_back(guardian::CouplerFault::kBadFrame);
  }
  if (guardian::can_buffer_frames(config_.authority) &&
      config_.max_out_of_slot_errors > 0) {
    singles.push_back(guardian::CouplerFault::kOutOfSlot);
  }
  for (guardian::CouplerFault f : singles) {
    fault_pairs_.push_back(FaultPair{f, guardian::CouplerFault::kNone});
    // A single-coupler cluster has no channel 1 to fault.
    if (f != guardian::CouplerFault::kNone && config_.num_couplers == 2) {
      fault_pairs_.push_back(FaultPair{guardian::CouplerFault::kNone, f});
    }
  }
  TTA_CHECK(fault_pairs_.size() <= 8);  // 3 bits in the choice code
}

bool TtpcStarModel::replay_allowed(
    const WorldState& s, const guardian::CouplerState& coupler) const {
  if (s.oos_errors_used >= config_.max_out_of_slot_errors) return false;
  switch (coupler.buffered_frame) {
    case ttpc::FrameKind::kNone:
      return false;  // replaying nothing is just silence; prune
    case ttpc::FrameKind::kColdStart:
      return config_.allow_coldstart_duplication;
    case ttpc::FrameKind::kCState:
      return config_.allow_cstate_duplication;
    default:
      return true;
  }
}

ttpc::ChannelView TtpcStarModel::transfer(const ttpc::ChannelFrame& merged,
                                          const FaultPair& pair,
                                          WorldState& next) const {
  // A missing coupler 1 carries permanent silence and keeps no buffer
  // state.
  ttpc::ChannelView view;
  view.ch0 = coupler_.transfer(merged, pair.f0, next.couplers[0]);
  if (config_.num_couplers == 2) {
    view.ch1 = coupler_.transfer(merged, pair.f1, next.couplers[1]);
  }
  if (pair.f0 == guardian::CouplerFault::kOutOfSlot ||
      pair.f1 == guardian::CouplerFault::kOutOfSlot) {
    if (next.oos_errors_used < 7) ++next.oos_errors_used;
  }
  return view;
}

std::pair<WorldState, TransitionLabel> TtpcStarModel::apply(
    const WorldState& s, std::uint32_t choice_code) const {
  const std::size_t n = num_nodes();
  const FaultPair& pair = fault_pairs_[choice_code & 0x7];

  WorldState next = s;
  TransitionLabel label;
  label.fault0 = pair.f0;
  label.fault1 = pair.f1;

  // 1. Transmissions: every node drives both channels identically.
  std::vector<ttpc::ChannelFrame> sent;
  sent.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ttpc::ChannelFrame f = controller_.frame_to_send(
        s.nodes[i], static_cast<ttpc::NodeId>(i + 1));
    label.sent[i] = f;
    sent.push_back(f);
  }
  ttpc::ChannelFrame merged = guardian::AbstractCoupler::merge_transmissions(sent);

  // 2. Coupler transfer.
  const ttpc::ChannelView view = transfer(merged, pair, next);
  label.ch0 = view.ch0;
  label.ch1 = view.ch1;

  // 3. Node transitions under the encoded choices.
  for (std::size_t i = 0; i < n; ++i) {
    unsigned choice = (choice_code >> (3 + 2 * i)) & 0x3;
    ttpc::StepOutcome out = controller_.step(
        s.nodes[i], static_cast<ttpc::NodeId>(i + 1), view, choice);
    next.nodes[i] = out.next;
    label.events[i] = out.event;
  }
  return {next, label};
}

bool TtpcStarModel::legal_choice(const WorldState& s,
                                 std::uint32_t choice_code) const {
  const std::size_t n = num_nodes();
  if ((choice_code & 0x7) >= fault_pairs_.size()) return false;
  if ((choice_code >> (3 + 2 * n)) != 0) return false;
  const FaultPair& pair = fault_pairs_[choice_code & 0x7];
  if (pair.f0 == guardian::CouplerFault::kOutOfSlot &&
      !replay_allowed(s, s.couplers[0])) {
    return false;
  }
  if (pair.f1 == guardian::CouplerFault::kOutOfSlot &&
      !replay_allowed(s, s.couplers[1])) {
    return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (((choice_code >> (3 + 2 * i)) & 0x3) >=
        controller_.num_choices(s.nodes[i])) {
      return false;
    }
  }
  return true;
}

std::vector<Successor> TtpcStarModel::successors(const WorldState& s) const {
  std::vector<Successor> out;
  successors(s, out);
  return out;
}

void TtpcStarModel::successors(const WorldState& s,
                               std::vector<Successor>& out) const {
  // Same successors, in the same order and with the same choice codes, as
  // calling apply() on every code below, and each key equals pack(next);
  // apply() and pack() stay the references and tests/mc_model_test.cpp
  // holds the three in agreement. The work is hoisted out of the odometer:
  // transmissions once per state, the coupler transfers and the coupler
  // and budget bits once per fault pair, and each node's step and 25-bit
  // code once per (fault pair, choice), each written at pack()'s fixed
  // offset. A successor's key is then the fault pair's coupler and budget
  // bits OR-ed with one node code per node.
  const std::size_t n = num_nodes();

  std::array<unsigned, kMaxNodes> counts{};
  std::size_t combos = 1;
  std::vector<ttpc::ChannelFrame> sent(n);
  for (std::size_t i = 0; i < n; ++i) {
    counts[i] = controller_.num_choices(s.nodes[i]);
    TTA_DCHECK(counts[i] <= kMaxChoices);
    combos *= counts[i];
    sent[i] = controller_.frame_to_send(s.nodes[i],
                                        static_cast<ttpc::NodeId>(i + 1));
  }
  const ttpc::ChannelFrame merged =
      guardian::AbstractCoupler::merge_transmissions(sent);

  out.clear();
  out.reserve(fault_pairs_.size() * combos);
  std::array<std::array<ttpc::NodeState, kMaxChoices>, kMaxNodes> stepped;
  std::array<std::array<PlacedCode, kMaxChoices>, kMaxNodes> codes;
  for (std::size_t fp = 0; fp < fault_pairs_.size(); ++fp) {
    const FaultPair& pair = fault_pairs_[fp];
    // State-dependent admissibility of the replay fault.
    if (pair.f0 == guardian::CouplerFault::kOutOfSlot &&
        !replay_allowed(s, s.couplers[0])) {
      continue;
    }
    if (pair.f1 == guardian::CouplerFault::kOutOfSlot &&
        !replay_allowed(s, s.couplers[1])) {
      continue;
    }

    Successor succ{s, static_cast<std::uint32_t>(fp), {}};
    WorldState& next = succ.next;
    const ttpc::ChannelView view = transfer(merged, pair, next);
    util::PackedState tail;
    util::BitWriter tail_writer(tail, static_cast<unsigned>(n) * kNodeBits);
    write_tail(tail_writer, next, config_.num_couplers);
    for (std::size_t i = 0; i < n; ++i) {
      for (unsigned c = 0; c < counts[i]; ++c) {
        stepped[i][c] = controller_
                            .step(s.nodes[i], static_cast<ttpc::NodeId>(i + 1),
                                  view, c)
                            .next;
        codes[i][c] = place_node(i, stepped[i][c]);
      }
      next.nodes[i] = stepped[i][0];
    }

    // Odometer over the per-node choice ranges, node 0 fastest: only the
    // nodes whose digit changed are rewritten.
    std::array<unsigned, kMaxNodes> odo{};
    while (true) {
      succ.key = tail;
      for (std::size_t j = 0; j < n; ++j) {
        const PlacedCode& code = codes[j][odo[j]];
        succ.key.words[code.word] |= code.lo;
        succ.key.words[code.word + 1] |= code.hi;
      }
      out.push_back(succ);
      std::size_t i = 0;
      for (; i < n; ++i) {
        if (++odo[i] < counts[i]) break;
        odo[i] = 0;
      }
      if (i == n) break;
      succ.choice_code = static_cast<std::uint32_t>(fp);
      for (std::size_t j = 0; j < n; ++j) {
        if (j <= i) next.nodes[j] = stepped[j][odo[j]];
        succ.choice_code |= static_cast<std::uint32_t>(odo[j]) << (3 + 2 * j);
      }
    }
  }
}

util::PackedState TtpcStarModel::pack(const WorldState& s) const {
  util::PackedState p;
  util::BitWriter w(p);
  for (std::size_t i = 0; i < num_nodes(); ++i) write_node(w, s.nodes[i]);
  write_tail(w, s, config_.num_couplers);
  return p;
}

unsigned TtpcStarModel::packed_bits() const {
  // Mirrors pack() exactly: per-node fields, the couplers, the oos budget.
  const unsigned per_coupler = kKindBits + kSlotBits;
  return static_cast<unsigned>(num_nodes()) * kNodeBits +
         config_.num_couplers * per_coupler + kOosBits;
}

WorldState TtpcStarModel::unpack(const util::PackedState& p) const {
  WorldState s;
  util::BitReader r(p);
  for (std::size_t i = 0; i < num_nodes(); ++i) {
    ttpc::NodeState& ns = s.nodes[i];
    ns.state = static_cast<ttpc::CtrlState>(r.read(kStateBits));
    ns.slot = static_cast<ttpc::SlotNumber>(r.read(kSlotBits));
    ns.agreed = static_cast<std::uint8_t>(r.read(kCounterBits));
    ns.failed = static_cast<std::uint8_t>(r.read(kCounterBits));
    ns.big_bang = r.read_bool();
    ns.listen_timeout = static_cast<std::uint8_t>(r.read(kTimeoutBits));
    ns.ever_integrated = r.read_bool();
  }
  for (std::size_t c = 0; c < config_.num_couplers; ++c) {
    s.couplers[c].buffered_frame =
        static_cast<ttpc::FrameKind>(r.read(kKindBits));
    s.couplers[c].buffered_id =
        static_cast<ttpc::SlotNumber>(r.read(kSlotBits));
  }
  s.oos_errors_used = static_cast<std::uint8_t>(r.read(kOosBits));
  return s;
}

}  // namespace tta::mc
