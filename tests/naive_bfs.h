// A deliberately naive reference for the BFS engine: a FIFO breadth-first
// search over an std::unordered_map of packed states with parent links —
// no slot table, no growth, no checkpoints, no cancellation, no threads.
// It shares only the model with mc::Checker, so an error in the engine's
// table, growth, chunking or level synchronization shows up as a
// disagreement with it.
//
// Statistics follow the engine's documented accounting (docs/CHECKER.md):
// a hit found while expanding depth d is reported only after the rest of
// depth d has been expanded, so states, transitions and max_depth are
// functions of the state graph alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/bitpack.h"

namespace tta::mc::naive {

inline constexpr std::uint32_t kNone = UINT32_MAX;

/// The explored graph: states in discovery (= FIFO) order, each with the
/// index of the state it was discovered from and its BFS depth.
struct Search {
  std::vector<util::PackedState> states;
  std::vector<std::uint32_t> parent;  ///< kNone for the root
  std::vector<std::uint32_t> depth;
  std::uint64_t transitions = 0;
  std::uint64_t max_depth = 0;

  /// Root -> ... -> `last`, as state indices.
  std::vector<std::uint32_t> path_to(std::uint32_t last) const {
    std::vector<std::uint32_t> path;
    for (std::uint32_t at = last; at != kNone; at = parent[at]) {
      path.push_back(at);
    }
    std::reverse(path.begin(), path.end());
    return path;
  }
};

/// FIFO BFS from the model's initial state. `edge(cur, from, succ, to,
/// inserted)` sees every transition in FIFO order — `cur` the unpacked
/// state at index `from`, `to` the successor's index — and returns true on
/// a hit; the search then finishes the hit's depth and stops.
template <class Model, class Edge>
Search bfs(const Model& model, Edge&& edge) {
  Search s;
  std::unordered_map<util::PackedState, std::uint32_t> index;
  index.emplace(model.pack(model.initial()), 0);
  s.states.push_back(model.pack(model.initial()));
  s.parent.push_back(kNone);
  s.depth.push_back(0);
  std::deque<std::uint32_t> fifo{0};
  std::uint32_t stop_after = kNone;
  while (!fifo.empty() && s.depth[fifo.front()] <= stop_after) {
    const std::uint32_t from = fifo.front();
    fifo.pop_front();
    s.max_depth = std::max<std::uint64_t>(s.max_depth, s.depth[from]);
    const typename Model::State cur = model.unpack(s.states[from]);
    for (const auto& succ : model.successors(cur)) {
      ++s.transitions;
      const util::PackedState packed = model.pack(succ.next);
      const auto [it, inserted] = index.emplace(
          packed, static_cast<std::uint32_t>(s.states.size()));
      if (inserted) {
        s.states.push_back(packed);
        s.parent.push_back(from);
        s.depth.push_back(s.depth[from] + 1);
        fifo.push_back(it->second);
      }
      if (edge(cur, from, succ, it->second, inserted) &&
          stop_after == kNone) {
        stop_after = s.depth[from];
      }
    }
  }
  return s;
}

/// What a safety or reachability query found.
template <class State>
struct Answer {
  bool found = false;  ///< violation / goal state reached
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t max_depth = 0;
  /// The trace's states: the initial state, then the state after each
  /// step (so a trace of n steps has n + 1 entries; none if !found).
  std::vector<State> path;
};

template <class Model>
Answer<typename Model::State> answer(const Model& model, const Search& s,
                                     bool found,
                                     const std::vector<std::uint32_t>& path) {
  Answer<typename Model::State> out;
  out.found = found;
  out.states = s.states.size();
  out.transitions = s.transitions;
  out.max_depth = s.max_depth;
  for (std::uint32_t i : path) out.path.push_back(model.unpack(s.states[i]));
  return out;
}

/// Safety: the first violating transition in FIFO order, if any.
template <class Model>
Answer<typename Model::State> check(
    const Model& model,
    const std::function<bool(const typename Model::State&,
                             const typename Model::State&)>& violation) {
  std::uint32_t hit_from = kNone;
  typename Model::State hit_next{};
  const Search s = bfs(model, [&](const auto& cur, std::uint32_t from,
                                  const auto& succ, std::uint32_t, bool) {
    if (hit_from != kNone || !violation(cur, succ.next)) return false;
    hit_from = from;
    hit_next = succ.next;
    return true;
  });
  if (hit_from == kNone) return answer(model, s, false, {});
  Answer<typename Model::State> out =
      answer(model, s, true, s.path_to(hit_from));
  out.path.push_back(hit_next);
  return out;
}

/// Reachability: the first goal state in discovery order, if any.
template <class Model>
Answer<typename Model::State> find_state(
    const Model& model,
    const std::function<bool(const typename Model::State&)>& goal) {
  if (goal(model.initial())) {
    Search root;
    root.states.push_back(model.pack(model.initial()));
    return answer(model, root, true, {0});
  }
  std::uint32_t hit = kNone;
  const Search s = bfs(model, [&](const auto&, std::uint32_t,
                                  const auto& succ, std::uint32_t to,
                                  bool inserted) {
    if (hit != kNone || !inserted || !goal(succ.next)) return false;
    hit = to;
    return true;
  });
  return answer(model, s, hit != kNone,
                hit == kNone ? std::vector<std::uint32_t>{} : s.path_to(hit));
}

/// AG EF goal: the states with no path to a goal state ("dead"), and the
/// shortest path into them.
template <class State>
struct RecoverabilityAnswer {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t max_depth = 0;
  std::uint64_t dead_states = 0;
  std::vector<State> witness;  ///< states after each witness step
};

template <class Model>
RecoverabilityAnswer<typename Model::State> recoverability(
    const Model& model,
    const std::function<bool(const typename Model::State&)>& goal) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<bool> is_goal{goal(model.initial())};
  const Search s = bfs(model, [&](const auto&, std::uint32_t from,
                                  const auto& succ, std::uint32_t to,
                                  bool inserted) {
    if (inserted) is_goal.push_back(goal(succ.next));
    edges.emplace_back(from, to);
    return false;
  });
  RecoverabilityAnswer<typename Model::State> out;
  out.states = s.states.size();
  out.transitions = s.transitions;
  out.max_depth = s.max_depth;

  // Backward closure: repeatedly mark every predecessor of a marked state.
  std::vector<std::vector<std::uint32_t>> preds(s.states.size());
  for (const auto& [from, to] : edges) preds[to].push_back(from);
  std::vector<bool> can_recover = is_goal;
  std::deque<std::uint32_t> back;
  for (std::uint32_t i = 0; i < s.states.size(); ++i) {
    if (is_goal[i]) back.push_back(i);
  }
  while (!back.empty()) {
    const std::uint32_t cur = back.front();
    back.pop_front();
    for (std::uint32_t pred : preds[cur]) {
      if (!can_recover[pred]) {
        can_recover[pred] = true;
        back.push_back(pred);
      }
    }
  }

  // Shortest witness: the first dead state in discovery order (discovery
  // order is BFS order, so no later dead state is shallower).
  std::uint32_t witness = kNone;
  for (std::uint32_t i = 0; i < s.states.size(); ++i) {
    if (can_recover[i]) continue;
    if (out.dead_states++ == 0) witness = i;
  }
  if (witness != kNone) {
    const std::vector<std::uint32_t> path = s.path_to(witness);
    for (std::size_t i = 1; i < path.size(); ++i) {
      out.witness.push_back(model.unpack(s.states[path[i]]));
    }
  }
  return out;
}

}  // namespace tta::mc::naive
