// Reachable state graph of an explicit counter system and the qualitative
// analyses the pipeline needs: reachability, "some fair maximal path avoids
// T", and the ∀-adversary ∃-outcome games behind (C1)/(C2′) (Lemma 2).
//
// Configurations are packed at a fixed stride into one byte arena, each
// counter in a 1-, 2- or 4-byte lane sized at construction from a bound on
// any counter; nothing is ever truncated. An open-addressing id table,
// hashed word-wise over the rows, interns states during the BFS and is then
// freed. Edges and successors are uint32 CSR arrays without probabilities
// (the analyses read only the support). Every analysis is a linear worklist
// pass (no recursion, so deep schedules cannot overflow the stack); the
// backward ones share one lazily built reverse CSR, so one graph must not
// be analysed concurrently. Our automata are DAGs modulo skipped self-loops,
// but the passes are fixpoints, so cyclic inputs degrade gracefully.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ranges>
#include <span>
#include <stdexcept>
#include <vector>

#include "cs/explicit_system.h"
#include "util/cancel.h"

namespace ctaver::cs {

/// A build passed its `max_states`: a budget cut, not an internal error.
struct StateBudgetExceeded : std::runtime_error {
  StateBudgetExceeded()
      : std::runtime_error("StateGraph: state budget exceeded") {}
};

class StateGraph {
 public:
  using Pred = std::function<bool(const Config&)>;

  /// Builds the reachable graph from `initials`. Throws StateBudgetExceeded
  /// past `max_states` states, and std::invalid_argument if the counters or
  /// `max_states` cannot fit the packed layout. A non-null `cancel` is
  /// polled every 1024 states (util::Cancelled): how the pipeline aborts
  /// in-flight sweep instances once the shared budget is exhausted.
  StateGraph(const ExplicitSystem& sys, const std::vector<Config>& initials,
             std::size_t max_states = 2'000'000,
             const util::CancelSource* cancel = nullptr);

  [[nodiscard]] const ExplicitSystem& system() const { return *sys_; }
  [[nodiscard]] std::size_t num_states() const {
    return edge_begin_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const { return edge_move_.size(); }
  [[nodiscard]] std::size_t num_outcomes() const { return succ_.size(); }
  [[nodiscard]] Config config(std::size_t s) const;
  /// One counter of state s, by ExplicitSystem lane index.
  [[nodiscard]] long long lane(std::size_t s, int i) const {
    return get(row(s), i);
  }
  [[nodiscard]] const std::vector<std::size_t>& initial_states() const {
    return initials_;
  }
  /// Bytes held by the arena and the CSR arrays (and the reverse CSR once an
  /// analysis built it); the peak is the `cs.graph_bytes` gauge.
  [[nodiscard]] std::size_t bytes() const;

  /// One applicable action at a state and its successor per outcome branch.
  struct Edge {
    Action action;
    std::span<const std::uint32_t> outcomes;
  };
  /// The edges of state s, as a view over the CSR arrays.
  [[nodiscard]] auto edges(std::size_t s) const {
    return std::views::iota(edge_begin_[s], edge_begin_[s + 1]) |
           std::views::transform([this](std::uint32_t e) {
             return Edge{sys_->moves()[edge_move_[e]].action,
                         {succ_.data() + edge_out_[e],
                          succ_.data() + edge_out_[e + 1]}};
           });
  }
  [[nodiscard]] bool terminal(std::size_t s) const {
    return edge_begin_[s] == edge_begin_[s + 1];
  }

  /// States satisfying `pred`.
  [[nodiscard]] std::vector<bool> mark(const Pred& pred) const;

  /// Is some state satisfying `pred` reachable?
  [[nodiscard]] bool some_reachable(const Pred& pred) const;

  /// Two-phase reachability for A(Fφ → Gψ) counterexamples: a path that
  /// first reaches a φ-state and later (or at the same state) a ¬ψ-state.
  [[nodiscard]] bool eventually_then(const Pred& phi,
                                     const Pred& not_psi) const;

  /// True iff from state s some *maximal* path avoids `target` forever
  /// (i.e. P_min over fair adversaries of reaching `target` is < 1).
  /// Computed for all states at once.
  [[nodiscard]] std::vector<bool> can_avoid(
      const std::vector<bool>& target) const;

  /// The one game solver. The adversary picks an edge, the outcome player
  /// one of its outcomes; entering t ORs touch[t] into 2-bit flags, and the
  /// adversary wins once both are set. Per state s: does the outcome player
  /// win from s with flags touch[s]? (A backward worklist over the product,
  /// counting each (edge, flags) pair's still-winning outcomes.)
  [[nodiscard]] std::vector<bool> touched_game(
      const std::vector<std::uint8_t>& touch) const;

  /// Safety game: can the outcome player keep some resolution outside `bad`
  /// forever, however the adversary schedules? (touched_game, bad = 3.)
  [[nodiscard]] std::vector<bool> forall_adversary_exists_safe(
      const std::vector<bool>& bad) const;

 private:
  [[nodiscard]] const std::uint8_t* row(std::size_t s) const {
    return arena_.data() + s * stride_;
  }
  [[nodiscard]] long long get(const std::uint8_t* row, int lane) const;
  void set(std::uint8_t* row, int lane, long long v) const;
  [[nodiscard]] std::uint32_t intern(const std::uint8_t* row);
  /// `seed` closed under predecessors; states in `*stop` are never added.
  [[nodiscard]] std::vector<bool> backward_closure(
      std::vector<bool> seed, const std::vector<bool>* stop) const;
  void build_reverse() const;

  const ExplicitSystem* sys_;
  int lanes_ = 0, width_ = 0;
  std::size_t stride_ = 0, max_states_ = 0;
  long long lane_max_ = 0;
  std::vector<std::uint8_t> arena_;
  std::vector<std::uint64_t> slots_;  // (hash tag << 32) | (id + 1); 0 empty
  std::vector<std::size_t> initials_;
  // Forward CSR: state s owns edges [edge_begin_[s], edge_begin_[s + 1]),
  // and edge e the successors succ_[edge_out_[e] .. edge_out_[e + 1]).
  std::vector<std::uint32_t> edge_begin_ = {0}, edge_out_ = {0}, succ_;
  std::vector<std::uint16_t> edge_move_;  // index into moves_
  // Reverse CSR over outcome occurrences: rev_edge_[rev_begin_[t] ..
  // rev_begin_[t + 1]) lists each edge with an outcome t, once per outcome.
  mutable std::vector<std::uint32_t> rev_begin_, rev_edge_, edge_src_;
};

/// (C1) on one instance of the single-round system `rd`: from every
/// round-entry configuration, whatever the (fair) adversary does, some
/// probabilistic resolution satisfies (G no F_0-state) ∨ (G no F_1-state).
/// The disjunction is path-adaptive — which side stays clean may depend on
/// the adversary's moves — so it is the touched game over the F_0/F_1 flags.
bool check_c1_instance(const ta::System& rd,
                       const std::vector<long long>& params,
                       std::size_t max_states,
                       const util::CancelSource* cancel);

/// (C2′) on one instance: if all correct processes start the round with v,
/// then whatever the adversary does, some resolution has every finishing
/// process decide v (no process ever enters F \ D_v).
bool check_c2prime_instance(const ta::System& rd,
                            const std::vector<long long>& params,
                            std::size_t max_states,
                            const util::CancelSource* cancel);

}  // namespace ctaver::cs
