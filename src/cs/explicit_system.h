// Explicit-state semantics of the extended probabilistic counter system
// Sys(TAⁿ, PTAᶜ) for a *fixed* admissible parameter valuation (Sect. III-C).
//
// Configurations are counter vectors κ: L × rounds → ℕ and g: V × rounds → ℕ.
// Actions are (rule, round) pairs, compiled once per valuation into Moves;
// probabilistic rules yield one outcome per positive-probability destination
// (only the support matters to the qualitative analyses). The parametric
// checker (src/schema) is the main verification engine; this module
// cross-checks it on small instances and exhibits concrete attacks (the MMR14
// end component).
//
// Fairness note: our automata are DAGs modulo zero-update self-loops (the
// canonical single-round form), so firing a self-loop never changes the
// configuration. Action enumeration therefore skips self-loops; terminal
// configurations are exactly the "terminal modulo self-loops" ones, and
// maximal finite paths coincide with the fair executions of Sect. III-D.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ta/model.h"

namespace ctaver::cs {

/// Counter-vector configuration (κ, g) for a fixed parameter valuation.
struct Config {
  /// Location counters, laid out round-major: process locations of round 0,
  /// coin locations of round 0, process locations of round 1, ...
  std::vector<int32_t> kappa;
  /// Variable values, round-major.
  std::vector<long long> g;

  bool operator==(const Config&) const = default;
};

/// Action α = (rule, round). `coin` selects the automaton.
struct Action {
  bool coin = false;
  ta::RuleId rule = -1;
  int round = 0;

  bool operator==(const Action&) const = default;
};

/// An action compiled against the parameter valuation, over one flat lane
/// space: the κ counters (lane = Config::kappa index), then the g values
/// (lane = kappa size + Config::g index).
struct Move {
  Action action;
  const ta::Rule* rule = nullptr;
  bool self_loop = false;
  bool truncated = false;  // a round switch out of the last modeled round
  int src = 0;             // κ lane the process leaves
  int gbase = 0;           // g lane of this round's first variable
  std::vector<int> dst;    // κ lane it enters, one per outcome branch
  std::vector<std::pair<int, long long>> update;  // (g lane, increment)
  std::vector<long long> rhs;  // rule->guards[k].rhs, evaluated once

  /// Guard truth (c, k |= φ), reading lane values through `lane(i)`.
  template <class Lane>
  [[nodiscard]] bool unlocked(const Lane& lane) const {
    for (std::size_t k = 0; k < rhs.size(); ++k) {
      const ta::Guard& g = rule->guards[k];
      long long lhs = 0;
      for (const auto& [v, b] : g.lhs) lhs += b * lane(gbase + v);
      if ((lhs >= rhs[k]) != (g.rel == ta::GuardRel::kGe)) return false;
    }
    return true;
  }
  template <class Lane>
  [[nodiscard]] bool applicable(const Lane& lane) const {
    return !truncated && lane(src) >= 1 && unlocked(lane);
  }
};

class ExplicitSystem {
 public:
  /// `params` must be admissible for sys.env. `rounds` bounds the number of
  /// modeled rounds (>= 1); round-switch rules into rounds >= `rounds` are
  /// not applicable.
  ExplicitSystem(const ta::System& sys, std::vector<long long> params,
                 int rounds);

  [[nodiscard]] const ta::System& system() const { return *sys_; }
  [[nodiscard]] const std::vector<long long>& params() const { return params_; }
  [[nodiscard]] int rounds() const { return rounds_; }
  [[nodiscard]] long long num_processes() const { return num_processes_; }
  [[nodiscard]] long long num_coins() const { return num_coins_; }

  /// Index of a location in the combined per-round block.
  [[nodiscard]] int gloc(bool coin, ta::LocId l) const {
    return coin ? n_proc_locs_ + l : l;
  }
  [[nodiscard]] int locs_per_round() const { return n_proc_locs_ + n_coin_locs_; }

  [[nodiscard]] int32_t kappa(const Config& c, bool coin, ta::LocId l,
                              int round) const {
    return c.kappa[static_cast<std::size_t>(round * locs_per_round() +
                                            gloc(coin, l))];
  }
  [[nodiscard]] long long var(const Config& c, ta::VarId v, int round) const {
    return c.g[static_cast<std::size_t>(
        round * static_cast<int>(sys_->vars.size()) + v)];
  }

  /// Every (rule, round) action compiled, ordered by round, then process
  /// before coin, then rule id: the order applicable_actions reports.
  [[nodiscard]] const std::vector<Move>& moves() const { return moves_; }
  [[nodiscard]] const Move& move(const Action& a) const {
    return moves_[static_cast<std::size_t>(
        a.round * rules_per_round_ + (a.coin ? n_proc_rules_ : 0) + a.rule)];
  }
  /// Number of κ lanes; the g lanes follow them.
  [[nodiscard]] int kappa_lanes() const { return rounds_ * locs_per_round(); }
  [[nodiscard]] long long lane(const Config& c, int i) const {
    return i < kappa_lanes() ? c.kappa[static_cast<std::size_t>(i)]
                             : c.g[static_cast<std::size_t>(i - kappa_lanes())];
  }

  /// Guard truth in configuration c for round k (c, k |= φ).
  [[nodiscard]] bool unlocked(const Config& c, const Action& a) const {
    return move(a).unlocked([&](int i) { return lane(c, i); });
  }
  [[nodiscard]] bool applicable(const Config& c, const Action& a) const {
    return a.round >= 0 && a.round < rounds_ &&
           move(a).applicable([&](int i) { return lane(c, i); });
  }

  /// All applicable actions across all rounds. Zero-update self-loops are
  /// skipped unless `include_self_loops` (they are configuration no-ops).
  [[nodiscard]] std::vector<Action> applicable_actions(
      const Config& c, bool include_self_loops = false) const;

  /// Applies one outcome branch (by index into the rule's distribution).
  [[nodiscard]] Config apply_outcome(const Config& c, const Action& a,
                                     int outcome_index) const;

  /// All-zero configuration (no processes anywhere).
  [[nodiscard]] Config empty_config() const;

  /// Initial configurations of Sect. III-C: every split of the modeled
  /// processes over the process *initial* locations of round 0 and of the
  /// coins over the coin initial locations; all variables zero.
  [[nodiscard]] std::vector<Config> initial_configs() const;

  /// Round-entry configurations Σu for single-round systems (Thm. 2):
  /// every split over *border* locations instead.
  [[nodiscard]] std::vector<Config> border_start_configs() const;

  /// True iff no non-self-loop action is applicable (fair-terminal).
  [[nodiscard]] bool terminal(const Config& c) const {
    return applicable_actions(c).empty();
  }

  /// Pretty-printer for debugging and counterexample reports.
  [[nodiscard]] std::string describe(const Config& c) const;
  [[nodiscard]] std::string describe(const Action& a) const;

 private:
  [[nodiscard]] const ta::Automaton& automaton(bool coin) const {
    return coin ? sys_->coin : sys_->process;
  }
  [[nodiscard]] Move compile(const Action& a) const;
  /// Shared implementation of initial_configs / border_start_configs.
  [[nodiscard]] std::vector<Config> start_configs_impl(ta::LocRole role) const;

  const ta::System* sys_;
  std::vector<long long> params_;
  int rounds_;
  int n_proc_locs_;
  int n_coin_locs_;
  long long num_processes_;
  long long num_coins_;
  int n_proc_rules_;
  int rules_per_round_;
  std::vector<Move> moves_;
};

/// All ways to place `total` identical tokens into `bins` bins.
std::vector<std::vector<long long>> compositions(long long total, int bins);

}  // namespace ctaver::cs
