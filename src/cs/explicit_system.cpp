#include "cs/explicit_system.h"

#include <sstream>
#include <stdexcept>

namespace ctaver::cs {

ExplicitSystem::ExplicitSystem(const ta::System& sys,
                               std::vector<long long> params, int rounds)
    : sys_(&sys),
      params_(std::move(params)),
      rounds_(rounds),
      n_proc_locs_(static_cast<int>(sys.process.locations.size())),
      n_coin_locs_(static_cast<int>(sys.coin.locations.size())) {
  if (rounds_ < 1) throw std::invalid_argument("ExplicitSystem: rounds < 1");
  if (!sys.env.admissible(params_)) {
    throw std::invalid_argument(
        "ExplicitSystem: parameter valuation violates the resilience "
        "condition");
  }
  num_processes_ = sys.env.num_processes.eval(params_);
  num_coins_ = sys.env.num_coins.eval(params_);
  n_proc_rules_ = static_cast<int>(sys.process.rules.size());
  rules_per_round_ = n_proc_rules_ + static_cast<int>(sys.coin.rules.size());
  for (int k = 0; k < rounds_ * rules_per_round_; ++k) {
    const int r = k % rules_per_round_;
    const bool coin = r >= n_proc_rules_;
    moves_.push_back(compile({coin, coin ? r - n_proc_rules_ : r,
                              k / rules_per_round_}));
  }
}

Move ExplicitSystem::compile(const Action& a) const {
  const ta::Rule& r =
      automaton(a.coin).rules[static_cast<std::size_t>(a.rule)];
  const int nvars = static_cast<int>(sys_->vars.size());
  // Zero-update self-loops never change the configuration (see the header).
  const bool self_loop = r.is_dirac() && r.to.dirac_target() == r.from &&
                         r.has_zero_update() && !r.is_round_switch;
  Move m{a, &r, self_loop, false,
         a.round * locs_per_round() + gloc(a.coin, r.from),
         kappa_lanes() + a.round * nvars, {}, {}, {}};
  for (const auto& [to, p] : r.to.outcomes) {
    (void)p;
    // Round-switch rules into kBorder locations cross to the next round; in
    // single-round systems (Def. 3) the S′ rules target border *copies* and
    // stay within the round. A switch out of the last round is truncated.
    const ta::Location& dst =
        automaton(a.coin).locations[static_cast<std::size_t>(to)];
    int to_round = a.round + (r.is_round_switch &&
                              dst.role == ta::LocRole::kBorder);
    m.truncated = m.truncated || to_round >= rounds_;
    m.dst.push_back(to_round * locs_per_round() + gloc(a.coin, to));
  }
  for (ta::VarId v = 0; v < nvars; ++v) {
    if (r.update_of(v) != 0) m.update.emplace_back(m.gbase + v, r.update_of(v));
  }
  for (const ta::Guard& g : r.guards) m.rhs.push_back(g.rhs.eval(params_));
  return m;
}

std::vector<Action> ExplicitSystem::applicable_actions(
    const Config& c, bool include_self_loops) const {
  std::vector<Action> out;
  for (const Move& m : moves_) {
    if (!include_self_loops && m.self_loop) continue;
    if (m.applicable([&](int i) { return lane(c, i); })) {
      out.push_back(m.action);
    }
  }
  return out;
}

Config ExplicitSystem::apply_outcome(const Config& c, const Action& a,
                                     int outcome_index) const {
  const Move& m = move(a);
  if (m.truncated) {
    throw std::logic_error("ExplicitSystem: " + describe(a) +
                           " leaves the modeled rounds");
  }
  Config out = c;
  out.kappa[static_cast<std::size_t>(m.src)]--;
  out.kappa[static_cast<std::size_t>(
      m.dst[static_cast<std::size_t>(outcome_index)])]++;
  for (const auto& [i, u] : m.update) {
    out.g[static_cast<std::size_t>(i - kappa_lanes())] += u;
  }
  return out;
}

Config ExplicitSystem::empty_config() const {
  Config c;
  c.kappa.assign(static_cast<std::size_t>(rounds_ * locs_per_round()), 0);
  c.g.assign(static_cast<std::size_t>(rounds_) * sys_->vars.size(), 0);
  return c;
}

std::vector<std::vector<long long>> compositions(long long total, int bins) {
  std::vector<std::vector<long long>> out;
  if (bins == 0) {
    if (total == 0) out.push_back({});
    return out;
  }
  // Lexicographic order: the last bin holds the remainder. Step: move one
  // token from the rightmost non-empty bin k > 0 into bin k - 1, and put
  // the rest of bin k into the last bin.
  std::vector<long long> acc(static_cast<std::size_t>(bins), 0);
  acc.back() = total;
  for (;;) {
    out.push_back(acc);
    std::size_t k = acc.size() - 1;
    while (k > 0 && acc[k] == 0) --k;
    if (k == 0) return out;
    const long long rest = acc[k] - 1;
    acc[k] = 0;
    ++acc[k - 1];
    acc.back() = rest;
  }
}

std::vector<Config> ExplicitSystem::start_configs_impl(
    ta::LocRole role) const {
  std::vector<ta::LocId> proc_locs = sys_->process.locs_with_role(role);
  std::vector<ta::LocId> coin_locs = sys_->coin.locs_with_role(role);
  if (num_coins_ > 0 && coin_locs.empty()) {
    throw std::logic_error(
        "ExplicitSystem: coins modeled but the coin automaton has no "
        "locations with the requested start role");
  }
  std::vector<Config> out;
  auto proc_splits =
      compositions(num_processes_, static_cast<int>(proc_locs.size()));
  auto coin_splits = num_coins_ > 0
                         ? compositions(num_coins_,
                                        static_cast<int>(coin_locs.size()))
                         : std::vector<std::vector<long long>>{{}};
  for (const auto& ps : proc_splits) {
    for (const auto& cs : coin_splits) {
      Config c = empty_config();
      for (std::size_t i = 0; i < proc_locs.size(); ++i) {
        c.kappa[static_cast<std::size_t>(gloc(false, proc_locs[i]))] =
            static_cast<int32_t>(ps[i]);
      }
      for (std::size_t i = 0; i < coin_locs.size() && i < cs.size(); ++i) {
        c.kappa[static_cast<std::size_t>(gloc(true, coin_locs[i]))] =
            static_cast<int32_t>(cs[i]);
      }
      out.push_back(std::move(c));
    }
  }
  return out;
}

std::vector<Config> ExplicitSystem::initial_configs() const {
  return start_configs_impl(ta::LocRole::kInitial);
}

std::vector<Config> ExplicitSystem::border_start_configs() const {
  return start_configs_impl(ta::LocRole::kBorder);
}

std::string ExplicitSystem::describe(const Config& c) const {
  std::ostringstream os;
  for (int round = 0; round < rounds_; ++round) {
    os << "[round " << round << "]";
    for (bool coin : {false, true}) {
      const ta::Automaton& a = automaton(coin);
      for (ta::LocId l = 0; l < static_cast<ta::LocId>(a.locations.size());
           ++l) {
        int32_t k = kappa(c, coin, l, round);
        if (k != 0) {
          os << " " << a.locations[static_cast<std::size_t>(l)].name << "="
             << k;
        }
      }
    }
    for (ta::VarId v = 0; v < static_cast<ta::VarId>(sys_->vars.size());
         ++v) {
      long long g = var(c, v, round);
      if (g != 0) {
        os << " " << sys_->vars[static_cast<std::size_t>(v)].name << "=" << g;
      }
    }
    if (round + 1 < rounds_) os << " ";
  }
  return os.str();
}

std::string ExplicitSystem::describe(const Action& a) const {
  const ta::Rule& r =
      automaton(a.coin).rules[static_cast<std::size_t>(a.rule)];
  return (a.coin ? std::string("coin:") : std::string("")) + r.name + "@r" +
         std::to_string(a.round);
}

}  // namespace ctaver::cs
