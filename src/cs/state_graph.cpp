#include "cs/state_graph.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace ctaver::cs {

namespace {

template <class T>
T load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class T>
void store(std::uint8_t* p, long long v) {
  const auto w = static_cast<T>(v);
  std::memcpy(p, &w, sizeof w);
}

}  // namespace

StateGraph::StateGraph(const ExplicitSystem& sys,
                       const std::vector<Config>& initials,
                       std::size_t max_states,
                       const util::CancelSource* cancel)
    : sys_(&sys), max_states_(max_states) {
  util::Stopwatch watch;
  // Geometry, validated once. Per round a process fires at most one
  // non-self-loop rule per location it passes, so no counter exceeds
  // (processes + coins) * |L| * (largest increment).
  const std::vector<Move>& moves = sys.moves();
  lanes_ = sys.kappa_lanes() +
           sys.rounds() * static_cast<int>(sys.system().vars.size());
  long long max_update = 1;
  for (const Move& m : moves) {
    for (const auto& [i, u] : m.update) max_update = std::max(max_update, u);
  }
  const long double bound =
      static_cast<long double>(sys.num_processes() + sys.num_coins()) *
      static_cast<long double>(sys.system().total_locations()) *
      static_cast<long double>(max_update);
  width_ = bound <= 0xffL ? 1 : bound <= 0xffffL ? 2 : 4;
  if (bound > 0xffffffffL || moves.size() > 0xffff ||
      max_states >= 0xffffffffULL ||
      std::any_of(moves.begin(), moves.end(),
                  [](const Move& m) { return m.dst.size() > 0xff; })) {
    throw std::invalid_argument(
        "StateGraph: system or state budget exceeds the packed layout");
  }
  lane_max_ = (1LL << (8 * width_)) - 1;
  stride_ = (static_cast<std::size_t>(lanes_ * width_) + 7) / 8 * 8;
  slots_.assign(1024, 0);

  // Fault point at BFS entry (fires for every graph, however small) and at
  // the same 1/1024 throttle as the cancellation poll below.
  util::fault_point("cs.expand");

  std::vector<std::uint8_t> cur(stride_, 0), next(stride_);
  for (const Config& c : initials) {
    for (int i = 0; i < lanes_; ++i) set(cur.data(), i, sys.lane(c, i));
    initials_.push_back(intern(cur.data()));
  }
  // Ids are handed out in discovery order, so expanding them in id order
  // is the BFS.
  auto lane = [&](int i) { return get(cur.data(), i); };
  for (std::size_t s = 0; s < arena_.size() / stride_; ++s) {
    if (((s + 1) & 0x3ff) == 0) {
      util::fault_point("cs.expand");
      if (cancel != nullptr) cancel->check();
    }
    std::memcpy(cur.data(), row(s), stride_);  // interning may move arena_
    for (std::size_t m = 0; m < moves.size(); ++m) {
      const Move& mv = moves[m];
      if (mv.self_loop || !mv.applicable(lane)) continue;
      for (int dst : mv.dst) {
        next = cur;
        set(next.data(), mv.src, get(next.data(), mv.src) - 1);
        set(next.data(), dst, get(next.data(), dst) + 1);
        for (const auto& [i, u] : mv.update) {
          set(next.data(), i, get(next.data(), i) + u);
        }
        succ_.push_back(intern(next.data()));
      }
      if (succ_.size() > 0xffffffffULL) {
        throw std::length_error("StateGraph: more than 2^32 outcomes");
      }
      edge_move_.push_back(static_cast<std::uint16_t>(m));
      edge_out_.push_back(static_cast<std::uint32_t>(succ_.size()));
    }
    edge_begin_.push_back(static_cast<std::uint32_t>(edge_move_.size()));
  }
  obs::gauge_max(obs::Gauge::kCsGraphBytes, bytes());
  std::vector<std::uint64_t>().swap(slots_);  // the index is build-only
  obs::add(obs::Counter::kCsStates, num_states());
  obs::add(obs::Counter::kCsEdges, num_edges());
  obs::add(obs::Counter::kCsOutcomes, num_outcomes());
  obs::add(obs::Counter::kCsBuildMicros,
           static_cast<std::uint64_t>(watch.seconds() * 1e6));
}

long long StateGraph::get(const std::uint8_t* r, int lane) const {
  if (width_ == 1) return r[lane];
  if (width_ == 2) return load<std::uint16_t>(r + 2 * lane);
  return load<std::uint32_t>(r + 4 * static_cast<std::size_t>(lane));
}

void StateGraph::set(std::uint8_t* r, int lane, long long v) const {
  if (v < 0 || v > lane_max_) {
    throw std::invalid_argument("StateGraph: a counter outgrew its lane");
  }
  if (width_ == 1) {
    r[lane] = static_cast<std::uint8_t>(v);
  } else if (width_ == 2) {
    store<std::uint16_t>(r + 2 * lane, v);
  } else {
    store<std::uint32_t>(r + 4 * static_cast<std::size_t>(lane), v);
  }
}

std::uint32_t StateGraph::intern(const std::uint8_t* r) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < stride_; i += 8) {
    h = (h ^ load<std::uint64_t>(r + i)) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
  }
  h *= 0x94d049bb133111ebULL;
  // The top 32 hash bits are both the slot tag and the probe start, so a
  // grow rehashes from the tags alone.
  const std::uint64_t tag = h >> 32;
  std::size_t mask = slots_.size() - 1;
  std::size_t i = tag & mask;
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    const std::uint64_t id = (slots_[i] & 0xffffffffULL) - 1;
    if ((slots_[i] >> 32) == tag &&
        std::memcmp(row(id), r, stride_) == 0) {
      return static_cast<std::uint32_t>(id);
    }
  }
  const std::size_t id = arena_.size() / stride_;
  if (id >= max_states_) throw StateBudgetExceeded();
  arena_.insert(arena_.end(), r, r + stride_);
  slots_[i] = (tag << 32) | (id + 1);
  if ((id + 1) * 4 > slots_.size() * 3) {  // keep the load under 3/4
    std::vector<std::uint64_t> old(slots_.size() * 2, 0);
    old.swap(slots_);
    mask = slots_.size() - 1;
    for (std::uint64_t v : old) {
      if (v == 0) continue;
      std::size_t j = (v >> 32) & mask;
      while (slots_[j] != 0) j = (j + 1) & mask;
      slots_[j] = v;
    }
  }
  return static_cast<std::uint32_t>(id);
}

std::size_t StateGraph::bytes() const {
  auto b = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return b(arena_) + b(slots_) + b(edge_begin_) + b(edge_out_) + b(succ_) +
         b(edge_move_) + b(rev_begin_) + b(rev_edge_) + b(edge_src_);
}

Config StateGraph::config(std::size_t s) const {
  Config c = sys_->empty_config();
  const int nk = sys_->kappa_lanes();
  for (int i = 0; i < nk; ++i) {
    c.kappa[static_cast<std::size_t>(i)] = static_cast<int32_t>(lane(s, i));
  }
  for (int i = nk; i < lanes_; ++i) {
    c.g[static_cast<std::size_t>(i - nk)] = lane(s, i);
  }
  return c;
}

std::vector<bool> StateGraph::mark(const Pred& pred) const {
  std::vector<bool> out(num_states());
  for (std::size_t s = 0; s < num_states(); ++s) out[s] = pred(config(s));
  return out;
}

bool StateGraph::some_reachable(const Pred& pred) const {
  // Every state is reachable from the initials by construction.
  return std::ranges::any_of(std::views::iota(std::size_t{0}, num_states()),
                             [&](std::size_t s) { return pred(config(s)); });
}

void StateGraph::build_reverse() const {
  if (!rev_begin_.empty()) return;
  edge_src_.resize(num_edges());
  rev_begin_.assign(num_states() + 1, 0);
  rev_edge_.resize(num_outcomes());
  for (std::uint32_t t : succ_) ++rev_begin_[t + 1];
  std::partial_sum(rev_begin_.begin(), rev_begin_.end(), rev_begin_.begin());
  std::vector<std::uint32_t> cursor(rev_begin_.begin(), rev_begin_.end() - 1);
  for (std::size_t s = 0; s < num_states(); ++s) {
    for (std::uint32_t e = edge_begin_[s]; e < edge_begin_[s + 1]; ++e) {
      edge_src_[e] = static_cast<std::uint32_t>(s);
      for (std::uint32_t o = edge_out_[e]; o < edge_out_[e + 1]; ++o) {
        rev_edge_[cursor[succ_[o]]++] = e;
      }
    }
  }
  obs::gauge_max(obs::Gauge::kCsGraphBytes, bytes());
}

std::vector<bool> StateGraph::backward_closure(
    std::vector<bool> seed, const std::vector<bool>* stop) const {
  build_reverse();
  std::vector<std::uint32_t> work;
  for (std::size_t s = 0; s < seed.size(); ++s) {
    if (seed[s]) work.push_back(static_cast<std::uint32_t>(s));
  }
  while (!work.empty()) {
    const std::uint32_t u = work.back();
    work.pop_back();
    for (std::uint32_t i = rev_begin_[u]; i < rev_begin_[u + 1]; ++i) {
      const std::uint32_t p = edge_src_[rev_edge_[i]];
      if (seed[p] || (stop != nullptr && (*stop)[p])) continue;
      seed[p] = true;
      work.push_back(p);
    }
  }
  return seed;
}

bool StateGraph::eventually_then(const Pred& phi, const Pred& not_psi) const {
  // Every state is reachable: is some φ-state backward-closed from ¬ψ?
  const std::vector<bool> reach = backward_closure(mark(not_psi), nullptr);
  return std::ranges::any_of(
      std::views::iota(std::size_t{0}, num_states()),
      [&](std::size_t s) { return reach[s] && phi(config(s)); });
}

std::vector<bool> StateGraph::can_avoid(
    const std::vector<bool>& target) const {
  // Least fixpoint of: s not in target and (terminal or some action-outcome
  // successor can avoid). On DAGs this is exact; on cyclic graphs states in
  // ¬target that cannot reach target at all are added too, which matches
  // unfair-loop semantics and is conservative for us.
  std::vector<bool> seed(num_states());
  for (std::size_t s = 0; s < num_states(); ++s) {
    seed[s] = !target[s] && terminal(s);
  }
  std::vector<bool> avoid = backward_closure(std::move(seed), &target);
  const std::vector<bool> reach_target = backward_closure(target, nullptr);
  for (std::size_t s = 0; s < num_states(); ++s) {
    if (!target[s] && !reach_target[s]) avoid[s] = true;
  }
  return avoid;
}

std::vector<bool> StateGraph::touched_game(
    const std::vector<std::uint8_t>& touch) const {
  util::Stopwatch watch;
  build_reverse();
  // Node (s, f) exists for flags f ⊇ touch[s]; bit f of lost[s] marks it
  // lost. gone[4e + f] counts edge e's outcomes already lost under f.
  const std::size_t n = num_states();
  std::vector<std::uint8_t> lost(n, 1u << 3);
  std::vector<std::uint8_t> gone(4 * num_edges(), 0);
  std::vector<std::uint64_t> work;  // (state << 2) | flags, lost nodes
  for (std::size_t s = 0; s < n; ++s) work.push_back(s << 2 | 3);
  while (!work.empty()) {
    const std::size_t t = work.back() >> 2;
    const unsigned g = work.back() & 3;
    work.pop_back();
    for (std::uint32_t i = rev_begin_[t]; i < rev_begin_[t + 1]; ++i) {
      const std::uint32_t e = rev_edge_[i];
      const std::uint32_t p = edge_src_[e];
      for (unsigned f = 0; f < 3; ++f) {
        if ((f & touch[p]) != touch[p] || (lost[p] >> f & 1) != 0 ||
            (f | touch[t]) != g) {
          continue;
        }
        // Once all of e's outcomes are lost under f, the adversary plays e.
        if (++gone[4 * e + f] == edge_out_[e + 1] - edge_out_[e]) {
          lost[p] |= static_cast<std::uint8_t>(1u << f);
          work.push_back(static_cast<std::uint64_t>(p) << 2 | f);
        }
      }
    }
  }
  std::vector<bool> win(n);
  for (std::size_t s = 0; s < n; ++s) win[s] = (lost[s] >> touch[s] & 1) == 0;
  obs::add(obs::Counter::kCsGameMicros,
           static_cast<std::uint64_t>(watch.seconds() * 1e6));
  return win;
}

std::vector<bool> StateGraph::forall_adversary_exists_safe(
    const std::vector<bool>& bad) const {
  std::vector<std::uint8_t> touch(num_states());
  for (std::size_t s = 0; s < num_states(); ++s) touch[s] = bad[s] ? 3 : 0;
  return touched_game(touch);
}

namespace {

/// Solves the touched game with touch[s] the OR of bits(ℓ) over the process
/// locations ℓ occupied in s, and reports whether every initial state wins.
template <class Bits>
bool initials_win(const StateGraph& g, Bits bits) {
  const ta::Automaton& a = g.system().system().process;
  std::vector<std::uint8_t> touch(g.num_states());
  for (ta::LocId l = 0; l < static_cast<ta::LocId>(a.locations.size()); ++l) {
    const auto b = static_cast<std::uint8_t>(
        bits(a.locations[static_cast<std::size_t>(l)]));
    for (std::size_t s = 0; b != 0 && s < g.num_states(); ++s) {
      if (g.lane(s, g.system().gloc(false, l)) > 0) touch[s] |= b;
    }
  }
  const std::vector<bool> win = g.touched_game(touch);
  return std::all_of(g.initial_states().begin(), g.initial_states().end(),
                     [&](std::size_t s) { return win[s]; });
}

}  // namespace

bool check_c1_instance(const ta::System& rd,
                       const std::vector<long long>& params,
                       std::size_t max_states,
                       const util::CancelSource* cancel) {
  ExplicitSystem es(rd, params, 1);
  StateGraph g(es, es.border_start_configs(), max_states, cancel);
  // Flag v: some process in a final location of value v (E_v or D_v).
  return initials_win(g, [](const ta::Location& l) {
    return l.role == ta::LocRole::kFinal && l.value >= 0 ? 1 << l.value : 0;
  });
}

bool check_c2prime_instance(const ta::System& rd,
                            const std::vector<long long>& params,
                            std::size_t max_states,
                            const util::CancelSource* cancel) {
  ExplicitSystem es(rd, params, 1);
  for (int v : {0, 1}) {
    if (cancel != nullptr) cancel->check();
    // The unique border-start configuration with everyone on value v.
    std::vector<ta::LocId> bv = rd.process.locs_with(ta::LocRole::kBorder, v);
    std::vector<Config> starts;
    for (const Config& c : es.border_start_configs()) {
      long long here = 0;
      for (ta::LocId l : bv) here += es.kappa(c, false, l, 0);
      if (here == es.num_processes()) starts.push_back(c);
    }
    StateGraph g(es, starts, max_states, cancel);
    // Both flags at once: some process in a final location other than D_v.
    if (!initials_win(g, [v](const ta::Location& l) {
          return l.role == ta::LocRole::kFinal && !(l.decision && l.value == v)
                     ? 3
                     : 0;
        })) {
      return false;
    }
  }
  return true;
}

}  // namespace ctaver::cs
