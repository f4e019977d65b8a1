// Tests for the explicit counter-system semantics: action application,
// initial configurations, state-graph analyses, and the Theorem-1
// round-rigid reordering on randomized schedules.
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "cs/explicit_system.h"
#include "cs/schedule.h"
#include "cs/state_graph.h"
#include "frontend/registry.h"
#include "obs/metrics.h"
#include "ta/builder.h"
#include "ta/transforms.h"
#include "verify/pipeline.h"

namespace ctaver::cs {
namespace {

using ta::LocId;
using ta::ParamId;
using ta::SystemBuilder;
using ta::VarId;

// Naive voting (Fig. 2/3): agreement breaks exactly when f >= 1.
ta::System naive_voting() {
  SystemBuilder b("NaiveVoting");
  ParamId n = b.param("n");
  ParamId f = b.param("f");
  b.require(b.P(n) - b.P(f) * 2, ta::CmpOp::kGt);
  b.require(b.P(f), ta::CmpOp::kGe);
  b.model_counts(b.P(n) - b.P(f), SystemBuilder::K(0));
  VarId v0 = b.shared("v0");
  VarId v1 = b.shared("v1");
  LocId j0 = b.border("J0", 0), j1 = b.border("J1", 1);
  LocId i0 = b.initial("I0", 0), i1 = b.initial("I1", 1);
  LocId s = b.internal("S");
  LocId d0 = b.final_loc("D0", 0, true), d1 = b.final_loc("D1", 1, true);
  b.border_entry(j0, i0);
  b.border_entry(j1, i1);
  b.rule("r1", i0, s, {}, {{v0, 1}});
  b.rule("r2", i1, s, {}, {{v1, 1}});
  b.rule("r3", s, d0, {b.ge({{v0, 2}}, b.P("n") - b.P("f") * 2 + b.K(1))});
  b.rule("r4", s, d1, {b.ge({{v1, 2}}, b.P("n") - b.P("f") * 2 + b.K(1))});
  b.round_switch(d0, j0);
  b.round_switch(d1, j1);
  return b.build();
}

// Coin-adoption system from ta_model_test: every process adopts the coin.
ta::System mini_coin_system() {
  SystemBuilder b("MiniCoin");
  ParamId n = b.param("n");
  ParamId f = b.param("f");
  b.require(b.P(n) - b.P(f) * 3, ta::CmpOp::kGt);
  b.model_counts(b.P(n) - b.P(f), SystemBuilder::K(1));
  VarId cc0 = b.coin_var("cc0");
  VarId cc1 = b.coin_var("cc1");
  LocId j0 = b.border("J0", 0), j1 = b.border("J1", 1);
  LocId i0 = b.initial("I0", 0), i1 = b.initial("I1", 1);
  LocId e0 = b.final_loc("E0", 0), e1 = b.final_loc("E1", 1);
  b.border_entry(j0, i0);
  b.border_entry(j1, i1);
  b.rule("adopt0_from0", i0, e0, {b.coin_is(cc0)});
  b.rule("adopt1_from0", i0, e1, {b.coin_is(cc1)});
  b.rule("adopt0_from1", i1, e0, {b.coin_is(cc0)});
  b.rule("adopt1_from1", i1, e1, {b.coin_is(cc1)});
  b.round_switch(e0, j0);
  b.round_switch(e1, j1);
  LocId j2 = b.coin_border("J2");
  LocId i2 = b.coin_initial("I2");
  LocId n0 = b.coin_internal("N0");
  LocId n1 = b.coin_internal("N1");
  LocId c0 = b.coin_final("C0", 0);
  LocId c1 = b.coin_final("C1", 1);
  b.coin_border_entry(j2, i2);
  b.coin_prob_rule("rb", i2, ta::Distribution::uniform2(n0, n1), {});
  b.coin_rule("rc", n0, c0, {}, {{cc0, 1}});
  b.coin_rule("rd", n1, c1, {}, {{cc1, 1}});
  b.coin_round_switch(c0, j2);
  b.coin_round_switch(c1, j2);
  return b.build();
}

TEST(ExplicitSystem, RejectsInadmissibleParams) {
  ta::System sys = naive_voting();
  EXPECT_THROW(ExplicitSystem(sys, {4, 2}, 1), std::invalid_argument);
  EXPECT_THROW(ExplicitSystem(sys, {4, 1}, 0), std::invalid_argument);
  EXPECT_NO_THROW(ExplicitSystem(sys, {4, 1}, 1));
}

TEST(ExplicitSystem, InitialConfigsEnumerateSplits) {
  ta::System sys = naive_voting();
  ExplicitSystem es(sys, {4, 1}, 1);  // 3 correct processes, 2 initial locs
  EXPECT_EQ(es.num_processes(), 3);
  EXPECT_EQ(es.num_coins(), 0);
  // Splits of 3 over {I0, I1}: 4 configurations.
  EXPECT_EQ(es.initial_configs().size(), 4u);
  // Splits over borders {J0, J1}: likewise 4.
  EXPECT_EQ(es.border_start_configs().size(), 4u);
}

TEST(ExplicitSystem, CoinSplitsMultiply) {
  ta::System sys = mini_coin_system();
  ExplicitSystem es(sys, {4, 1}, 1);  // 3 processes, 1 coin, 1 coin initial
  EXPECT_EQ(es.num_coins(), 1);
  EXPECT_EQ(es.initial_configs().size(), 4u);  // coin always at I2
}

TEST(ExplicitSystem, ApplyMovesCountersAndVariables) {
  ta::System sys = naive_voting();
  ExplicitSystem es(sys, {4, 1}, 1);
  Config c = es.initial_configs()[0];  // some split; find all-at-I0 config
  for (const Config& cand : es.initial_configs()) {
    if (es.kappa(cand, false, sys.process.find_loc("I0"), 0) == 3) c = cand;
  }
  Action r1{false, sys.process.find_rule("r1"), 0};
  ASSERT_TRUE(es.applicable(c, r1));
  Config c2 = es.apply_outcome(c, r1, 0);
  EXPECT_EQ(es.kappa(c2, false, sys.process.find_loc("I0"), 0), 2);
  EXPECT_EQ(es.kappa(c2, false, sys.process.find_loc("S"), 0), 1);
  EXPECT_EQ(es.var(c2, sys.find_var("v0"), 0), 1);
  // r3 needs 2*v0 >= n+1-2f = 3, i.e. v0 >= 2: locked after one send.
  Action r3{false, sys.process.find_rule("r3"), 0};
  EXPECT_FALSE(es.applicable(c2, r3));
  Config c3 = es.apply_outcome(c2, r1, 0);
  EXPECT_TRUE(es.applicable(c3, r3));
}

TEST(ExplicitSystem, RoundSwitchCrossesRounds) {
  ta::System sys = naive_voting();
  ExplicitSystem es(sys, {4, 0}, 2);
  // Drive one process to D0 with f=0: need 2*v0 >= 5, v0 >= 3 (yes, /2
  // rounded: 2*v0 >= n+1 = 5 -> v0 >= 3).
  Config c = es.empty_config();
  c.kappa[static_cast<std::size_t>(
      es.gloc(false, sys.process.find_loc("D0")))] = 1;
  Action sw{false, sys.process.find_rule("switch_D0"), 0};
  ASSERT_TRUE(es.applicable(c, sw));
  Config c2 = es.apply_outcome(c, sw, 0);
  EXPECT_EQ(es.kappa(c2, false, sys.process.find_loc("D0"), 0), 0);
  EXPECT_EQ(es.kappa(c2, false, sys.process.find_loc("J0"), 1), 1);
  // In a 1-round system the switch is truncated.
  ExplicitSystem es1(sys, {4, 0}, 1);
  EXPECT_FALSE(es1.applicable(c, sw));
}

TEST(ExplicitSystem, SelfLoopsAreSkipped) {
  ta::System rd = ta::single_round(naive_voting());
  ExplicitSystem es(rd, {4, 1}, 1);
  // A config with everyone at a border copy must be terminal.
  Config c = es.empty_config();
  c.kappa[static_cast<std::size_t>(
      es.gloc(false, rd.process.find_loc("J0'")))] = 3;
  EXPECT_TRUE(es.terminal(c));
  EXPECT_TRUE(es.applicable_actions(c, /*include_self_loops=*/true).size() >
              0u);
}

TEST(ExplicitSystem, ProbabilisticRuleHasTwoOutcomes) {
  ta::System sys = mini_coin_system();
  ExplicitSystem es(sys, {4, 1}, 1);
  Config c = es.empty_config();
  c.kappa[static_cast<std::size_t>(es.gloc(true, sys.coin.find_loc("I2")))] =
      1;
  Action toss{true, sys.coin.find_rule("rb"), 0};
  ASSERT_TRUE(es.applicable(c, toss));
  // One branch per support point of the fair coin; probabilities stay on
  // the rule (the analyses read only the support).
  const ta::Rule& rb = sys.coin.rules[static_cast<std::size_t>(toss.rule)];
  ASSERT_EQ(es.move(toss).dst.size(), 2u);
  EXPECT_EQ(rb.to.outcomes[0].second, util::Rational(1, 2));
  EXPECT_EQ(rb.to.outcomes[1].second, util::Rational(1, 2));
  Config heads = es.apply_outcome(c, toss, 0);
  Config tails = es.apply_outcome(c, toss, 1);
  EXPECT_EQ(es.kappa(heads, true, sys.coin.find_loc("N0"), 0), 1);
  EXPECT_EQ(es.kappa(tails, true, sys.coin.find_loc("N1"), 0), 1);
  EXPECT_EQ(es.kappa(tails, true, sys.coin.find_loc("I2"), 0), 0);
}

// ---------------------------------------------------------------------------
// State-graph analyses on the single-round naive voting system.
// ---------------------------------------------------------------------------

struct Reached {
  const ExplicitSystem* es;
  LocId loc;
  bool coin = false;
  bool operator()(const Config& c) const {
    return es->kappa(c, coin, loc, 0) > 0;
  }
};

TEST(StateGraph, NaiveVotingAgreementCEWithByzantine) {
  ta::System rd = ta::single_round(naive_voting());
  ExplicitSystem es(rd, {5, 2}, 1);  // n=5, f=2: 3 correct, thresholds 2*v>=2
  StateGraph g(es, es.border_start_configs());
  LocId d0 = rd.process.find_loc("D0");
  LocId d1 = rd.process.find_loc("D1");
  // Byzantine votes let both D0 and D1 be entered: the agreement round
  // invariant (Inv1) fails.
  bool ce = g.eventually_then(Reached{&es, d0},
                              [&](const Config& c) {
                                return es.kappa(c, false, d1, 0) > 0;
                              });
  EXPECT_TRUE(ce);
}

TEST(StateGraph, NaiveVotingAgreementHoldsWithoutByzantine) {
  ta::System rd = ta::single_round(naive_voting());
  ExplicitSystem es(rd, {3, 0}, 1);  // 3 correct, no Byzantine
  StateGraph g(es, es.border_start_configs());
  LocId d0 = rd.process.find_loc("D0");
  LocId d1 = rd.process.find_loc("D1");
  bool ce = g.eventually_then(Reached{&es, d0},
                              [&](const Config& c) {
                                return es.kappa(c, false, d1, 0) > 0;
                              });
  EXPECT_FALSE(ce);
  // Symmetric direction.
  bool ce2 = g.eventually_then(Reached{&es, d1},
                               [&](const Config& c) {
                                 return es.kappa(c, false, d0, 0) > 0;
                               });
  EXPECT_FALSE(ce2);
}

TEST(StateGraph, ValidityHoldsOnNaiveVoting) {
  // All correct start with 0 => nobody decides 1, even with Byzantine f=1:
  // 2*(v1 + f) >= n+1 needs v1 >= (n+1-2f)/2 = 3/2 at n=4,f=1, but v1 = 0.
  ta::System rd = ta::single_round(naive_voting());
  ExplicitSystem es(rd, {4, 1}, 1);
  LocId j0 = rd.process.find_loc("J0");
  std::vector<Config> all0;
  for (const Config& c : es.border_start_configs()) {
    if (es.kappa(c, false, j0, 0) == es.num_processes()) all0.push_back(c);
  }
  ASSERT_EQ(all0.size(), 1u);
  StateGraph g(es, all0);
  LocId d1 = rd.process.find_loc("D1");
  EXPECT_FALSE(g.some_reachable(Reached{&es, d1}));
}

TEST(StateGraph, CoinAdoptionTerminatesWithAgreement) {
  ta::System rd = ta::single_round(mini_coin_system());
  ExplicitSystem es(rd, {4, 1}, 1);
  StateGraph g(es, es.border_start_configs());
  LocId e0 = rd.process.find_loc("E0");
  LocId e1 = rd.process.find_loc("E1");
  LocId j0p = rd.process.find_loc("J0'");
  LocId j1p = rd.process.find_loc("J1'");
  // Target: all processes ended the round (E_v or past it, at B'_v) and all
  // with the same value.
  auto same_value = [&](const Config& c) {
    long long ended0 =
        es.kappa(c, false, e0, 0) + es.kappa(c, false, j0p, 0);
    long long ended1 =
        es.kappa(c, false, e1, 0) + es.kappa(c, false, j1p, 0);
    if (ended0 > 0 && ended1 > 0) return false;
    return ended0 + ended1 == es.num_processes();
  };
  std::vector<bool> target = g.mark(same_value);
  std::vector<bool> avoid = g.can_avoid(target);
  // The coin value is adopted by everyone, so every fair maximal path ends
  // with all processes agreeing: no initial state can avoid the target.
  for (std::size_t s : g.initial_states()) EXPECT_FALSE(avoid[s]);
}

TEST(StateGraph, ForallAdversaryExistsSafeOnCoinAdoption) {
  // (C1)-style check: whatever the adversary does, some coin outcome lets
  // every process end with the same value; "bad" = both E0 and E1 occupied.
  ta::System rd = ta::single_round(mini_coin_system());
  ExplicitSystem es(rd, {4, 1}, 1);
  StateGraph g(es, es.border_start_configs());
  LocId e0 = rd.process.find_loc("E0");
  LocId e1 = rd.process.find_loc("E1");
  auto bad = g.mark([&](const Config& c) {
    return es.kappa(c, false, e0, 0) > 0 && es.kappa(c, false, e1, 0) > 0;
  });
  auto win = g.forall_adversary_exists_safe(bad);
  for (std::size_t s : g.initial_states()) EXPECT_TRUE(win[s]);
}

TEST(StateGraph, DeepScheduleGameRunsOnADefaultStack) {
  // One border→final rule and ~200k processes: the C1 game's plays are
  // 200k moves deep. A solver recursing along plays overflows a default
  // thread stack here (SIGSEGV, which no containment can catch); the
  // worklist solver must not.
  ta::System rd = naive_voting();
  ta::Automaton chain;
  chain.locations = {{"J0", ta::LocRole::kBorder, 0, false},
                     {"D0", ta::LocRole::kFinal, 0, true}};
  ta::Rule go;
  go.name = "go";
  go.from = 0;
  go.to = ta::Distribution::dirac(1);
  go.update.assign(rd.vars.size(), 0);
  chain.rules = {go};
  rd.process = chain;
  const long long n = 200'001;  // f = 0: n modeled processes
  bool holds = false;
  std::thread worker(
      [&] { holds = check_c1_instance(rd, {n, 0}, 2'000'000, nullptr); });
  worker.join();
  EXPECT_TRUE(holds);  // only F_0 exists, so one side stays untouched
  ExplicitSystem es(rd, {n, 0}, 1);
  StateGraph g(es, es.border_start_configs());
  EXPECT_EQ(g.num_states(), static_cast<std::size_t>(n + 1));
  EXPECT_EQ(g.lane(g.num_states() - 1, es.gloc(false, 1)), n);
  // The state budget is a typed cut.
  EXPECT_THROW(check_c1_instance(rd, {n, 0}, 1000, nullptr),
               StateBudgetExceeded);
}

TEST(StateGraph, CountersMatchTheSweptGraphs) {
  // cs.states / cs.edges / cs.outcomes equal the totals of the graphs the
  // NaiveVoting sweep builds: one C1 graph and two C2' graphs per instance
  // (C2' holds on every instance, so no value is skipped).
  const protocols::ProtocolModel pm = frontend::builtin("NaiveVoting");
  obs::Registry::global().set_enabled(true);
  obs::Registry::global().reset();
  verify::Options opts;
  opts.jobs = 1;
  opts.only_obligations = {"C1", "C2'"};
  verify::ProtocolReport r = verify::verify_protocol(pm, opts);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  obs::Registry::global().set_enabled(false);
  obs::Registry::global().reset();
  ASSERT_EQ(r.termination.obligations.size(), 2u);
  ASSERT_TRUE(r.termination.obligations[1].holds);

  ta::System rd = ta::single_round(pm.system);
  std::uint64_t states = 0, edges = 0, outcomes = 0, bytes = 0;
  auto tally = [&](const ExplicitSystem& es, const std::vector<Config>& c) {
    StateGraph g(es, c);
    states += g.num_states();
    bytes = std::max<std::uint64_t>(bytes, g.bytes());
    for (std::size_t s = 0; s < g.num_states(); ++s) {
      for (const StateGraph::Edge& e : g.edges(s)) {
        ++edges;
        outcomes += e.outcomes.size();
      }
    }
  };
  for (const std::vector<long long>& params : pm.sweep_params) {
    ExplicitSystem es(rd, params, 1);
    tally(es, es.border_start_configs());
    for (int v : {0, 1}) {
      std::vector<Config> starts;
      for (const Config& c : es.border_start_configs()) {
        long long here = 0;
        for (LocId l : rd.process.locs_with(ta::LocRole::kBorder, v)) {
          here += es.kappa(c, false, l, 0);
        }
        if (here == es.num_processes()) starts.push_back(c);
      }
      tally(es, starts);
    }
  }
  EXPECT_GT(states, 0u);
  EXPECT_EQ(snap.counter("cs.states"), states);
  EXPECT_EQ(snap.counter("cs.edges"), edges);
  EXPECT_EQ(snap.counter("cs.outcomes"), outcomes);
  std::uint64_t graph_bytes = 0;
  for (const auto& [name, v] : snap.gauges) {
    if (name == "cs.graph_bytes") graph_bytes = v;
  }
  EXPECT_GE(graph_bytes, bytes);
}

// ---------------------------------------------------------------------------
// Theorem 1: random multi-round schedules reorder to round-rigid ones.
// ---------------------------------------------------------------------------

class ReorderProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReorderProperty, RoundRigidReorderPreservesEverything) {
  ta::System sys = mini_coin_system();
  ExplicitSystem es(sys, {4, 1}, 3);
  std::mt19937 rng(GetParam());
  Config c0 = es.initial_configs()[static_cast<std::size_t>(rng()) %
                                   es.initial_configs().size()];
  // Random walk.
  Schedule tau;
  Config c = c0;
  for (int step = 0; step < 40; ++step) {
    auto actions = es.applicable_actions(c);
    if (actions.empty()) break;
    Action a = actions[static_cast<std::size_t>(rng()) % actions.size()];
    const ta::Rule& r = (a.coin ? sys.coin : sys.process)
                            .rules[static_cast<std::size_t>(a.rule)];
    int outcome = static_cast<int>(rng() % r.to.outcomes.size());
    tau.push_back({a, outcome});
    c = es.apply_outcome(c, a, outcome);
  }
  Schedule rigid = round_rigid_reorder(tau);
  EXPECT_TRUE(is_round_rigid(rigid));
  ASSERT_TRUE(schedule_applicable(es, c0, rigid));
  // Same final configuration.
  EXPECT_EQ(apply_schedule(es, c0, rigid), c);
  // Stutter equivalence per round.
  auto path_a = path_configs(es, c0, tau);
  auto path_b = path_configs(es, c0, rigid);
  for (int k = 0; k < es.rounds(); ++k) {
    EXPECT_TRUE(stutter_equivalent(ap_trace(es, path_a, k),
                                   ap_trace(es, path_b, k)))
        << "round " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderProperty,
                         ::testing::Range(0u, 20u));

}  // namespace
}  // namespace ctaver::cs
