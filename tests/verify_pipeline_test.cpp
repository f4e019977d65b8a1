// Integration tests for the verification pipeline (src/verify): category
// (A)/(B) protocols verify end-to-end; report aggregation and Table-II
// formatting behave; the C1/C2' instance games give the expected verdicts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "frontend/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocols/protocols.h"
#include "verify/pipeline.h"

namespace ctaver::verify {
namespace {

Options fast_options() {
  Options opts;
  opts.schema.time_budget_s = 120.0;
  return opts;
}

TEST(Pipeline, Cc85aFullyVerifies) {
  ProtocolReport r = verify_protocol(frontend::builtin("CC85a"), fast_options());
  EXPECT_TRUE(r.agreement.holds());
  EXPECT_TRUE(r.validity.holds());
  EXPECT_TRUE(r.termination.holds());
  EXPECT_FALSE(r.agreement.inconclusive());
  // Agreement/validity come from the parametric checker.
  for (const Obligation& o : r.agreement.obligations) {
    EXPECT_TRUE(o.parametric);
    EXPECT_TRUE(o.complete);
    EXPECT_GT(o.nschemas, 0);
  }
  // Category (B) termination: the two instance sweeps.
  ASSERT_EQ(r.termination.obligations.size(), 2u);
  EXPECT_EQ(r.termination.obligations[0].name, "C1");
  EXPECT_EQ(r.termination.obligations[1].name, "C2'");
  for (const Obligation& o : r.termination.obligations) {
    EXPECT_FALSE(o.parametric);
    EXPECT_TRUE(o.holds);
    EXPECT_NE(o.detail.find("instances"), std::string::npos);
    EXPECT_EQ(o.detail.find("FAIL"), std::string::npos);
  }
}

TEST(Pipeline, Rabin83CategoryAVerifies) {
  ProtocolReport r = verify_protocol(frontend::builtin("Rabin83"), fast_options());
  EXPECT_EQ(r.category, protocols::Category::kA);
  EXPECT_TRUE(r.validity.holds());
  EXPECT_TRUE(r.termination.holds());
  // Category (A): C2 parametric (two values) + the C1 sweep.
  ASSERT_EQ(r.termination.obligations.size(), 3u);
  EXPECT_TRUE(r.termination.obligations[0].parametric);
  EXPECT_TRUE(r.termination.obligations[1].parametric);
  EXPECT_FALSE(r.termination.obligations[2].parametric);
}

TEST(Pipeline, Fmr05AndCc85bVerify) {
  for (const char* name : {"FMR05", "CC85b"}) {
    ProtocolReport r = verify_protocol(frontend::builtin(name), fast_options());
    EXPECT_TRUE(r.agreement.holds()) << r.protocol;
    EXPECT_TRUE(r.validity.holds()) << r.protocol;
    EXPECT_TRUE(r.termination.holds()) << r.protocol;
  }
}

TEST(Pipeline, Ks16Verifies) {
  ProtocolReport r = verify_protocol(frontend::builtin("KS16"), fast_options());
  EXPECT_TRUE(r.agreement.holds());
  EXPECT_TRUE(r.validity.holds());
  EXPECT_TRUE(r.termination.holds());
}

TEST(Pipeline, TableFormatting) {
  ProtocolReport r = verify_protocol(frontend::builtin("CC85a"), fast_options());
  std::string header = table2_header();
  std::string row = table2_row(r);
  EXPECT_NE(header.find("nschemas"), std::string::npos);
  EXPECT_NE(row.find("CC85a"), std::string::npos);
  EXPECT_NE(row.find("(B)"), std::string::npos);
  EXPECT_NE(row.find("verified"), std::string::npos);
}

TEST(Pipeline, BudgetLimitedVerdictIsNotCE) {
  Options opts;
  opts.schema.max_schemas = 1;  // everything inconclusive
  opts.run_sweeps = false;
  ProtocolReport r = verify_protocol(frontend::builtin("CC85a"), opts);
  EXPECT_FALSE(r.agreement.holds());
  EXPECT_FALSE(r.agreement.has_counterexample());
  EXPECT_TRUE(r.agreement.inconclusive());
  EXPECT_NE(table2_row(r).find("budget-limited"), std::string::npos);
}

TEST(Pipeline, StateBudgetIsACutNotAnError) {
  // A sweep instance whose graph outgrows max_states is inconclusive with
  // reason "states" (exit 1), never a contained ERROR (exit 3) or a FAIL.
  Options opts = fast_options();
  opts.max_states = 1000;
  opts.only_obligations = {"C1", "C2'"};
  ProtocolReport r = verify_protocol(frontend::builtin("CC85b"), opts);
  ASSERT_EQ(r.termination.obligations.size(), 2u);
  for (const Obligation& o : r.termination.obligations) {
    EXPECT_FALSE(o.holds) << o.name;
    EXPECT_FALSE(o.complete) << o.name;
    EXPECT_FALSE(o.error.has_value()) << o.name;
    EXPECT_TRUE(o.ce.empty()) << o.name;
    EXPECT_EQ(o.run_state, Obligation::RunState::kCancelled) << o.name;
    EXPECT_EQ(o.cut_reason, "states") << o.name;
    EXPECT_NE(o.detail.find("=SKIP"), std::string::npos) << o.detail;
    EXPECT_EQ(obligation_line(o),
              o.name + ": FAIL [sweep, budget-limited (reason=states)]");
  }
  EXPECT_TRUE(r.termination.inconclusive());
  EXPECT_FALSE(r.termination.has_error());
  EXPECT_NE(table2_row(r).find("budget-limited"), std::string::npos);
}

TEST(Pipeline, PropertyResultAggregation) {
  PropertyResult pr;
  EXPECT_FALSE(pr.holds());  // no obligations -> nothing proved
  Obligation a;
  a.name = "x";
  a.holds = true;
  a.nschemas = 5;
  a.seconds = 0.5;
  pr.obligations.push_back(a);
  Obligation b = a;
  b.holds = false;
  b.ce = "ce";
  b.detail = "instances (3,1)=FAIL";
  b.nschemas = 7;
  pr.obligations.push_back(b);
  EXPECT_FALSE(pr.holds());
  EXPECT_TRUE(pr.has_counterexample());
  EXPECT_FALSE(pr.inconclusive());
  EXPECT_EQ(pr.nschemas(), 12);
  EXPECT_NEAR(pr.seconds(), 1.0, 1e-9);
  EXPECT_EQ(pr.failure(), "x: ce");
}

/// The Table-II row with its wall-clock columns (fields 6, 8, 10) struck —
/// the same strip CI's awk applies before diffing traced vs untraced runs.
std::string row_sans_times(const ProtocolReport& r) {
  std::istringstream is(table2_row(r));
  std::ostringstream os;
  std::string field;
  for (int i = 1; is >> field; ++i) {
    if (i == 6 || i == 8 || i == 10) continue;
    os << field << " ";
  }
  return os.str();
}

/// Every report field the byte-identity contract covers (everything except
/// wall-clock seconds and the scheduling-dependent run_state).
std::string render(const ProtocolReport& r) {
  std::ostringstream os;
  os << r.protocol << "\n";
  for (const PropertyResult* p :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const Obligation& o : p->obligations) {
      os << o.name << " holds=" << o.holds << " parametric=" << o.parametric
         << " complete=" << o.complete << " nschemas=" << o.nschemas
         << " ce=" << o.ce << " detail=" << o.detail << "\n";
    }
  }
  os << row_sans_times(r) << "\n";
  return os.str();
}

TEST(Pipeline, ObservabilityIsOutOfBand) {
  // The hard contract of the obs layer: enabling metrics + tracing changes
  // no rendered report field, at every (jobs x workers) combination. Runs
  // complete well within budget here, so the renders must be byte-equal.
  const protocols::ProtocolModel pm = frontend::builtin("CC85a");
  const int widths[] = {1, 2, 8};

  auto run_grid = [&] {
    std::vector<std::string> renders;
    for (int jobs : widths) {
      for (int workers : widths) {
        Options opts = fast_options();
        opts.jobs = jobs;
        opts.schema.workers = workers;
        renders.push_back(render(verify_protocol(pm, opts)));
      }
    }
    return renders;
  };

  obs::Registry::global().set_enabled(false);
  obs::Tracer::global().disable();
  const std::vector<std::string> plain = run_grid();

  obs::Registry::global().set_enabled(true);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  obs::Tracer::global().enable();
  const std::vector<std::string> observed = run_grid();

  obs::Registry::global().set_enabled(false);
  obs::Tracer::global().disable();

  for (std::size_t i = 1; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], plain[0]) << "jobs x workers combo " << i;
  }
  for (std::size_t i = 0; i < observed.size(); ++i) {
    EXPECT_EQ(observed[i], plain[0]) << "obs-on combo " << i;
  }

  // And the observed runs actually recorded something (the test would pass
  // vacuously if the instrumentation were disconnected).
  EXPECT_GT(obs::Registry::global().counter_total(
                obs::Counter::kVerifyTasksDone),
            0u);
  EXPECT_FALSE(obs::Tracer::global().events().empty());
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
}

TEST(Pipeline, FailedObligationWithDetailOnlyIsInconclusive) {
  // Sweep obligations always carry instance tags in `detail`; a failed one
  // whose `ce` is empty must read as budget-limited, not as a refutation.
  PropertyResult pr;
  Obligation o;
  o.name = "C1";
  o.holds = false;
  o.complete = false;
  o.detail = "instances (3,1)=SKIP (5,2)=SKIP";
  pr.obligations.push_back(o);
  EXPECT_FALSE(pr.holds());
  EXPECT_FALSE(pr.has_counterexample());
  EXPECT_TRUE(pr.inconclusive());
  EXPECT_EQ(pr.failure(), "");
}

}  // namespace
}  // namespace ctaver::verify
