// End-to-end verification benchmark harness (see README.md beside this file).
//
//   bench_e2e --workload sweeps_ab|schema_c|service_mix --seed N --seconds S
//             --trace 0|1 --repo DIR --work-dir DIR [--trace-out FILE]
//
// Runs one workload in this (fresh) process, checks every verdict against
// expected_verdicts.json, and prints one JSON object as its last stdout line:
// correct / attempted / failed, the metrics (end-to-end with --trace 0,
// per-layer with --trace 1), the exact counts for run.py's cross-run check,
// and diagnostics. Every layer is timed from outside, around calls into the
// library's public functions; nothing under src/ is instrumented for this.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cs/explicit_system.h"
#include "cs/state_graph.h"
#include "frontend/lower.h"
#include "frontend/parser.h"
#include "frontend/registry.h"
#include "obs/metrics.h"
#include "replay/replay.h"
#include "spec/spec.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/json.h"
#include "svc/proof_cache.h"
#include "svc/server.h"
#include "ta/transforms.h"
#include "util/thread_pool.h"
#include "verify/pipeline.h"

namespace {

using namespace ctaver;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Proving threads (jobs x workers). On a shared 4-CPU host, 4 threads measured
// the neighbours more than the program (README.md, "Load shape").
constexpr int kThreads = 2;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string json_str(const std::string& s) {
  return "\"" + obs::json_escape(s) + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// [a,b,...] of raw JSON values.
std::string json_array(const std::vector<std::string>& raw) {
  std::string out = "[";
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (i > 0) out += ",";
    out += raw[i];
  }
  return out + "]";
}

/// {"k":v,...} of raw JSON values.
std::string json_object(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::vector<std::string> items;
  for (const auto& [k, v] : kv) items.push_back(json_str(k) + ":" + v);
  std::string arr = json_array(items);
  return "{" + arr.substr(1, arr.size() - 2) + "}";
}

// --- statistics ----------------------------------------------------------

/// Linear-interpolation quantile (numpy's default); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }


// --- span recorder -------------------------------------------------------

/// Benchmark-side spans, written as Chrome trace-event JSON (the format
/// `ctaver --trace` writes, so Perfetto opens both). All spans are recorded
/// on the harness thread; nesting is by time containment, and a layer's self
/// time is its span's duration minus what its direct children cover.
class Spans {
 public:
  Spans() : t0_(Clock::now()) {}

  /// Untraced passes of a traced run record nothing.
  void set_on(bool on) { on_ = on; }

  /// Records [a, b) under `name` (a no-op when tracing is off); returns the
  /// span's seconds either way.
  double add(const std::string& name, Clock::time_point a, Clock::time_point b,
             const std::string& args = "") {
    if (on_) evs_.push_back({name, ns(a), ns(b) - ns(a), args});
    return secs(a, b);
  }

  /// Runs f() inside a span named `name`; returns its seconds.
  template <class F>
  double time(const std::string& name, F&& f, const std::string& args = "") {
    Clock::time_point a = Clock::now();
    f();
    return add(name, a, Clock::now(), args);
  }

  /// Self seconds summed per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<std::size_t> order(evs_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      if (evs_[x].start != evs_[y].start) return evs_[x].start < evs_[y].start;
      return evs_[x].dur > evs_[y].dur;
    });
    std::vector<std::int64_t> covered(evs_.size(), 0);
    std::vector<std::size_t> stack;
    for (std::size_t i : order) {
      while (!stack.empty() &&
             evs_[stack.back()].start + evs_[stack.back()].dur <=
                 evs_[i].start) {
        stack.pop_back();
      }
      if (!stack.empty()) covered[stack.back()] += evs_[i].dur;
      stack.push_back(i);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < evs_.size(); ++i) {
      out[evs_[i].name] += static_cast<double>(evs_[i].dur - covered[i]) * 1e-9;
    }
    return out;
  }

  [[nodiscard]] std::string chrome_json() const {
    std::ostringstream os;
    os << "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
          "\"tid\":1,\"args\":{\"name\":\"bench_e2e\"}}";
    for (const Ev& e : evs_) {
      os << ",\n{\"name\":" << json_str(e.name) << ",\"cat\":\"bench_e2e\","
         << "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << num(e.start / 1e3)
         << ",\"dur\":" << num(e.dur / 1e3);
      if (!e.args.empty()) os << ",\"args\":{" << e.args << "}";
      os << "}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return os.str();
  }

 private:
  struct Ev {
    std::string name;
    std::int64_t start;
    std::int64_t dur;
    std::string args;
  };
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_)
        .count();
  }

  bool on_ = false;
  Clock::time_point t0_;
  std::vector<Ev> evs_;
};

// --- expectations ----------------------------------------------------------

/// expected_verdicts.json: per protocol, obligation -> "ok" | "FAIL", plus the
/// obligations whose counterexample replay must be confirmed.
struct Expectations {
  std::map<std::string, std::map<std::string, std::string>> verdicts;
  std::map<std::string, std::vector<std::string>> replay_confirmed;

  static Expectations load(const fs::path& path) {
    svc::Json j = svc::Json::parse(read_file(path));
    Expectations e;
    for (const auto& [proto, obls] : j["verdicts"].members()) {
      for (const auto& [name, word] : obls.members()) {
        e.verdicts[proto][name] = word.as_string();
      }
    }
    for (const auto& [proto, arr] : j["replay_confirmed"].members()) {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        e.replay_confirmed[proto].push_back(arr.at(i).as_string());
      }
    }
    return e;
  }

  [[nodiscard]] bool wants_replay(const std::string& proto,
                                  const std::string& obl) const {
    auto it = replay_confirmed.find(proto);
    return it != replay_confirmed.end() &&
           std::find(it->second.begin(), it->second.end(), obl) !=
               it->second.end();
  }
};

/// "ok" / "FAIL" / "ERROR": the verdict word of a rendered obligation line
/// ("<name>: <word> [<kind>...]").
std::string verdict_word(const std::string& line, const std::string& name) {
  std::string rest = line.substr(std::min(line.size(), name.size() + 2));
  return rest.substr(0, rest.find(' '));
}

/// Checks one rendered obligation line against the expectation; returns an
/// empty string when it matches, else what is wrong. A complete verdict
/// renders no run-state suffix after its kind, so "[parametric]" / "[sweep]"
/// must close right after the kind.
std::string check_line(const Expectations& ex, const std::string& proto,
                       const std::string& name, const std::string& line) {
  auto p = ex.verdicts.find(proto);
  if (p == ex.verdicts.end()) return proto + ": no expectation";
  auto o = p->second.find(name);
  if (o == p->second.end()) return proto + " " + name + ": no expectation";
  if (line.rfind(name + ": ", 0) != 0) return "malformed line '" + line + "'";
  std::string word = verdict_word(line, name);
  if (word != o->second) {
    return proto + " " + name + ": got " + word + ", expected " + o->second;
  }
  if (line.find("[parametric]") == std::string::npos &&
      line.find("[sweep]") == std::string::npos) {
    return proto + " " + name + ": incomplete verdict '" + line + "'";
  }
  return "";
}

// --- rendering ---------------------------------------------------------------

std::vector<const verify::Obligation*> obligations(
    const verify::ProtocolReport& r) {
  std::vector<const verify::Obligation*> out;
  for (const verify::PropertyResult* p :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const verify::Obligation& o : p->obligations) out.push_back(&o);
  }
  return out;
}

/// The obligation lines a user reads (the CLI's and the daemon's bytes), plus
/// the Table-II row.
std::vector<std::string> render(const verify::ProtocolReport& r,
                                std::string* row) {
  std::vector<std::string> lines;
  for (const verify::Obligation* o : obligations(r)) {
    lines.push_back(verify::obligation_line(*o));
  }
  *row = verify::table2_row(r);
  return lines;
}

/// Firings count out of a replay summary ("confirmed: 14 firings ...").
long long replay_firings(const std::string& detail) {
  std::size_t at = detail.find(" firings");
  if (at == std::string::npos) return 0;
  std::size_t from = detail.rfind(' ', at - 1);
  from = from == std::string::npos ? 0 : from + 1;
  return std::atoll(detail.substr(from, at - from).c_str());
}

// --- run result ----------------------------------------------------------------

struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;
  /// Counts that must repeat exactly for one seed (run.py compares them
  /// across runs, traced and untraced alike).
  std::map<std::string, long long> counts;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> diag;  // raw JSON values
  bool nondeterminism = false;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& raw_json) {
    diag.emplace_back(key, raw_json);
  }

  /// Every pass of a run does the same work, so its counts must repeat
  /// exactly; a difference is a nondeterminism defect, never noise.
  void pass_counts(const std::map<std::string, long long>& c) {
    if (counts.empty()) {
      counts = c;
      return;
    }
    for (const auto& [k, v] : c) {
      auto it = counts.find(k);
      if (it == counts.end()) {
        counts[k] = v;
      } else if (it->second != v) {
        nondeterminism = true;
        if (errors.size() < 20) {
          errors.push_back("nondeterminism defect: " + k + " was " +
                           std::to_string(it->second) + ", now " +
                           std::to_string(v));
        }
      }
    }
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "{\"correct\":" << (failed == 0 && !nondeterminism ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      os << (i ? "," : "") << json_str(metrics[i].first) << ":{\"value\":"
         << num(metrics[i].second.first)
         << ",\"unit\":" << json_str(metrics[i].second.second) << "}";
    }
    os << "},\"counts\":{";
    bool first = true;
    for (const auto& [k, v] : counts) {
      os << (first ? "" : ",") << json_str(k) << ":" << v;
      first = false;
    }
    os << "},\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      os << (i ? "," : "") << json_str(errors[i]);
    }
    os << "],\"diag\":{";
    for (std::size_t i = 0; i < diag.size(); ++i) {
      os << (i ? "," : "") << json_str(diag[i].first) << ":" << diag[i].second;
    }
    os << "}}";
    return os.str();
  }
};

/// The per-layer metrics every traced run prints, in BENCHMARK.json order.
/// A layer that does no work on a workload reads 0 there (README.md lists
/// which layer is measured on which workload).
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"cs.build_ms", "ms"},
      {"cs.game_ms", "ms"},
      {"cs.states", "count"},
      {"cs.edges", "count"},
      {"cs.outcomes", "count"},
      {"cs.states_per_s", "1/s"},
      {"cs.max_instance_states", "count"},
      {"schema.ms", "ms"},
      {"schema.schemas", "count"},
      {"schema.queries", "count"},
      {"schema.schemas_per_s", "1/s"},
      {"lia.ms", "ms"},
      {"lia.checks", "count"},
      {"lia.pivots", "count"},
      {"lia.pivots_per_query", "ratio"},
      {"replay.ms", "ms"},
      {"replay.firings", "count"},
      {"frontend.parse_us", "us"},
      {"frontend.lower_us", "us"},
      {"verify.plan_us", "us"},
      {"verify.render_us", "us"},
      {"verify.unattributed_share", "share"},
      {"svc.cache.lookup_us", "us"},
      {"svc.cache.store_us", "us"},
      {"svc.cache.hit_ratio", "share"},
      {"svc.journal.append_us", "us"},
      {"svc.journal.appends_per_submit", "count"},
      {"svc.edit_write_share", "share"},
      {"svc.wire_us", "us"},
      {"pool.cpu_s", "s"},
      {"pool.busy_share", "share"},
      {"pool.longest_task_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.overhead_share", "share"},
  };
  return m;
}

/// Emits every layer metric, taking values from `v` and 0 for the rest.
void emit_layers(Result& res, const std::map<std::string, double>& v) {
  for (const auto& [name, unit] : layer_metrics()) {
    auto it = v.find(name);
    res.metric(name, it == v.end() ? 0.0 : it->second, unit);
  }
}

// --- layer probes (traced runs only) ------------------------------------------

struct GraphTally {
  long long states = 0;
  long long edges = 0;
  long long outcomes = 0;
  long long max_states = 0;
  double build_s = 0;
};

/// Rebuilds every swept instance's state graph through the public
/// cs::ExplicitSystem / cs::StateGraph constructors, with the start
/// configurations the pipeline's C1 / C2' checks use, one graph at a time.
/// This is where cs.build_ms and the state/edge/outcome counts come from.
void rebuild_sweeps(const protocols::ProtocolModel& pm,
                    const verify::ProtocolReport& r, Spans& spans,
                    GraphTally& g) {
  ta::System rd_prob = ta::single_round(pm.system);
  const std::size_t kMaxStates = verify::Options{}.max_states;
  auto build = [&](const cs::ExplicitSystem& es,
                   const std::vector<cs::Config>& starts,
                   const std::string& tag) {
    Clock::time_point a = Clock::now();
    auto graph = std::make_unique<cs::StateGraph>(es, starts, kMaxStates);
    Clock::time_point b = Clock::now();
    g.build_s += spans.add("cs.build", a, b,
                           "\"protocol\":" + json_str(pm.name) +
                               ",\"instance\":" + json_str(tag));
    // The benchmark's own walk over the graph, and freeing it, get a span of
    // their own so they do not read as unattributed time.
    spans.time("bench.graph_walk", [&] {
      long long states = static_cast<long long>(graph->num_states());
      g.states += states;
      g.max_states = std::max(g.max_states, states);
      for (std::size_t s = 0; s < graph->num_states(); ++s) {
        for (const cs::StateGraph::Edge& e : graph->edges(s)) {
          ++g.edges;
          g.outcomes += static_cast<long long>(e.outcomes.size());
        }
      }
      graph.reset();
    });
  };
  for (const verify::Obligation& o : r.termination.obligations) {
    if (o.parametric) continue;
    for (const std::vector<long long>& params : pm.sweep_params) {
      cs::ExplicitSystem es(rd_prob, params, 1);
      std::string tag = o.name;
      for (long long p : params) tag.append(" ").append(std::to_string(p));
      if (o.name == "C1") {
        build(es, es.border_start_configs(), tag);
        continue;
      }
      // C2': one graph per value v, from the border start with every
      // modeled process on v.
      for (int v : {0, 1}) {
        std::vector<ta::LocId> bv =
            rd_prob.process.locs_with(ta::LocRole::kBorder, v);
        std::vector<cs::Config> starts;
        for (const cs::Config& c : es.border_start_configs()) {
          long long here = 0;
          for (ta::LocId l : bv) here += es.kappa(c, false, l, 0);
          if (here == es.num_processes()) starts.push_back(c);
        }
        build(es, starts, tag + " v=" + std::to_string(v));
      }
    }
  }
}

/// Replays each schema counterexample of `r` through src/replay from
/// outside, against the system and spec the pipeline plans for that
/// obligation; checks the summary is the one the pipeline rendered.
void replay_counterexamples(const protocols::ProtocolModel& pm,
                            const verify::ProtocolReport& r, Spans& spans,
                            Result& res, double* seconds, long long* firings) {
  std::optional<ta::System> rd, rdr;
  for (const verify::Obligation* o : obligations(r)) {
    if (!o->ce_data) continue;
    const std::string& n = o->name;
    std::optional<spec::Spec> sp;
    const ta::System* sys = nullptr;
    if (n.rfind("CB", 0) == 0) {
      if (!rdr) rdr.emplace(ta::single_round(ta::nonprobabilistic(pm.refined())));
      sys = &*rdr;
      const std::map<std::string, std::pair<std::string, std::string>> cbs = {
          {"CB0", {pm.m0_loc, pm.m1_loc}}, {"CB1", {pm.m1_loc, pm.m0_loc}},
          {"CB2", {pm.n0_loc, pm.m1_loc}}, {"CB3", {pm.n1_loc, pm.m0_loc}},
          {"CB4", {pm.nbot_loc, pm.m0_loc}}};
      auto it = cbs.find(n);
      if (it != cbs.end()) {
        sp = spec::binding(*rdr, n, it->second.first, it->second.second);
        if (n == "CB4") {
          sp->conclusion = spec::LocSet::process(
              {rdr->process.find_loc(pm.m0_loc), rdr->process.find_loc(pm.m1_loc)});
        }
      }
    } else {
      if (!rd) rd.emplace(ta::single_round(ta::nonprobabilistic(pm.system)));
      sys = &*rd;
      for (int v : {0, 1}) {
        std::string sfx = "(v=" + std::to_string(v) + ")";
        if (n == "Inv1" + sfx) sp = spec::inv1(*rd, v);
        if (n == "Inv2" + sfx) sp = spec::inv2(*rd, v);
        if (n == "C2" + sfx) sp = spec::c2(*rd, v);
      }
    }
    if (!sp) {
      res.fail(pm.name + " " + n + ": no public spec builder to replay with");
      continue;
    }
    replay::ReplayReport rr;
    *seconds += spans.time(
        "replay", [&] { rr = replay::replay_counterexample(*sys, *sp, *o->ce_data); },
        "\"protocol\":" + json_str(pm.name) + ",\"obligation\":" + json_str(n));
    *firings += rr.steps;
    if (rr.detail != o->replay) {
      res.fail(pm.name + " " + n + ": replay from outside gave '" + rr.detail +
               "', the pipeline rendered '" + o->replay + "'");
    }
  }
}

// --- workload inputs -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  fs::path repo;
  fs::path work_dir;
  fs::path trace_out;
  fs::path expect;
};

/// One request: the text of a protocol spec plus the obligations asked for
/// (empty = all of them).
struct Request {
  std::string proto;
  std::string file;
  std::string text;
  std::vector<std::string> only;
};

template <class T>
void seeded_shuffle(std::vector<T>& v, std::mt19937_64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng() % i]);
  }
}

/// Obligations a request must return, in the expectation's vocabulary.
std::vector<std::string> expected_names(const Expectations& ex,
                                        const Request& rq) {
  if (!rq.only.empty()) return rq.only;
  std::vector<std::string> out;
  auto it = ex.verdicts.find(rq.proto);
  if (it != ex.verdicts.end()) {
    for (const auto& [name, word] : it->second) out.push_back(name);
  }
  return out;
}

/// Verdict check of one in-process request; counts each expected
/// obligation as attempted and each wrong, missing or unconfirmed one as
/// failed.
void check_report(const Expectations& ex, const Request& rq,
                  const verify::ProtocolReport& r,
                  const std::vector<std::string>& lines, Result& res) {
  std::vector<const verify::Obligation*> obls = obligations(r);
  std::vector<std::string> want = expected_names(ex, rq);
  res.attempted += static_cast<long long>(want.size());
  for (const std::string& name : want) {
    std::size_t i = 0;
    while (i < obls.size() && obls[i]->name != name) ++i;
    if (i == obls.size()) {
      res.fail(rq.proto + " " + name + ": missing from the report");
      continue;
    }
    std::string why = check_line(ex, rq.proto, name, lines[i]);
    if (why.empty() && obls[i]->error) why = rq.proto + " " + name + ": ERROR";
    if (why.empty() && ex.wants_replay(rq.proto, name) && !obls[i]->replay_ok) {
      why = rq.proto + " " + name + ": replay not confirmed ('" +
            obls[i]->replay + "')";
    }
    if (!why.empty()) res.fail(why);
  }
  if (obls.size() != want.size()) {
    res.fail(rq.proto + ": " + std::to_string(obls.size()) +
             " obligations reported, " + std::to_string(want.size()) +
             " expected");
  }
}

/// Prints per-span self time into the diagnostics and writes the Chrome
/// trace (Perfetto opens it beside a `ctaver --trace` file).
void write_trace(const Args& a, const Spans& spans, Result& res) {
  std::vector<std::pair<std::string, std::string>> self;
  for (const auto& [name, s] : spans.self_seconds()) self.emplace_back(name, num(s));
  res.note("span_self_s", json_object(self));
  if (!a.trace_out.empty()) {
    std::ofstream out(a.trace_out);
    out << spans.chrome_json();
    if (!out) res.fail("cannot write " + a.trace_out.string());
  }
}

// --- sweeps_ab and schema_c: in-process requests on one shared pool ------------

struct LayerPass {
  double wall = 0;
  std::map<std::string, double> layers;
};

/// A traced pass switches the library's own metrics registry on ...
void registry_on() {
  obs::Registry::global().reset();
  obs::Registry::global().set_enabled(true);
}

/// ... and reads the solver, schema and pool layers from it at the end.
/// `cpu_s` and `lat_s` are the CPU time and wall latency of the requests.
std::map<std::string, double> registry_layers(double cpu_s, double lat_s) {
  obs::Registry::global().set_enabled(false);
  obs::Snapshot snap = obs::Registry::global().snapshot();
  auto counter = [&](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  double longest_ms = 0;
  for (const auto& [name, h] : snap.histograms) {
    if (name == "verify.obligation_millis") longest_ms = static_cast<double>(h.max);
  }
  std::map<std::string, double> L;
  L["schema.schemas"] = counter("schema.schemas");
  L["schema.queries"] = counter("schema.queries");
  L["lia.ms"] = counter("solver.micros") / 1e3;
  L["lia.checks"] = counter("solver.checks");
  L["lia.pivots"] = counter("solver.pivots");
  L["lia.pivots_per_query"] =
      L["schema.queries"] > 0 ? L["lia.pivots"] / L["schema.queries"] : 0;
  L["pool.cpu_s"] = cpu_s;
  L["pool.busy_share"] =
      lat_s > 0 ? counter("verify.obligation_micros") / 1e6 / (kThreads * lat_s) : 0;
  L["pool.longest_task_s"] = longest_ms / 1e3;
  return L;
}

/// Per-key median over the traced passes.
std::map<std::string, double> median_layers(const std::vector<LayerPass>& ps) {
  std::map<std::string, std::vector<double>> by;
  for (const LayerPass& p : ps) {
    for (const auto& [k, v] : p.layers) by[k].push_back(v);
  }
  std::map<std::string, double> out;
  for (const auto& [k, v] : by) out[k] = median(v);
  return out;
}

std::string seconds_list(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (double x : v) items.push_back(num(x));
  return json_array(items);
}

void run_inprocess(const Args& a, const Expectations& ex, Result& res) {
  const bool sweeps = a.workload == "sweeps_ab";
  std::mt19937_64 rng(a.seed);
  std::vector<Request> reqs;
  if (sweeps) {
    reqs = {{"Rabin83", "rabin83.cta", "", {}},
            {"CC85b", "cc85b.cta", "", {}},
            {"FMR05", "fmr05.cta", "", {}},
            {"KS16", "ks16.cta", "", {}},
            {"NaiveVoting", "naive_voting.cta", "", {}}};
  } else {
    // Two of ABY22's four Inv1/Inv2 obligations (the seed picks the pair;
    // each holds at 29,107 schemas) and MMR14's CB2, whose counterexample
    // is replayed through src/replay.
    const std::vector<std::string> inv = {"Inv1(v=0)", "Inv1(v=1)",
                                          "Inv2(v=0)", "Inv2(v=1)"};
    std::vector<std::pair<int, int>> pairs;
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) pairs.emplace_back(i, j);
    }
    std::pair<int, int> pick = pairs[rng() % pairs.size()];
    reqs = {{"ABY22", "aby22.cta", "", {inv[pick.first], inv[pick.second]}},
            {"MMR14", "mmr14.cta", "", {"CB2"}}};
  }
  seeded_shuffle(reqs, rng);
  std::vector<std::string> order;
  for (const Request& rq : reqs) {
    std::string item = rq.proto;
    for (const std::string& o : rq.only) item.append(" ").append(o);
    order.push_back(json_str(item));
  }
  res.note("requests", json_array(order));

  // Set-up: registry and spec loading. One set-up takes well under a
  // millisecond and its speed follows the shared host from one second to the
  // next, so each sample times a block of set-ups (~20 ms), the samples are
  // taken in slots before the first pass and after every pass (outside the
  // pass walls), and setup_s is the median sample divided by the block size.
  std::vector<double> setup;
  const int samples = a.trace ? 1 : 10, block = a.trace ? 1 : 50;
  auto setup_slot = [&] {
    for (int sample = 0; sample < samples; ++sample) {
      Clock::time_point t0 = Clock::now();
      for (int rep = 0; rep < block; ++rep) {
        frontend::ProtocolRegistry reg = frontend::ProtocolRegistry::with_builtins();
        for (Request& rq : reqs) {
          fs::path path = a.repo / "specs" / rq.file;
          rq.text = read_file(path);
          protocols::ProtocolModel pm = frontend::load_spec_string(rq.text, rq.file);
          if (pm.name != rq.proto || !reg.contains(rq.proto)) {
            throw std::runtime_error(path.string() + " does not declare " + rq.proto);
          }
        }
      }
      setup.push_back(secs(t0, Clock::now()) / block);
    }
  };
  setup_slot();

  util::ThreadPool pool(kThreads);
  verify::Options opts;
  opts.run_sweeps = sweeps;
  opts.replay_ce = true;

  // Each pass submits every request once, closed loop: the next request
  // goes out when the previous one's verdicts are rendered. The pass count
  // is fixed by --seconds, so every run of a seed does the same work.
  const double nominal_pass_s = sweeps ? 7.5 : 8.5;
  Spans spans;
  // A client request here is one pass's batch. No proof cache is configured,
  // so every batch re-proves its obligations as an edit does in
  // service_mix: all batches are edit samples, and those that repeat texts
  // already submitted (every pass after the first) are also
  // unchanged-resubmission samples.
  std::vector<double> untraced_walls, all_lat, later_lat;
  std::vector<LayerPass> traced;
  std::map<std::string, std::vector<double>> per_proto;
  auto one_pass = [&](bool tr, int pass_no) {
    spans.set_on(tr);
    if (tr) registry_on();
    std::map<std::string, long long> counts;
    double param_s = 0, sweep_s = 0, cpu_s = 0, lat_s = 0, replay_s = 0;
    long long firings = 0;
    std::vector<double> parse_s, lower_s, plan_s, render_s;
    GraphTally g;
    // One pass is one batch of the client's requests, in the seed's order,
    // each sent when the previous one's verdicts are rendered (submitting
    // them all at once would make the batch's makespan, and which sweep
    // instances share memory, depend on the order). Within a request the
    // obligations and sweep instances share the 2-thread pool.
    Clock::time_point p0 = Clock::now();
    double c0 = cpu_seconds();
    std::vector<protocols::ProtocolModel> pms;
    std::vector<verify::ProtocolReport> reports(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Request& rq = reqs[i];
      Clock::time_point r0 = Clock::now();
      verify::Options o = opts;
      o.only_obligations = rq.only;
      protocols::ProtocolModel pm;
      if (tr) {
        frontend::ast::Protocol ast;
        parse_s.push_back(spans.time(
            "frontend.parse", [&] { ast = frontend::parse(rq.text, rq.file); }));
        lower_s.push_back(spans.time(
            "frontend.lower", [&] { pm = frontend::lower(ast, rq.file); }));
      } else {
        pm = frontend::load_spec_string(rq.text, rq.file);
      }
      spans.time("verify_protocol", [&] {
        reports[i] = verify::verify_protocol_async(pm, o, pool).finish();
      });
      pms.push_back(std::move(pm));
      std::string row;
      std::vector<std::string> lines;
      render_s.push_back(spans.time(
          "verify.render", [&] { lines = render(reports[i], &row); }));
      if (!tr) per_proto[rq.proto].push_back(secs(r0, Clock::now()));
      check_report(ex, reqs[i], reports[i], lines, res);
    }
    const double lat = secs(p0, Clock::now());
    cpu_s = cpu_seconds() - c0;
    lat_s = lat;
    if (!tr) {
      all_lat.push_back(lat);
      if (pass_no > 0) later_lat.push_back(lat);
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      for (const verify::Obligation* ob : obligations(reports[i])) {
        counts["schema.schemas"] += ob->nschemas;
        counts["schema.queries"] += ob->nqueries;
        counts["lia.pivots"] += ob->npivots;
        counts["replay.firings"] += replay_firings(ob->replay);
        (ob->parametric ? param_s : sweep_s) += ob->seconds;
      }
      counts["obligations"] +=
          static_cast<long long>(obligations(reports[i]).size());
      if (tr) {
        verify::Options o = opts;
        o.only_obligations = reqs[i].only;
        plan_s.push_back(spans.time("verify.plan", [&] {
          (void)verify::obligation_cache_keys(pms[i], o);
        }));
        rebuild_sweeps(pms[i], reports[i], spans, g);
        replay_counterexamples(pms[i], reports[i], spans, res, &replay_s,
                               &firings);
      }
    }
    if (tr) {
      spans.add("pass", p0, Clock::now(),
                "\"pass\":" + std::to_string(pass_no));
    }
    double wall = secs(p0, Clock::now());
    if (!tr) {
      untraced_walls.push_back(wall);
    } else {
      counts["cs.states"] = g.states;
      counts["cs.edges"] = g.edges;
      counts["cs.outcomes"] = g.outcomes;
      LayerPass lp{wall, registry_layers(cpu_s, lat_s)};
      auto& L = lp.layers;
      L["cs.build_ms"] = g.build_s * 1e3;
      L["cs.game_ms"] = (sweep_s - g.build_s) * 1e3;
      L["cs.states"] = static_cast<double>(g.states);
      L["cs.edges"] = static_cast<double>(g.edges);
      L["cs.outcomes"] = static_cast<double>(g.outcomes);
      L["cs.states_per_s"] = g.build_s > 0 ? g.states / g.build_s : 0;
      L["cs.max_instance_states"] = static_cast<double>(g.max_states);
      L["schema.ms"] = param_s * 1e3 - L["lia.ms"];
      L["schema.schemas_per_s"] = param_s > 0 ? L["schema.schemas"] / param_s : 0;
      L["replay.ms"] = replay_s * 1e3;
      L["replay.firings"] = static_cast<double>(firings);
      L["frontend.parse_us"] = median(parse_s) * 1e6;
      L["frontend.lower_us"] = median(lower_s) * 1e6;
      L["verify.plan_us"] = median(plan_s) * 1e6;
      L["verify.render_us"] = median(render_s) * 1e6;
      double attributed = param_s + sweep_s + replay_s;
      for (const auto* v : {&parse_s, &lower_s, &plan_s, &render_s}) {
        for (double x : *v) attributed += x;
      }
      L["verify.unattributed_share"] = cpu_s > 0 ? 1.0 - attributed / cpu_s : 0;
      traced.push_back(std::move(lp));
    }
    res.pass_counts(counts);
  };

  if (!a.trace) {
    const long passes = std::max(2L, std::lround(a.seconds / nominal_pass_s));
    for (int p = 0; p < passes; ++p) {
      one_pass(false, p);
      setup_slot();
    }
    res.metric("wall_s", median(untraced_walls), "s");
    res.metric("setup_s", median(setup), "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    res.metric("submit_p50_ms", median(later_lat) * 1e3, "ms");
    res.metric("edit_p50_ms", median(all_lat) * 1e3, "ms");
    res.note("submit_samples", std::to_string(later_lat.size()));
    res.note("edit_samples", std::to_string(all_lat.size()));
    res.note("pass_walls_s", seconds_list(untraced_walls));
    std::vector<std::pair<std::string, std::string>> pp;
    for (const auto& [proto, lats] : per_proto) pp.emplace_back(proto, num(median(lats)));
    res.note("protocol_median_latency_s", json_object(pp));
  } else {
    // Traced run: pairs of (untraced, traced) passes on the same inputs; the
    // wall difference is the tracing overhead.
    const long pairs = std::max(1L, std::lround(a.seconds / (2.5 * nominal_pass_s)));
    for (int p = 0; p < pairs; ++p) {
      one_pass(false, 2 * p);
      one_pass(true, 2 * p + 1);
    }
    std::map<std::string, double> L = median_layers(traced);
    std::vector<double> tw;
    for (const LayerPass& lp : traced) tw.push_back(lp.wall);
    double base = median(untraced_walls);
    L["trace.overhead_s"] = median(tw) - base;
    L["trace.overhead_share"] = base > 0 ? (median(tw) - base) / base : 0;
    emit_layers(res, L);
  }
  res.note("threads", std::to_string(kThreads));
  if (a.trace) write_trace(a, spans, res);
}

// --- service_mix: an in-process daemon and one closed-loop client ---------------

/// An in-process svc::Server on a socket in the current directory (the run's
/// work dir, so the AF_UNIX path stays short), with its on-disk proof cache
/// and journal beside it, served by a thread that is joined on destruction.
class Daemon {
 public:
  explicit Daemon(const std::string& tag) : socket_(tag + ".sock") {
    svc::ServeOptions o;
    o.socket_path = socket_;
    o.cache_dir = tag + ".cache";
    o.verify.jobs = kThreads;
    server_ = std::make_unique<svc::Server>(std::move(o));
    std::string err;
    if (!server_->start(&err)) throw std::runtime_error("daemon: " + err);
    runner_ = std::thread([this] { server_->run(); });
  }
  ~Daemon() {
    server_->stop();
    runner_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] svc::Server& server() { return *server_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }
  /// Journal records appended so far, as the daemon's stats event reports
  /// them over the wire (the journal handle itself is the daemon threads').
  [[nodiscard]] long long journal_appends() const {
    std::ostringstream out, err;
    if (svc::request_stats(socket_, out, err) != 0) {
      throw std::runtime_error("stats: " + err.str());
    }
    return svc::Json::parse(out.str())["journal"]["appended"].as_int(-1);
  }

 private:
  std::string socket_;
  std::unique_ptr<svc::Server> server_;
  std::thread runner_;  // after server_: it runs server_->run()
};

/// What `ctaver submit` prints for one submission, split into its parts.
struct Reply {
  int code = -1;
  std::string header;
  std::vector<std::string> lines;
  std::string row;
};

Reply submit(const std::string& socket, const std::string& spec_path) {
  std::ostringstream out, err;
  svc::ClientOptions copts;
  copts.retries = 0;  // a transport failure is a failed submission, not noise
  Reply r;
  r.code = svc::submit_specs(socket, {spec_path}, out, err, copts);
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      r.header = line;
    } else if (line.rfind("    ", 0) == 0) {
      r.lines.push_back(line.substr(4));
    } else if (!line.empty()) {
      r.row = line;
    }
  }
  return r;
}

/// Obligation name of a rendered line ("<name>: <word> [...]").
std::string line_name(const std::string& line) {
  return line.substr(0, line.find(": "));
}

/// The spec text with its protocol renamed: every cache key changes, so all
/// of the edit's obligations miss and are proved, stored and journaled.
std::string rename_protocol(const std::string& text, const std::string& from,
                            const std::string& to) {
  std::string needle = "protocol " + from + " {";
  std::size_t at = text.find(needle);
  if (at == std::string::npos) throw std::runtime_error("no '" + needle + "'");
  return text.substr(0, at) + "protocol " + to + " {" +
         text.substr(at + needle.size());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

struct Base {
  std::string proto;
  std::string file;
  std::string text;
  std::string path;  // the copy the client ships
  std::vector<std::string> cold_lines;
  int code = 0;
};

struct Sub {
  std::size_t base = 0;
  bool edit = false;
  std::string name;  // protocol name as submitted
};

/// Fills a cached obligation's verdict fields from its proof-cache payload,
/// as the pipeline's merge does for a cache hit; false if it does not decode.
bool decode_into(const std::string& payload, verify::Obligation& o) {
  if (o.parametric) {
    std::optional<schema::CheckResult> cr = svc::decode_check(payload);
    if (!cr) return false;
    o.holds = cr->holds;
    o.complete = cr->complete;
    o.nschemas = cr->nschemas;
    if (cr->ce) o.ce = cr->ce->text;
    return true;
  }
  std::optional<svc::SweepVerdict> sv = svc::decode_sweep(payload);
  if (!sv) return false;
  o.holds = sv->holds;
  o.complete = sv->complete;
  o.ce = sv->ce;
  o.detail = sv->detail;
  return true;
}

/// The daemon-side work of one submission, repeated from outside through the
/// same public calls the daemon makes (parse, lower, key planning once per
/// submission and once per obligation run, cache probe + decode, store on a
/// miss, journal records, rendering), against a mirror cache and journal of
/// its own. Returns the mirrored seconds (write_s holds the part spent in
/// cache stores and journal appends); checks the mirror renders the streamed
/// bytes.
struct Mirror {
  svc::ProofCache cache{"mirror.cache"};
  svc::Journal journal{"mirror.cache"};
  verify::Options vopts;
  std::vector<double> parse_s, lower_s, plan_s, lookup_s, store_s, append_s,
      render_s;
  double write_s = 0;  // the last run's cache stores and journal appends

  double run(const std::string& text, const std::string& path, Daemon& d,
             const Reply& reply, bool edit, Spans& spans, Result& res) {
    double m = 0;
    write_s = 0;
    auto span = [&](const char* name, std::vector<double>& into, auto&& f) {
      double s = spans.time(name, f);
      into.push_back(s);
      m += s;
      if (&into == &store_s || &into == &append_s) write_s += s;
    };
    frontend::ast::Protocol ast;
    protocols::ProtocolModel pm;
    std::vector<verify::ObligationKey> keys;
    span("frontend.parse", parse_s, [&] { ast = frontend::parse(text, path); });
    span("frontend.lower", lower_s, [&] { pm = frontend::lower(ast, path); });
    double plan = spans.time("verify.plan", [&] {
      keys = verify::obligation_cache_keys(pm, vopts);
      for (const verify::ObligationKey& k : keys) {
        verify::Options o = vopts;
        o.only_obligations = {k.name};
        (void)verify::obligation_cache_keys(pm, o);
      }
    });
    plan_s.push_back(plan);
    m += plan;
    std::string run_id = svc::journal_run_id(keys);
    span("svc.journal.append", append_s, [&] {
      journal.run_start(run_id, "submit", pm.name, keys.size());
    });
    verify::ProtocolReport r;
    r.protocol = pm.name;
    r.category = pm.category;
    r.n_locations = pm.system.total_locations();
    r.n_rules = pm.system.total_rules();
    for (const verify::ObligationKey& k : keys) {
      verify::Obligation o;
      o.name = k.name;
      o.parametric = k.parametric;
      o.run_state = verify::Obligation::RunState::kComplete;
      std::optional<std::string> payload;
      bool decoded = false;
      span("svc.cache.lookup", lookup_s, [&] {
        payload = cache.lookup(k.key);
        if (payload) decoded = decode_into(*payload, o);
      });
      const bool cached = payload.has_value();
      if (!cached) {
        // The proof itself is the daemon's; the mirror only stores it.
        std::optional<std::string> proved = d.server().cache().lookup(k.key);
        if (!proved) {
          res.fail(pm.name + " " + k.name + ": daemon holds no proof for key");
          continue;
        }
        span("svc.cache.store", store_s, [&] { cache.store(k.key, *proved); });
        decoded = decode_into(*proved, o);
      }
      if (!decoded) res.fail(pm.name + " " + k.name + ": undecodable payload");
      span("svc.journal.append", append_s, [&] {
        journal.obligation_done(run_id, k.name, k.key, cached);
      });
      verify::PropertyResult& prop = k.name.rfind("Inv1", 0) == 0 ? r.agreement
                                     : k.name.rfind("Inv2", 0) == 0 ? r.validity
                                                                    : r.termination;
      prop.obligations.push_back(std::move(o));
    }
    // The daemon streams one line per obligation run, in key (planning)
    // order, then the Table-II row of the merged report.
    std::string row;
    std::vector<std::string> lines;
    span("verify.render", render_s, [&] {
      for (const verify::ObligationKey& k : keys) {
        for (const verify::Obligation* o : obligations(r)) {
          if (o->name == k.name) lines.push_back(verify::obligation_line(*o));
        }
      }
      row = verify::table2_row(r);
    });
    span("svc.journal.append", append_s,
         [&] { journal.run_end(run_id, reply.code); });
    if (lines != reply.lines || (!edit && row != reply.row)) {
      std::size_t at = 0;
      while (at < lines.size() && at < reply.lines.size() &&
             lines[at] == reply.lines[at]) {
        ++at;
      }
      res.fail(pm.name + ": mirrored daemon path renders other bytes at line " +
               std::to_string(at) + " ('" +
               (at < lines.size() ? lines[at] : std::string("-")) + "' vs '" +
               (at < reply.lines.size() ? reply.lines[at] : std::string("-")) +
               "')");
    }
    return m;
  }
};

void run_service(const Args& a, const Expectations& ex, Result& res) {
  std::mt19937_64 rng(a.seed);
  std::vector<Base> bases = {{"NaiveVoting", "naive_voting.cta", "", "", {}, 0},
                             {"CC85a", "cc85a.cta", "", "", {}, 0},
                             {"CC85b", "cc85b.cta", "", "", {}, 0},
                             {"FMR05", "fmr05.cta", "", "", {}, 0},
                             {"KS16", "ks16.cta", "", "", {}, 0}};
  const std::size_t kNaive = 0, kCC85a = 1;
  for (Base& b : bases) {
    b.text = read_file(a.repo / "specs" / b.file);
    b.path = "spec_" + b.file;
    bool fails = false;
    for (const auto& [name, word] : ex.verdicts.at(b.proto)) {
      fails = fails || word != "ok";
    }
    b.code = fails ? 1 : 0;
  }
  fs::create_directories(a.work_dir);
  fs::current_path(a.work_dir);
  for (const Base& b : bases) write_file(b.path, b.text);

  // Set-up: daemon start plus a cold submission of every base protocol,
  // repeated on fresh directories; the median is setup_s and the last
  // daemon serves the timed phase.
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  const int reps = a.trace ? 1 : 3;
  for (int rep = 0; rep < reps; ++rep) {
    if (daemon) {
      daemon.reset();
      fs::remove_all("d" + std::to_string(rep - 1) + ".cache");
    }
    Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>("d" + std::to_string(rep));
    for (Base& b : bases) {
      Reply r = submit(daemon->socket(), b.path);
      ++res.attempted;
      std::string why;
      if (r.code != b.code) why = b.proto + ": cold exit " + std::to_string(r.code);
      for (const std::string& l : r.lines) {
        if (why.empty()) why = check_line(ex, b.proto, line_name(l), l);
      }
      if (why.empty() && r.lines.size() != ex.verdicts.at(b.proto).size()) {
        why = b.proto + ": " + std::to_string(r.lines.size()) + " cold lines";
      }
      if (why.empty() && rep > 0 && r.lines != b.cold_lines) {
        why = b.proto + ": cold lines differ between set-ups";
      }
      if (!why.empty()) res.fail(why);
      b.cold_lines = r.lines;
    }
    setup.push_back(secs(t0, Clock::now()));
  }
  // The cold fills' sweep graphs are freed by now, but how much of that
  // memory the allocator's arenas keep depends on how the pool threads
  // overlapped (20–40 MB apart between runs). Hand it back, so that
  // peak_rss_mb reads the live set plus the timed phase's own growth (about
  // 7 MB a block: the daemon keeps every finished connection thread, and
  // every journal record, until it stops) instead of that retention.
  malloc_trim(0);

  // Edit schedule: each block has the same mix — kEdits edits (2 of
  // NaiveVoting, 8 of CC85a) at seeded positions, seeded resubmissions of
  // the five unchanged texts elsewhere — so blocks are comparable, and short,
  // so that the median over ~25 of them passes over a burst of CPU steal on
  // a shared host instead of averaging it in. The mix is not taken from
  // observed `ctaver submit` traffic (none has been recorded): the 5% edit
  // share is an assumed "small share", and the 1:4 split was picked so that
  // edit_p50 lies inside the CC85a cluster and reads steady (with NaiveVoting
  // edits, ~20 fsyncs and little else, in the majority it read IQR/median
  // 0.27 over 10 runs). Cache stores and journal appends stay a visible share
  // of an edit's latency; the traced run reports it as svc.edit_write_share.
  constexpr std::size_t kBlock = 210, kEdits = 10, kNaiveEdits = 2;
  const double nominal_block_s = 1.1;
  std::size_t edit_no = 0;
  auto make_block = [&] {
    std::vector<std::size_t> pos(kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) pos[i] = i;
    seeded_shuffle(pos, rng);
    std::vector<Sub> block(kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) {
      block[i].base = rng() % bases.size();
      block[i].name = bases[block[i].base].proto;
    }
    for (std::size_t e = 0; e < kEdits; ++e) {
      Sub& s = block[pos[e]];
      s.edit = true;
      s.base = e < kNaiveEdits ? kNaive : kCC85a;
      s.name = bases[s.base].proto + "E" + std::to_string(a.seed % 1000000) +
               "x" + std::to_string(edit_no++);
    }
    return block;
  };

  Mirror* mirror = nullptr;
  std::unique_ptr<Mirror> mirror_owner;
  Spans spans;
  if (a.trace) {
    mirror_owner = std::make_unique<Mirror>();
    mirror = mirror_owner.get();
    mirror->vopts.jobs = kThreads;
    for (const Base& b : bases) {  // the cold proofs, stored as the daemon did
      protocols::ProtocolModel pm = frontend::load_spec_string(b.text, b.path);
      for (const verify::ObligationKey& k :
           verify::obligation_cache_keys(pm, mirror->vopts)) {
        std::optional<std::string> p = daemon->server().cache().lookup(k.key);
        if (!p) throw std::runtime_error(b.proto + ": no cold proof for " + k.name);
        mirror->cache.store(k.key, *p);
      }
    }
  }

  std::vector<double> untraced_walls, submit_lat, edit_lat, wire_s, edit_write;
  std::vector<LayerPass> traced;
  std::uint64_t hits = 0, misses = 0;
  // Journal appends so far. The stats request that reads it costs the daemon
  // a scan of its whole journal, so it is made once per block, between
  // blocks, outside the block walls.
  long long journaled = daemon->journal_appends();
  auto one_block = [&](bool tr, int block_no) {
    spans.set_on(tr);
    if (tr) registry_on();
    std::vector<Sub> block = make_block();
    std::map<std::string, long long> counts;
    double cpu_s = 0, lat_s = 0, resub_lat_s = 0, resub_mirror_s = 0;
    long long want_appends = 0;
    Clock::time_point p0 = Clock::now();
    for (const Sub& s : block) {
      const Base& b = bases[s.base];
      std::string path = b.path, text = b.text;
      if (s.edit) {
        text = rename_protocol(b.text, b.proto, s.name);
        path = "edit.cta";
        write_file(path, text);
      }
      svc::CacheStats c0 = daemon->server().cache().stats();
      double cpu0 = cpu_seconds();
      Clock::time_point t0 = Clock::now();
      Reply r = submit(daemon->socket(), path);
      Clock::time_point t1 = Clock::now();
      cpu_s += cpu_seconds() - cpu0;
      svc::CacheStats c1 = daemon->server().cache().stats();
      double lat = secs(t0, t1);
      lat_s += lat;
      if (tr) {
        spans.add("svc.submission", t0, t1,
                  "\"protocol\":" + json_str(s.name) +
                      ",\"edit\":" + (s.edit ? "true" : "false"));
      } else {
        (s.edit ? edit_lat : submit_lat).push_back(lat);
      }
      const std::uint64_t n = b.cold_lines.size();
      const std::uint64_t dh = c1.hits - c0.hits, dm = c1.misses - c0.misses,
                          ds = c1.stores - c0.stores;
      hits += dh;
      misses += dm;
      counts["cache.hits"] += static_cast<long long>(dh);
      counts["cache.misses"] += static_cast<long long>(dm);
      counts["cache.stores"] += static_cast<long long>(ds);
      want_appends += static_cast<long long>(n) + 2;  // run start/end + one each
      ++res.attempted;
      std::string why;
      if (r.code != b.code) why = "exit " + std::to_string(r.code);
      else if (r.header != "== " + s.name) why = "header '" + r.header + "'";
      else if (r.lines != b.cold_lines) why = "lines differ from the cold run";
      else if (s.edit ? (dm != n || ds != n || dh != 0) : (dh != n || dm != 0 || ds != 0))
        why = "cache hits/misses/stores " + std::to_string(dh) + "/" +
              std::to_string(dm) + "/" + std::to_string(ds);
      if (!why.empty()) res.fail(s.name + (s.edit ? " (edit)" : "") + ": " + why);
      if (tr) {
        double m = mirror->run(text, path, *daemon, r, s.edit, spans, res);
        if (!s.edit) {
          wire_s.push_back(lat - m);
          resub_lat_s += lat;
          resub_mirror_s += m;
        } else {
          edit_write.push_back(mirror->write_s / lat);
        }
      }
    }
    double wall = secs(p0, Clock::now());
    const long long j1 = daemon->journal_appends();
    counts["journal.appends"] = j1 - journaled;
    journaled = j1;
    if (counts["journal.appends"] != want_appends) {
      res.fail("block " + std::to_string(block_no) + ": " +
               std::to_string(counts["journal.appends"]) + " journal appends, " +
               std::to_string(want_appends) + " expected");
    }
    if (!tr) {
      untraced_walls.push_back(wall);
    }
    // Blocks 0 and 1 run in every run of a seed, traced or not: their counts
    // must repeat exactly.
    if (block_no < 2) {
      std::map<std::string, long long> keyed;
      for (const auto& [k, v] : counts) {
        keyed["block" + std::to_string(block_no) + "." + k] = v;
      }
      res.pass_counts(keyed);
    }
    if (!tr) return;
    LayerPass lp{wall, registry_layers(cpu_s, lat_s)};
    auto& L = lp.layers;
    L["frontend.parse_us"] = median(mirror->parse_s) * 1e6;
    L["frontend.lower_us"] = median(mirror->lower_s) * 1e6;
    L["verify.plan_us"] = median(mirror->plan_s) * 1e6;
    L["verify.render_us"] = median(mirror->render_s) * 1e6;
    L["verify.unattributed_share"] =
        resub_lat_s > 0 ? 1.0 - resub_mirror_s / resub_lat_s : 0;
    L["svc.cache.lookup_us"] = median(mirror->lookup_s) * 1e6;
    L["svc.cache.store_us"] = median(mirror->store_s) * 1e6;
    L["svc.cache.hit_ratio"] =
        static_cast<double>(counts["cache.hits"]) /
        static_cast<double>(std::max(1LL, counts["cache.hits"] + counts["cache.misses"]));
    L["svc.journal.append_us"] = median(mirror->append_s) * 1e6;
    L["svc.journal.appends_per_submit"] =
        static_cast<double>(counts["journal.appends"]) / static_cast<double>(block.size());
    L["svc.wire_us"] = median(wire_s) * 1e6;
    L["svc.edit_write_share"] = median(edit_write);
    traced.push_back(std::move(lp));
    for (auto* v : {&mirror->parse_s, &mirror->lower_s, &mirror->plan_s,
                    &mirror->lookup_s, &mirror->store_s, &mirror->append_s,
                    &mirror->render_s, &wire_s, &edit_write}) {
      v->clear();
    }
  };

  if (!a.trace) {
    const long blocks = std::max(2L, std::lround(a.seconds / nominal_block_s));
    for (int b = 0; b < blocks; ++b) one_block(false, b);
    res.metric("wall_s", median(untraced_walls), "s");
    res.metric("setup_s", median(setup), "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    res.metric("submit_p50_ms", median(submit_lat) * 1e3, "ms");
    res.metric("edit_p50_ms", median(edit_lat) * 1e3, "ms");
    // Diagnostic only: on a shared host this tail follows the CPU steal
    // share (README.md, "Measured spreads"), too loosely for a bound.
    res.note("submit_p99_ms", num(quantile(submit_lat, 0.99) * 1e3));
    res.note("submit_samples", std::to_string(submit_lat.size()));
    res.note("edit_samples", std::to_string(edit_lat.size()));
    res.note("block_walls_s", seconds_list(untraced_walls));
    res.note("setup_walls_s", seconds_list(setup));
  } else {
    const long pairs = std::max(1L, std::lround(a.seconds / (3.0 * nominal_block_s)));
    for (int p = 0; p < pairs; ++p) {
      one_block(false, 2 * p);
      one_block(true, 2 * p + 1);
    }
    std::map<std::string, double> L = median_layers(traced);
    std::vector<double> tw;
    for (const LayerPass& lp : traced) tw.push_back(lp.wall);
    double base = median(untraced_walls);
    L["trace.overhead_s"] = median(tw) - base;
    L["trace.overhead_share"] = base > 0 ? (median(tw) - base) / base : 0;
    emit_layers(res, L);
  }
  res.note("threads", json_str(std::to_string(kThreads) + " proving + 1 client"));
  res.note("hit_ratio", num(static_cast<double>(hits) /
                            static_cast<double>(std::max<std::uint64_t>(1, hits + misses))));
  mirror_owner.reset();
  daemon.reset();
  if (a.trace) write_trace(a, spans, res);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--repo") a.repo = v;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--expect") a.expect = v;
    else {
      std::cerr << "bench_e2e: unknown argument " << k << "\n";
      return 2;
    }
  }
  if (a.repo.empty() || a.expect.empty() || a.work_dir.empty() ||
      (a.workload != "sweeps_ab" && a.workload != "schema_c" &&
       a.workload != "service_mix")) {
    std::cerr << "usage: bench_e2e --workload sweeps_ab|schema_c|service_mix "
                 "--seed N --seconds S --trace 0|1 --repo DIR --work-dir DIR "
                 "--expect FILE [--trace-out FILE]\n";
    return 2;
  }
  try {
    Expectations ex = Expectations::load(a.expect);
    Result res;
    if (a.workload == "service_mix") {
      run_service(a, ex, res);
    } else {
      run_inprocess(a, ex, res);
    }
    std::cout << res.to_json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
