// Regenerates Table II: the common-coin protocol benchmarks, with |L|, |R|,
// per-property schema counts, times, the verification verdict, and the
// obligation-scheduler width used. MMR14 reports the binding-condition
// counterexample (the adaptive attack).
//
// Protocols are resolved through frontend::ProtocolRegistry, so spec
// directories can be benchmarked wholesale:
//
//   bench_table2 [--budget SECONDS] [--jobs N] [--workers N] [--specs DIR]
//                [--metrics FILE] [--cache-dir DIR] [PROTOCOL...]
//
// --cache-dir points the run at an on-disk proof cache (src/svc): a second
// invocation replays every complete verdict byte-identically and the time
// columns collapse to the merge overhead — the demonstrable warm/cold
// spread of the ctaverd service. The printed hit/store counters attribute
// it.
//
// --metrics FILE dumps the merged obs registry (same JSON as `ctaver
// verify --metrics`) after the run, so a benchmark sweep records where its
// wall clock went (solver vs enumeration vs scheduling).
//
// --budget is the shared wall-clock budget per protocol (default 60; the
// committed table2_results.txt was produced with --budget 360). PROTOCOL is
// a registry name or a .cta path; the default list is the paper's Table-II
// order. --jobs 0 (default) uses every hardware thread; --workers N > 1
// adds partitioned enumeration workers inside each obligation. The rows are
// identical at any (jobs, workers) width, only the times change.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "frontend/registry.h"
#include "obs/metrics.h"
#include "svc/store.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "verify/pipeline.h"

int main(int argc, char** argv) {
  using namespace ctaver;

  verify::Options opts;
  opts.schema.time_budget_s = 60.0;
  opts.schema.max_schemas = 10'000'000;
  int jobs = 0;
  std::string specs_dir;
  std::string metrics_path;
  std::string cache_dir;
  std::vector<std::string> protocols;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      opts.schema.time_budget_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      opts.schema.workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--specs") == 0 && i + 1 < argc) {
      specs_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
      cache_dir = argv[++i];
    } else {
      protocols.emplace_back(argv[i]);
    }
  }
  if (!metrics_path.empty()) obs::Registry::global().set_enabled(true);
  opts.jobs = jobs;
  const int threads =
      jobs > 0 ? jobs : util::ThreadPool::hardware_workers();
  const int workers = opts.schema.workers > 0 ? opts.schema.workers : 1;

  std::optional<svc::DurableStore> store;
  if (!cache_dir.empty()) {
    store.emplace(cache_dir);
    opts.store = &*store;
  }

  try {
    frontend::ProtocolRegistry registry =
        frontend::ProtocolRegistry::with_builtins();
    if (!specs_dir.empty()) registry.add_directory(specs_dir);
    if (protocols.empty()) {
      // The paper's Table-II order (NaiveVoting is the warm-up, not a row).
      protocols = {"Rabin83", "CC85a", "CC85b",    "FMR05",
                   "KS16",    "MMR14", "Miller18", "ABY22"};
    }

    std::cout << "Table II: benchmarks of the common-coin protocols\n"
              << "(nschemas = LIA queries incl. prefix probes; times in "
                 "seconds; sweeps for (C1)/(C2') add no schemas)\n\n"
              << verify::table2_header()
              << util::pad_left("threads", 9)
              << util::pad_left("workers", 9) << "\n";
    // One pool shared by every protocol: all tasks are in flight from the
    // start, so a cheap protocol's tail overlaps the next one's ramp-up.
    // Rows are still merged and printed in the canonical order.
    std::vector<schema::CheckResult::WorkerStat> slots;
    auto emit = [&](verify::ProtocolReport report) {
      std::cout << verify::table2_row(report)
                << util::pad_left(std::to_string(threads), 9)
                << util::pad_left(std::to_string(workers), 9) << "\n";
      std::string fail = report.termination.failure();
      if (!fail.empty()) std::cout << "    CE -> " << fail << "\n";
      std::cout.flush();
      std::vector<schema::CheckResult::WorkerStat> s =
          verify::worker_stats(report);
      if (s.size() > slots.size()) slots.resize(s.size());
      for (std::size_t w = 0; w < s.size(); ++w) {
        slots[w].units += s[w].units;
        slots[w].pivots += s[w].pivots;
      }
    };
    if (jobs == 1) {
      for (const std::string& name : protocols) {
        emit(verify::verify_protocol(registry.resolve(name), opts));
      }
    } else {
      util::ThreadPool pool(jobs);
      std::vector<verify::ProtocolRun> runs;
      runs.reserve(protocols.size());
      for (const std::string& name : protocols) {
        runs.push_back(
            verify::verify_protocol_async(registry.resolve(name), opts, pool));
      }
      for (verify::ProtocolRun& run : runs) emit(run.finish());
    }
    if (workers > 1) {
      // Scheduling-balance summary over the whole run: slot w sums logical
      // enumeration worker w of every obligation's check_spec call;
      // max/mean of 1.0 is perfectly balanced, `workers` is one worker
      // holding everything. Diagnostic — the rows above are byte-identical
      // at any width.
      auto imbalance = [&](long long schema::CheckResult::WorkerStat::*f) {
        long long mx = 0, total = 0;
        for (const auto& s : slots) {
          mx = std::max(mx, s.*f);
          total += s.*f;
        }
        return total > 0 && !slots.empty()
                   ? double(mx) * double(slots.size()) / double(total)
                   : 1.0;
      };
      std::cout << "\nenumeration-worker imbalance (max/mean over "
                << slots.size() << " worker slots): units "
                << imbalance(&schema::CheckResult::WorkerStat::units)
                << ", pivots "
                << imbalance(&schema::CheckResult::WorkerStat::pivots)
                << "\n";
    }
    if (store) {
      const svc::CacheStats cs = store->cache().stats();
      std::cout << "\nproof cache (" << cache_dir << "): " << cs.hits
                << " hits, " << cs.misses << " misses, " << cs.stores
                << " stores";
      if (cs.corrupt > 0) std::cout << ", " << cs.corrupt << " corrupt";
      std::cout << "\n";
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path, std::ios::binary | std::ios::trunc);
      out << obs::Registry::global().snapshot().to_json();
      if (!out) {
        std::cerr << "bench_table2: cannot write " << metrics_path << "\n";
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_table2: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
