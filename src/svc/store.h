// DurableStore: the one verify::ResultStore, tying the ProofCache to the
// crash-safety Journal for `ctaver verify`, the daemon and bench_table2.
// Copies share the cache and journal; begin_run() returns a copy bound to
// one run (run-start journaled under journal_run_id(keys)) whose hits and
// keeps are journaled under that id until end_run(). Unbound, it only
// reads and writes the cache.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "svc/journal.h"
#include "svc/proof_cache.h"
#include "verify/pipeline.h"

namespace ctaver::svc {

class DurableStore final : public verify::ResultStore {
 public:
  /// A ProofCache over `dir` ("" = in memory only), no journal yet.
  explicit DurableStore(const std::string& dir = "");

  /// Opens the journal in the cache dir (a no-op without one). Apart from
  /// the constructor because the open truncates a torn tail, which the
  /// daemon may do only under its pidfile lock. False (*err set): the
  /// store runs unjournaled.
  bool open_journal(std::string* err);

  [[nodiscard]] ProofCache& cache() const { return shared_->cache; }
  /// Null without a cache dir or when the journal failed to open.
  [[nodiscard]] const Journal* journal() const {
    return shared_->journal.get();
  }

  /// --resume's message for the run `keys` name; false when the journal's
  /// unfinished run is another one (the caller refuses). Needs journal().
  bool resume(const std::vector<verify::ObligationKey>& keys,
              std::string* note) const;

  [[nodiscard]] DurableStore begin_run(
      const std::vector<verify::ObligationKey>& keys, const std::string& kind,
      const std::string& name) const;
  void end_run(int exit_code) const;

  std::optional<schema::CheckResult> probe_check(
      const std::string& name, const std::string& key) override;
  std::optional<verify::SweepVerdict> probe_sweep(
      const std::string& name, const std::string& key) override;
  void keep_check(const std::string& name, const std::string& key,
                  const schema::CheckResult& result) override;
  void keep_sweep(const std::string& name, const std::string& key,
                  const verify::SweepVerdict& verdict) override;

 private:
  void journal_done(const std::string& name, const std::string& key,
                    bool cached) const;

  struct Shared {
    explicit Shared(const std::string& dir) : cache(dir) {}
    ProofCache cache;
    std::unique_ptr<Journal> journal;
  };
  std::shared_ptr<Shared> shared_;
  std::string run_;  // journal_run_id of the bound run; empty: unbound
};

}  // namespace ctaver::svc
