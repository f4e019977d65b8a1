#include "svc/store.h"

namespace ctaver::svc {

namespace {

/// Cache probe + decode. A checksum-valid payload that fails to decode (an
/// incompatible codec) is invalidated and reads as a miss.
template <class Decode>
auto probe(ProofCache& cache, const std::string& key, Decode decode)
    -> decltype(decode(key)) {
  if (std::optional<std::string> p = cache.lookup(key)) {
    if (auto v = decode(*p)) return v;
    cache.invalidate(key);
  }
  return std::nullopt;
}

}  // namespace

DurableStore::DurableStore(const std::string& dir)
    : shared_(std::make_shared<Shared>(dir)) {}

bool DurableStore::open_journal(std::string* err) {
  if (shared_->cache.disk_dir().empty()) return true;
  auto journal = std::make_unique<Journal>(shared_->cache.disk_dir());
  if (!journal->ok()) {
    if (err != nullptr) *err = journal->error();
    return false;
  }
  shared_->journal = std::move(journal);
  return true;
}

bool DurableStore::resume(const std::vector<verify::ObligationKey>& keys,
                          std::string* note) const {
  const Journal& j = *shared_->journal;
  const std::string run = journal_run_id(keys);
  if (j.run_started(run) && !j.run_finished(run)) {
    *note = "resuming run " + run.substr(0, 12) + ": " +
            std::to_string(j.run_obligations(run).size()) + " of " +
            std::to_string(keys.size()) +
            " obligation(s) already durable; re-proving the rest";
    return true;
  }
  if (j.unfinished_runs() > 0) {
    *note =
        "--resume: the journal's unfinished run was started with different "
        "specs or options (run id mismatch); re-run the original command "
        "line, or drop --resume to start over";
    return false;
  }
  *note = "--resume: no unfinished run in the journal; running cold";
  return true;
}

DurableStore DurableStore::begin_run(
    const std::vector<verify::ObligationKey>& keys, const std::string& kind,
    const std::string& name) const {
  DurableStore run = *this;
  if (shared_->journal) {
    run.run_ = journal_run_id(keys);
    shared_->journal->run_start(run.run_, kind, name, keys.size());
  }
  return run;
}

void DurableStore::end_run(int exit_code) const {
  if (!run_.empty()) shared_->journal->run_end(run_, exit_code);
}

void DurableStore::journal_done(const std::string& name,
                                const std::string& key, bool cached) const {
  if (!run_.empty()) shared_->journal->obligation_done(run_, name, key, cached);
}

// A hit is durable already: journaling it at probe time credits it to the
// run even if the process dies before the merge.
std::optional<schema::CheckResult> DurableStore::probe_check(
    const std::string& name, const std::string& key) {
  auto r = probe(shared_->cache, key, decode_check);
  if (r) journal_done(name, key, /*cached=*/true);
  return r;
}

std::optional<verify::SweepVerdict> DurableStore::probe_sweep(
    const std::string& name, const std::string& key) {
  auto v = probe(shared_->cache, key, decode_sweep);
  if (v) journal_done(name, key, /*cached=*/true);
  return v;
}

void DurableStore::keep_check(const std::string& name, const std::string& key,
                              const schema::CheckResult& result) {
  shared_->cache.store(key, encode_check(result));
  journal_done(name, key, /*cached=*/false);
}

void DurableStore::keep_sweep(const std::string& name, const std::string& key,
                              const verify::SweepVerdict& verdict) {
  shared_->cache.store(key, encode_sweep(verdict));
  journal_done(name, key, /*cached=*/false);
}

}  // namespace ctaver::svc
