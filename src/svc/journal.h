// Durable run journal: the crash-safety layer under --cache-dir.
//
// The ProofCache is the single durable proof store — every complete verdict
// already survives a crash as a content-addressed entry. What a crash loses
// is the *run bookkeeping*: which submission was in flight, which of its
// obligations had already landed durable, and whether it finished. The
// journal records exactly that, as an append-only, fsync'd, per-record-
// checksummed log (`journal.log` in the cache directory):
//
//   ctaver-journal v1                      <- versioned header, own line
//   <sha256hex(payload)> <payload-json>\n  <- one record per line
//
// Record payloads are flat one-line JSON objects (parsed back with
// svc::Json) of three kinds:
//
//   {"rec":"run-start","run":ID,"kind":"verify"|"submit","name":N,"total":T}
//   {"rec":"obligation","run":ID,"name":N,"key":K,"cached":B}
//   {"rec":"obligation" ...}               one per durable completion; "key"
//                                          is the ProofCache key the verdict
//                                          lives under
//   {"rec":"run-end","run":ID,"exit":E}
//
// ID is journal_run_id(): a sha256 over the run's canonical obligation keys,
// so the same specs + verdict-relevant options always name the same run and
// `--resume` can refuse a mismatched command line instead of silently
// re-proving under different semantics.
//
// Durability discipline: every append is serialized under an exclusive
// flock, written with O_APPEND semantics, and fsync'd before returning; the
// journal file's creation is made durable by fsync'ing the parent
// directory. Opening the journal scans it under the same lock: a torn tail
// (partial line from a killed writer), a checksum mismatch, or an
// unparseable payload truncates the file back to the last intact record —
// recovery never trusts a byte the checksum doesn't vouch for. A file whose
// header is missing or from a different version is reset wholesale (the
// journal is bookkeeping; the proofs it references are in the cache).
//
// Journaling degrades, never fails: an unwritable directory or a failed
// append leaves ok() false / returns false and the verification run
// proceeds without crash-safety.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "svc/json.h"

namespace ctaver::verify {
struct ObligationKey;
}

namespace ctaver::svc {

struct JournalStats {
  std::uint64_t replayed = 0;         // intact records replayed at open
  std::uint64_t truncated_bytes = 0;  // torn/corrupt tail bytes dropped
  std::uint64_t appended = 0;         // records appended by this handle
};

class Journal {
 public:
  /// Opens (creating if needed) `dir`/journal.log and replays it,
  /// truncating any torn or corrupt tail. `dir` is the proof-cache
  /// directory; it is created if missing.
  explicit Journal(const std::string& dir);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// False when the journal could not be opened (see error()); every append
  /// is then a no-op returning false and the run proceeds unjournaled.
  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  [[nodiscard]] const JournalStats& stats() const { return stats_; }

  /// Appends one record (payload must be a single line, no '\n') under the
  /// file lock and fsyncs before returning. Thread-safe. Returns false on
  /// any I/O failure — the caller continues; the next open truncates
  /// whatever partial bytes the failure left.
  bool append(const std::string& payload);

  // -- record builders ----------------------------------------------------
  void run_start(const std::string& run_id, const std::string& kind,
                 const std::string& name, std::size_t total);
  void obligation_done(const std::string& run_id, const std::string& name,
                       const std::string& key, bool cached);
  void run_end(const std::string& run_id, int exit_code);

  // -- queries (over the replayed records PLUS this handle's appends, so a
  // -- live daemon's view stays current; thread-safe), answered from a
  // -- per-run index built on replay and updated on append --------------
  [[nodiscard]] bool run_started(const std::string& run_id) const;
  [[nodiscard]] bool run_finished(const std::string& run_id) const;
  /// Distinct runs with a run-start record and no run-end: the runs a crash
  /// cut short (plus, on a live handle, runs currently in flight).
  [[nodiscard]] std::size_t unfinished_runs() const;
  /// Distinct ProofCache keys journaled as durable completions of `run_id`.
  [[nodiscard]] std::vector<std::string> run_obligations(
      const std::string& run_id) const;

  static const char* file_name() { return "journal.log"; }

 private:
  void recover();  // open-time scan; caller holds the file lock
  /// Folds one intact record into runs_; caller holds mu_ (or is recover()).
  void index(const Json& rec);

  struct RunIndex {
    bool started = false;
    bool finished = false;
    std::vector<std::string> keys;  // distinct, in first-journaled order
  };

  int fd_ = -1;
  std::string path_;
  std::string error_;
  std::unordered_map<std::string, RunIndex> runs_;
  JournalStats stats_;
  mutable std::mutex mu_;
};

/// Deterministic run identity: sha256 over the run's canonical obligation
/// keys (verify::obligation_cache_keys order). Two invocations name the
/// same run exactly when they would prove the same obligations under the
/// same verdict-relevant options — the property `--resume` checks before
/// trusting an unfinished journal entry.
std::string journal_run_id(const std::vector<verify::ObligationKey>& keys);

}  // namespace ctaver::svc
