// The durable run journal (src/svc/journal): append/replay round-trips,
// torn-tail and checksum-corruption truncation, wholesale reset of alien
// files, run-identity determinism, the degradation contract (an unusable
// journal never fails a run), and the pipeline integration — every durable
// obligation verdict lands a journal record at its durability point, so a
// partially-journaled run resumes with only the missing obligations
// re-proved and report bytes identical to a cold run. Runs under TSan in CI
// (the "svc" leg): appends from pipeline workers must be race-free.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "protocols/protocols.h"
#include "svc/journal.h"
#include "svc/proof_cache.h"
#include "svc/store.h"
#include "util/hash.h"
#include "verify/pipeline.h"

namespace ctaver::svc {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("ctaver_journal_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] fs::path log() const { return path_ / Journal::file_name(); }

 private:
  static int counter_;
  fs::path path_;
};
int TempDir::counter_ = 0;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void append_raw(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::app);
  out << bytes;
}

std::vector<verify::ObligationKey> naive_keys() {
  return verify::obligation_cache_keys(protocols::naive_voting());
}

TEST(Journal, CreatesHeaderAndAppendsSurviveReopen) {
  TempDir dir;
  std::string run;
  {
    Journal j(dir.str());
    ASSERT_TRUE(j.ok()) << j.error();
    EXPECT_EQ(j.stats().replayed, 0u);
    run = journal_run_id(naive_keys());
    j.run_start(run, "verify", "NaiveVoting", 6);
    j.obligation_done(run, "Inv1(v=0)", std::string(64, 'a'), false);
    j.obligation_done(run, "C1", std::string(64, 'b'), true);
    EXPECT_EQ(j.stats().appended, 3u);
    EXPECT_TRUE(j.run_started(run));
    EXPECT_FALSE(j.run_finished(run));
  }
  // Fresh handle: the header line plus three checksummed records replay.
  Journal j2(dir.str());
  ASSERT_TRUE(j2.ok()) << j2.error();
  EXPECT_EQ(j2.stats().replayed, 3u);
  EXPECT_EQ(j2.stats().truncated_bytes, 0u);
  EXPECT_TRUE(j2.run_started(run));
  EXPECT_FALSE(j2.run_finished(run));
  EXPECT_EQ(j2.unfinished_runs(), 1u);
  std::vector<std::string> obls = j2.run_obligations(run);
  ASSERT_EQ(obls.size(), 2u);
  EXPECT_NE(std::find(obls.begin(), obls.end(), std::string(64, 'a')),
            obls.end());
  // Closing the run flips the queries on the NEXT open.
  j2.run_end(run, 1);
  Journal j3(dir.str());
  EXPECT_TRUE(j3.run_finished(run));
  EXPECT_EQ(j3.unfinished_runs(), 0u);
}

TEST(Journal, RecordFormatIsChecksummedOneLineJson) {
  TempDir dir;
  Journal j(dir.str());
  j.run_start("deadbeef", "submit", "P", 2);
  std::string bytes = read_file(dir.log());
  std::istringstream is(bytes);
  std::string header, record;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header, "ctaver-journal v1");
  ASSERT_TRUE(std::getline(is, record));
  // <64-hex sha256> <payload>; the checksum vouches for the payload bytes.
  ASSERT_GT(record.size(), 65u);
  EXPECT_EQ(record[64], ' ');
  std::string payload = record.substr(65);
  EXPECT_EQ(record.substr(0, 64), util::sha256_hex(payload));
  Json p = Json::parse(payload);
  EXPECT_EQ(p.get("rec"), "run-start");
  EXPECT_EQ(p.get("run"), "deadbeef");
  EXPECT_EQ(p["total"].as_int(), 2);
}

TEST(Journal, ManyRunsAreAnsweredFromThePerRunIndex) {
  // A long-lived cache directory: thousands of runs, every third one cut
  // short, each journaling its key twice (a resumed run re-journals what it
  // replays). Written as raw checksummed records to skip per-record fsyncs.
  TempDir dir;
  std::string bytes = "ctaver-journal v1\n";
  auto rec = [&bytes](const std::string& payload) {
    bytes += util::sha256_hex(payload) + " " + payload + "\n";
  };
  const int kRuns = 3000;
  for (int i = 0; i < kRuns; ++i) {
    const std::string run = "\"run\":\"r" + std::to_string(i) + "\"";
    rec("{\"rec\":\"run-start\"," + run +
        ",\"kind\":\"submit\",\"name\":\"P\",\"total\":1}");
    for (int twice = 0; twice < 2; ++twice) {
      rec("{\"rec\":\"obligation\"," + run + ",\"name\":\"A\",\"key\":\"k" +
          std::to_string(i) + "\",\"cached\":false}");
    }
    if (i % 3 != 0) rec("{\"rec\":\"run-end\"," + run + ",\"exit\":0}");
  }
  append_raw(dir.log(), bytes);

  Journal j(dir.str());
  ASSERT_TRUE(j.ok()) << j.error();
  EXPECT_EQ(j.stats().replayed, 3u * kRuns + 2u * kRuns / 3u);
  EXPECT_EQ(j.unfinished_runs(), static_cast<std::size_t>(kRuns / 3));
  EXPECT_TRUE(j.run_started("r0"));
  EXPECT_FALSE(j.run_finished("r0"));
  EXPECT_TRUE(j.run_finished("r2999"));
  EXPECT_EQ(j.run_obligations("r1234"), std::vector<std::string>{"k1234"});
  EXPECT_FALSE(j.run_started("r3000"));
  EXPECT_TRUE(j.run_obligations("r3000").empty());

  // Appends on the live handle update the same index.
  j.run_end("r0", 1);
  EXPECT_TRUE(j.run_finished("r0"));
  EXPECT_EQ(j.unfinished_runs(), static_cast<std::size_t>(kRuns / 3 - 1));
  j.run_start("fresh", "verify", "P", 1);
  j.obligation_done("fresh", "A", "kf", false);
  EXPECT_EQ(j.unfinished_runs(), static_cast<std::size_t>(kRuns / 3));
  EXPECT_EQ(j.run_obligations("fresh"), std::vector<std::string>{"kf"});
  // A re-run of a finished id stays finished: its run-end is on record.
  j.run_start("r1", "submit", "P", 1);
  EXPECT_EQ(j.unfinished_runs(), static_cast<std::size_t>(kRuns / 3));
}

TEST(Journal, TornTailIsTruncatedAndAppendsContinue) {
  TempDir dir;
  {
    Journal j(dir.str());
    j.run_start("r1", "verify", "P", 1);
    j.obligation_done("r1", "O", std::string(64, 'c'), false);
  }
  const std::string intact = read_file(dir.log());
  // A killed writer leaves a partial record: checksum prefix, no newline.
  append_raw(dir.log(), std::string(40, 'f') + " {\"rec\":\"obl");
  {
    Journal j(dir.str());
    ASSERT_TRUE(j.ok()) << j.error();
    EXPECT_EQ(j.stats().replayed, 2u);
    EXPECT_GT(j.stats().truncated_bytes, 0u);
    EXPECT_EQ(read_file(dir.log()), intact);  // byte-exact rollback
    j.run_end("r1", 0);  // the truncated tail never blocks new appends
  }
  Journal j2(dir.str());
  EXPECT_EQ(j2.stats().replayed, 3u);
  EXPECT_TRUE(j2.run_finished("r1"));
}

TEST(Journal, ChecksumMismatchTruncatesFromTheCorruptRecord) {
  TempDir dir;
  {
    Journal j(dir.str());
    j.run_start("r1", "verify", "P", 2);
    j.obligation_done("r1", "A", std::string(64, 'a'), false);
    j.obligation_done("r1", "B", std::string(64, 'b'), false);
  }
  // Flip one payload byte of the SECOND record; the third is intact but
  // unreachable — recovery must not trust anything past the first bad
  // checksum (the write order is the truth of what happened).
  std::string bytes = read_file(dir.log());
  std::size_t second = bytes.find("\"name\":\"A\"");
  ASSERT_NE(second, std::string::npos);
  bytes[second + 9] = 'Z';  // "A" -> "Z" under the stale checksum
  {
    std::ofstream out(dir.log(), std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  Journal j(dir.str());
  ASSERT_TRUE(j.ok()) << j.error();
  EXPECT_EQ(j.stats().replayed, 1u);  // only run-start survives
  EXPECT_GT(j.stats().truncated_bytes, 0u);
  EXPECT_TRUE(j.run_started("r1"));
  EXPECT_TRUE(j.run_obligations("r1").empty());
}

TEST(Journal, AlienOrFutureVersionFileIsResetWholesale) {
  TempDir dir;
  {
    std::ofstream out(dir.log(), std::ios::binary);
    out << "ctaver-journal v999\nsome future record format\n";
  }
  Journal j(dir.str());
  ASSERT_TRUE(j.ok()) << j.error();
  EXPECT_EQ(j.stats().replayed, 0u);
  EXPECT_GT(j.stats().truncated_bytes, 0u);
  j.run_start("r1", "verify", "P", 1);
  Journal j2(dir.str());
  EXPECT_EQ(j2.stats().replayed, 1u);
  EXPECT_EQ(read_file(dir.log()).rfind("ctaver-journal v1\n", 0), 0u);
}

TEST(Journal, UnusableDirectoryDegradesToNoop) {
  // A regular file where the cache dir should be: open fails, ok() is
  // false, and every append is a no-op returning false — the degradation
  // contract (a run proceeds, just without crash-safety).
  TempDir dir;
  std::string file = dir.str() + "/notadir";
  {
    std::ofstream out(file);
    out << "x";
  }
  Journal j(file);
  EXPECT_FALSE(j.ok());
  EXPECT_FALSE(j.error().empty());
  EXPECT_FALSE(j.append("{\"rec\":\"run-start\"}"));
  j.run_start("r", "verify", "P", 1);  // must not crash
  EXPECT_EQ(j.stats().appended, 0u);
}

TEST(Journal, RunIdIsDeterministicAndKeySensitive) {
  std::vector<verify::ObligationKey> keys = naive_keys();
  EXPECT_EQ(journal_run_id(keys), journal_run_id(keys));
  EXPECT_EQ(journal_run_id(keys).size(), 64u);
  // Any change to the obligation set — name, kind, key bytes, order —
  // names a different run: --resume refuses a mismatched command line.
  std::vector<verify::ObligationKey> renamed = keys;
  renamed[0].name += "x";
  EXPECT_NE(journal_run_id(renamed), journal_run_id(keys));
  std::vector<verify::ObligationKey> rekind = keys;
  rekind[0].parametric = !rekind[0].parametric;
  EXPECT_NE(journal_run_id(rekind), journal_run_id(keys));
  std::vector<verify::ObligationKey> reordered = keys;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(journal_run_id(reordered), journal_run_id(keys));
  std::vector<verify::ObligationKey> shorter(keys.begin(), keys.end() - 1);
  EXPECT_NE(journal_run_id(shorter), journal_run_id(keys));
}

// --- pipeline integration ----------------------------------------------

/// Deterministic report rendering, seconds excluded (the cache-test shape).
std::string render(const verify::ProtocolReport& r) {
  std::ostringstream os;
  for (const verify::PropertyResult* p :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const verify::Obligation& o : p->obligations) {
      os << verify::obligation_line(o) << " ce=[" << o.ce << "] detail=["
         << o.detail << "]\n";
    }
  }
  return os.str();
}

TEST(JournalPipeline, EveryDurableVerdictLandsARecord) {
  protocols::ProtocolModel pm = protocols::naive_voting();
  TempDir dir;
  DurableStore store(dir.str());
  std::string err;
  ASSERT_TRUE(store.open_journal(&err)) << err;
  ProofCache& cache = store.cache();
  std::string run = journal_run_id(naive_keys());

  DurableStore cold = store.begin_run(naive_keys(), "verify", pm.name);
  verify::Options opts;
  opts.store = &cold;
  opts.jobs = 4;  // TSan leg: concurrent durability-point appends
  verify::verify_protocol(pm, opts);
  cold.end_run(1);

  Journal replay(dir.str());
  EXPECT_EQ(replay.stats().replayed, 8u);  // start + 6 obligations + end
  EXPECT_TRUE(replay.run_finished(run));
  std::vector<std::string> obls = replay.run_obligations(run);
  EXPECT_EQ(obls.size(), 6u);
  // The journaled keys ARE the proof-cache keys — each one resolves.
  for (const std::string& key : obls) {
    EXPECT_TRUE(cache.lookup(key).has_value()) << key;
  }
  // Warm re-run: hits journal at probe time, with cached=true provenance.
  DurableStore warm_run = store.begin_run(naive_keys(), "verify", pm.name);
  verify::Options warm;
  warm.store = &warm_run;
  verify::verify_protocol(pm, warm);
  warm_run.end_run(1);
  std::size_t cached_records = 0;
  std::istringstream log(read_file(dir.log()));
  std::string line;
  std::getline(log, line);  // header
  while (std::getline(log, line)) {
    Json rec = Json::parse(line.substr(65));  // "<sha256> <payload>"
    if (rec.get("rec") == "obligation" && rec["cached"].as_bool()) {
      ++cached_records;
    }
  }
  EXPECT_EQ(cached_records, 6u);
}

TEST(JournalPipeline, PartialDurabilityResumesByteIdentical) {
  // Simulate a crash that left SOME obligations durable: seed the cache
  // with a full run, then surgically delete half the proof entries and
  // journal only the survivors. The "resume" run must re-prove exactly
  // the missing ones and render byte-identically to a cold run.
  protocols::ProtocolModel pm = protocols::naive_voting();
  std::string cold = render(verify::verify_protocol(pm, {}));

  TempDir dir;
  std::vector<verify::ObligationKey> keys = naive_keys();
  std::string run = journal_run_id(keys);
  {
    DurableStore seed_store(dir.str());
    ProofCache& seed = seed_store.cache();
    verify::Options opts;
    opts.store = &seed_store;
    verify::verify_protocol(pm, opts);
    // Keep the first three proofs; a crash lost the rest.
    for (std::size_t i = 3; i < keys.size(); ++i) {
      seed.invalidate(keys[i].key);
    }
    Journal j(dir.str());
    j.run_start(run, "verify", pm.name, keys.size());
    for (std::size_t i = 0; i < 3; ++i) {
      j.obligation_done(run, keys[i].name, keys[i].key, false);
    }
    // No run_end: the run is unfinished, exactly like a kill.
  }

  Journal recovered(dir.str());
  EXPECT_EQ(recovered.unfinished_runs(), 1u);
  EXPECT_TRUE(recovered.run_started(run));
  EXPECT_FALSE(recovered.run_finished(run));
  EXPECT_EQ(recovered.run_obligations(run).size(), 3u);

  DurableStore store(dir.str());
  ASSERT_TRUE(store.open_journal(nullptr));
  std::string note;
  EXPECT_TRUE(store.resume(keys, &note));
  EXPECT_EQ(note, "resuming run " + run.substr(0, 12) +
                      ": 3 of 6 obligation(s) already durable; re-proving "
                      "the rest");
  EXPECT_FALSE(store.resume({keys[0]}, &note));  // another run is unfinished
  ProofCache& cache = store.cache();
  DurableStore resumed = store.begin_run(keys, "verify", pm.name);
  verify::Options resume;
  resume.store = &resumed;
  verify::ProtocolReport r = verify::verify_protocol(pm, resume);
  resumed.end_run(1);
  EXPECT_EQ(render(r), cold);
  EXPECT_EQ(cache.stats().hits, 3u);    // the durable survivors replayed
  EXPECT_EQ(cache.stats().misses, 3u);  // the lost ones re-proved
  Journal after(dir.str());
  EXPECT_TRUE(after.run_finished(run));
  EXPECT_EQ(after.run_obligations(run).size(), 6u);
  EXPECT_EQ(after.unfinished_runs(), 0u);
}

}  // namespace
}  // namespace ctaver::svc
