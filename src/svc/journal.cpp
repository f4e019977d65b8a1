#include "svc/journal.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "obs/metrics.h"
#include "util/hash.h"
#include "verify/pipeline.h"

namespace ctaver::svc {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMagic = "ctaver-journal v1";

/// Full write at the current offset; EINTR-safe. False on any failure
/// (including short writes the retry loop cannot finish) — the bytes
/// already out are a torn tail the next open truncates.
bool write_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void fsync_dir(const std::string& dir) {
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

Journal::Journal(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);  // open below reports any real failure
  path_ = (fs::path(dir) / file_name()).string();
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    error_ = path_ + ": " + std::strerror(errno);
    return;
  }
  // Make the file's existence durable, not just its bytes: a crash between
  // create and the parent directory's metadata landing would lose the whole
  // journal.
  fsync_dir(dir);
  // The lock serializes the scan-and-truncate against a concurrent writer
  // (e.g. a daemon already journaling into this cache dir).
  while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
  }
  recover();
  ::flock(fd_, LOCK_UN);
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::recover() {
  std::string all;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = path_ + ": read: " + std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      return;
    }
    if (n == 0) break;
    all.append(chunk, static_cast<std::size_t>(n));
  }

  auto reset_file = [&]() {
    // Alien or pre-v1 content: the journal is bookkeeping, the proofs it
    // references live in the cache — resetting loses nothing durable.
    stats_.truncated_bytes += all.size();
    if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) return;
    std::string header = std::string(kMagic) + "\n";
    write_all(fd_, header.data(), header.size());
    ::fsync(fd_);
  };

  if (all.empty()) {
    std::string header = std::string(kMagic) + "\n";
    if (!write_all(fd_, header.data(), header.size())) {
      error_ = path_ + ": write: " + std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      return;
    }
    ::fsync(fd_);
    return;
  }

  std::string want = std::string(kMagic) + "\n";
  if (all.size() < want.size() || all.compare(0, want.size(), want) != 0) {
    reset_file();
    if (stats_.truncated_bytes > 0) {
      obs::add(obs::Counter::kJournalTruncatedBytes, stats_.truncated_bytes);
    }
    return;
  }

  // Scan records; `good_end` advances past every intact line. The first
  // torn line (no '\n'), checksum mismatch, or unparseable payload stops
  // the scan — everything from there is a tail we cannot vouch for.
  std::size_t pos = want.size();
  std::size_t good_end = pos;
  while (pos < all.size()) {
    std::size_t nl = all.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: writer died mid-line
    // "<64 hex> <payload>"
    if (nl - pos < 66 || all[pos + 64] != ' ') break;
    std::string sum(all, pos, 64);
    std::string payload(all, pos + 65, nl - pos - 65);
    if (util::sha256_hex(payload) != sum) break;
    Json rec;
    try {
      rec = Json::parse(payload);
    } catch (const std::exception&) {
      break;
    }
    index(rec);
    ++stats_.replayed;
    pos = nl + 1;
    good_end = pos;
  }
  obs::add(obs::Counter::kJournalReplayed, stats_.replayed);
  if (good_end < all.size()) {
    stats_.truncated_bytes += all.size() - good_end;
    obs::add(obs::Counter::kJournalTruncatedBytes, all.size() - good_end);
    if (::ftruncate(fd_, static_cast<off_t>(good_end)) == 0) ::fsync(fd_);
  }
}

bool Journal::append(const std::string& payload) {
  if (fd_ < 0) return false;
  std::string line = util::sha256_hex(payload) + " " + payload + "\n";
  std::lock_guard<std::mutex> lock(mu_);
  while (::flock(fd_, LOCK_EX) != 0) {
    if (errno != EINTR) return false;
  }
  bool ok = ::lseek(fd_, 0, SEEK_END) >= 0 &&
            write_all(fd_, line.data(), line.size()) && ::fsync(fd_) == 0;
  ::flock(fd_, LOCK_UN);
  if (ok) {
    ++stats_.appended;
    obs::add(obs::Counter::kJournalRecords);
    // Index the durable record, so queries on this handle (the daemon's
    // stats, a resume check) see it without a reopen.
    try {
      index(Json::parse(payload));
    } catch (const std::exception&) {
      // Not query-relevant then; the bytes are on disk regardless.
    }
  }
  return ok;
}

void Journal::run_start(const std::string& run_id, const std::string& kind,
                        const std::string& name, std::size_t total) {
  std::ostringstream os;
  os << "{\"rec\":\"run-start\",\"run\":\"" << obs::json_escape(run_id)
     << "\",\"kind\":\"" << obs::json_escape(kind) << "\",\"name\":\""
     << obs::json_escape(name) << "\",\"total\":" << total << "}";
  append(os.str());
}

void Journal::obligation_done(const std::string& run_id,
                              const std::string& name, const std::string& key,
                              bool cached) {
  std::ostringstream os;
  os << "{\"rec\":\"obligation\",\"run\":\"" << obs::json_escape(run_id)
     << "\",\"name\":\"" << obs::json_escape(name) << "\",\"key\":\""
     << obs::json_escape(key) << "\",\"cached\":" << (cached ? "true" : "false")
     << "}";
  append(os.str());
}

void Journal::run_end(const std::string& run_id, int exit_code) {
  std::ostringstream os;
  os << "{\"rec\":\"run-end\",\"run\":\"" << obs::json_escape(run_id)
     << "\",\"exit\":" << exit_code << "}";
  append(os.str());
}

void Journal::index(const Json& rec) {
  const std::string kind = rec.get("rec");
  if (kind != "run-start" && kind != "run-end" && kind != "obligation") {
    return;
  }
  RunIndex& run = runs_[rec.get("run")];
  if (kind == "run-start") {
    run.started = true;
  } else if (kind == "run-end") {
    run.finished = true;
  } else {
    const std::string key = rec.get("key");
    if (std::find(run.keys.begin(), run.keys.end(), key) == run.keys.end()) {
      run.keys.push_back(key);
    }
  }
}

bool Journal::run_started(const std::string& run_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = runs_.find(run_id);
  return it != runs_.end() && it->second.started;
}

bool Journal::run_finished(const std::string& run_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = runs_.find(run_id);
  return it != runs_.end() && it->second.finished;
}

std::size_t Journal::unfinished_runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, run] : runs_) n += run.started && !run.finished;
  return n;
}

std::vector<std::string> Journal::run_obligations(
    const std::string& run_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = runs_.find(run_id);
  return it != runs_.end() ? it->second.keys : std::vector<std::string>();
}

std::string journal_run_id(const std::vector<verify::ObligationKey>& keys) {
  std::string acc;
  for (const verify::ObligationKey& k : keys) {
    acc += k.name;
    acc += k.parametric ? "\x1fp\x1f" : "\x1fs\x1f";
    acc += k.key;
    acc += '\n';
  }
  return util::sha256_hex(acc);
}

}  // namespace ctaver::svc
