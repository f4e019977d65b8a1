#include "frontend/registry.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "frontend/lower.h"
#include "util/logging.h"
#include "util/strings.h"

namespace ctaver::frontend {

namespace {

/// The builtins in Table-II order, each under the name its spec declares.
struct Builtin {
  const char* name;
  const char* file;  // in specs/
};
constexpr Builtin kBuiltins[] = {
    {"NaiveVoting", "naive_voting.cta"}, {"Rabin83", "rabin83.cta"},
    {"CC85a", "cc85a.cta"},              {"CC85b", "cc85b.cta"},
    {"FMR05", "fmr05.cta"},              {"KS16", "ks16.cta"},
    {"MMR14", "mmr14.cta"},              {"Miller18", "miller18.cta"},
    {"ABY22", "aby22.cta"}};

/// The text of specs/`file` as embedded at build time ("" if absent). The
/// top-level CMake build generates builtin_specs.inc from specs/*.cta; the
/// e2e_bench harness compiles src/ without that step, so there the
/// builtins keep their names but cannot be made.
std::string_view embedded_spec(std::string_view file) {
#if __has_include("builtin_specs.inc")
  static constexpr std::pair<std::string_view, std::string_view> kSpecs[] = {
#include "builtin_specs.inc"
  };
  for (const auto& [f, text] : kSpecs) {
    if (f == file) return text;
  }
#endif
  return {};
}

protocols::ProtocolModel lower_builtin(const Builtin& b) {
  const std::string file = std::string("specs/") + b.file;
  std::string_view text = embedded_spec(b.file);
  if (text.empty()) {
    throw std::runtime_error("builtin " + std::string(b.name) + ": " + file +
                             " is not embedded in this build");
  }
  return load_spec_string(std::string(text), file);
}

}  // namespace

ProtocolRegistry ProtocolRegistry::with_builtins() {
  ProtocolRegistry r;
  for (const Builtin& b : kBuiltins) {
    r.add(b.name, [&b] { return lower_builtin(b); }, "builtin");
  }
  return r;
}

protocols::ProtocolModel builtin(const std::string& name) {
  return ProtocolRegistry::with_builtins().make(name);
}

void ProtocolRegistry::add(const std::string& name, Factory factory,
                           std::string origin) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.factory = std::move(factory);
      e.origin = std::move(origin);
      return;
    }
  }
  entries_.push_back({name, std::move(factory), std::move(origin)});
}

std::string ProtocolRegistry::add_file(const std::string& path) {
  protocols::ProtocolModel pm = load_spec_file(path);
  std::string name = pm.name;
  add(name, [pm = std::move(pm)]() { return pm; }, path);
  return name;
}

std::vector<std::string> ProtocolRegistry::add_directory(
    const std::string& dir) {
  // Sorted for a deterministic registration (and thus `names()`) order —
  // directory_iterator order is filesystem-dependent.
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".cta") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> names;
  names.reserve(paths.size());
  for (const std::string& path : paths) names.push_back(add_file(path));
  CTAVER_LOG(kInfo) << "registered " << names.size() << " spec(s) from "
                    << dir;
  return names;
}

const ProtocolRegistry::Entry* ProtocolRegistry::find(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

bool ProtocolRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

protocols::ProtocolModel ProtocolRegistry::make(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) {
    std::vector<std::string> known = names();
    throw std::out_of_range("unknown protocol '" + name + "' (registered: " +
                            util::join(known, ", ") + ")");
  }
  return e->factory();
}

const std::string& ProtocolRegistry::origin(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) {
    throw std::out_of_range("unknown protocol '" + name + "'");
  }
  return e->origin;
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

namespace {

bool looks_like_path(const std::string& s) {
  if (s.find('/') != std::string::npos) return true;
  return s.size() > 4 && s.compare(s.size() - 4, 4, ".cta") == 0;
}

}  // namespace

protocols::ProtocolModel ProtocolRegistry::resolve(
    const std::string& name_or_path) const {
  if (looks_like_path(name_or_path)) return load_spec_file(name_or_path);
  return make(name_or_path);
}

}  // namespace ctaver::frontend
