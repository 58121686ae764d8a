#include "common/fault.hpp"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hpp"

namespace ota::fault {

namespace detail {
std::atomic<bool> g_enabled{[] {
  const char* env = std::getenv("OTA_FAULTS");
  return env != nullptr && *env != '\0';
}()};
}  // namespace detail

namespace {

struct Rule {
  enum class Mode { kOnce, kEvery, kProb };
  Mode mode = Mode::kOnce;
  uint64_t n = 0;     // once / every argument
  double p = 0.0;     // prob argument
  uint64_t seed = 0;  // prob stream seed
  /// Mutable: the hot path counts hits through a const Spec pointer.
  mutable std::atomic<uint64_t> hits{0};
  mutable std::atomic<uint64_t> fired{0};
};

/// A parsed spec.  Rules live in a node-stable map so the hot path can hold
/// references while other threads read concurrently; all mutation after
/// install goes through the per-rule atomics.
struct Spec {
  std::map<std::string, Rule, std::less<>> rules;
};

std::mutex& install_mu() {
  static std::mutex mu;
  return mu;
}

struct State {
  /// The active spec, read lock-free by should_fire.  Null = none installed
  /// yet (the OTA_FAULTS environment may still be pending a lazy parse).
  std::atomic<const Spec*> active{nullptr};
  /// Every spec ever installed.  Replaced specs are kept alive (not leaked:
  /// freed at exit) because a concurrent should_fire may still hold a
  /// pointer into one; installs are rare, so the graveyard stays tiny.
  std::vector<std::unique_ptr<Spec>> all;
  bool env_consumed = false;  ///< OTA_FAULTS already parsed or overridden
};

State& state() {
  static State* s = new State();  // never destroyed: sites may outlive exit order
  return *s;
}

/// Default prob-mode stream seed: FNV-1a of the site name, so distinct sites
/// draw from decorrelated streams without the spec naming seeds explicitly.
uint64_t site_seed(std::string_view site) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Uniform double in [0, 1) from the top 53 bits of a SplitMix64 output.
double u01(uint64_t seed) {
  return static_cast<double>(SplitMix64(seed).next() >> 11) * 0x1.0p-53;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

[[noreturn]] void bad_spec(std::string_view entry, const std::string& why) {
  throw InvalidArgument("fault::install_spec: bad entry '" +
                        std::string(entry) + "': " + why +
                        " (grammar: site:once=N | site:every=N | "
                        "site:prob=P[@seed], entries joined by ';')");
}

uint64_t parse_u64(std::string_view entry, std::string_view text,
                   const std::string& what) {
  if (text.empty()) bad_spec(entry, what + " is empty");
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') bad_spec(entry, what + " must be a positive integer");
    const auto digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      bad_spec(entry, what + " does not fit in 64 bits");
    }
    value = value * 10 + digit;
  }
  return value;
}

void parse_entry(std::string_view raw, Spec& spec) {
  const std::string_view entry = trim(raw);
  if (entry.empty()) return;
  const size_t colon = entry.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    bad_spec(entry, "expected 'site:mode'");
  }
  const std::string site(trim(entry.substr(0, colon)));
  const std::string_view mode = trim(entry.substr(colon + 1));

  Rule rule;
  if (mode.rfind("once=", 0) == 0) {
    rule.mode = Rule::Mode::kOnce;
    rule.n = parse_u64(entry, mode.substr(5), "once count");
    if (rule.n == 0) bad_spec(entry, "once=N needs N >= 1 (hits are 1-based)");
  } else if (mode.rfind("every=", 0) == 0) {
    rule.mode = Rule::Mode::kEvery;
    rule.n = parse_u64(entry, mode.substr(6), "every period");
    if (rule.n == 0) bad_spec(entry, "every=N needs N >= 1");
  } else if (mode.rfind("prob=", 0) == 0) {
    rule.mode = Rule::Mode::kProb;
    std::string_view arg = mode.substr(5);
    rule.seed = site_seed(site);
    if (const size_t at = arg.find('@'); at != std::string_view::npos) {
      rule.seed = parse_u64(entry, arg.substr(at + 1), "prob seed");
      arg = arg.substr(0, at);
    }
    char* end = nullptr;
    const std::string num(arg);
    rule.p = std::strtod(num.c_str(), &end);
    // Written as "not inside" so NaN, which compares false both ways, fails.
    if (num.empty() || end != num.c_str() + num.size() ||
        !(rule.p >= 0.0 && rule.p <= 1.0)) {
      bad_spec(entry, "prob=P needs P in [0, 1]");
    }
  } else {
    bad_spec(entry, "unknown mode '" + std::string(mode) + "'");
  }

  auto [it, inserted] = spec.rules.try_emplace(site);
  if (!inserted) bad_spec(entry, "duplicate site '" + site + "'");
  it->second.mode = rule.mode;
  it->second.n = rule.n;
  it->second.p = rule.p;
  it->second.seed = rule.seed;
}

std::unique_ptr<Spec> parse_spec(const std::string& text) {
  auto spec = std::make_unique<Spec>();
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t semi = text.find(';', pos);
    const size_t end = semi == std::string::npos ? text.size() : semi;
    parse_entry(std::string_view(text).substr(pos, end - pos), *spec);
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  return spec;
}

/// Publishes `spec` (already parsed) as the active spec.  Caller holds
/// install_mu().
void publish_locked(std::unique_ptr<Spec> spec) {
  State& s = state();
  s.env_consumed = true;
  const bool empty = spec->rules.empty();
  const Spec* raw = spec.get();
  s.all.push_back(std::move(spec));
  s.active.store(empty ? nullptr : raw, std::memory_order_release);
  detail::g_enabled.store(!empty, std::memory_order_release);
}

/// First-hit path when OTA_FAULTS is set but nothing was installed yet:
/// parse the environment exactly once.  A malformed environment spec throws
/// from the faulting site — loud and early beats silently ignoring it.
const Spec* load_env_spec() {
  std::lock_guard<std::mutex> lk(install_mu());
  State& s = state();
  const Spec* active = s.active.load(std::memory_order_acquire);
  if (active || s.env_consumed) return active;
  const char* env = std::getenv("OTA_FAULTS");
  publish_locked(parse_spec(env ? env : ""));
  return s.active.load(std::memory_order_acquire);
}

}  // namespace

std::optional<uint64_t> should_fire(std::string_view site) {
  const Spec* spec = state().active.load(std::memory_order_acquire);
  if (!spec) {
    spec = load_env_spec();
    if (!spec) return std::nullopt;
  }
  const auto it = spec->rules.find(site);
  if (it == spec->rules.end()) return std::nullopt;
  // The decision is a pure function of the hit index claimed here, so the
  // set of firing indices is independent of which thread claims which hit.
  const Rule& rule = it->second;
  const uint64_t hit = rule.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  switch (rule.mode) {
    case Rule::Mode::kOnce:
      fire = hit == rule.n;
      break;
    case Rule::Mode::kEvery:
      fire = hit % rule.n == 0;
      break;
    case Rule::Mode::kProb:
      fire = u01(stream_seed(rule.seed, hit)) < rule.p;
      break;
  }
  if (!fire) return std::nullopt;
  rule.fired.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

std::string fault_message(std::string_view site, uint64_t hit) {
  return "fault injected at '" + std::string(site) + "' (hit " +
         std::to_string(hit) + ")";
}

void install_spec(const std::string& spec) {
  auto parsed = parse_spec(spec);  // throws before touching the active spec
  std::lock_guard<std::mutex> lk(install_mu());
  publish_locked(std::move(parsed));
}

void clear() { install_spec(""); }

std::map<std::string, SiteStats> stats() {
  std::map<std::string, SiteStats> out;
  std::lock_guard<std::mutex> lk(install_mu());
  const Spec* spec = state().active.load(std::memory_order_acquire);
  if (!spec) return out;
  for (const auto& [site, rule] : spec->rules) {
    out[site] = SiteStats{rule.hits.load(std::memory_order_relaxed),
                          rule.fired.load(std::memory_order_relaxed)};
  }
  return out;
}

}  // namespace ota::fault
