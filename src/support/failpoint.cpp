#include "support/failpoint.h"

#if defined(IRGNN_FAILPOINTS)

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "support/rng.h"

namespace irgnn::support::failpoints {
namespace detail {

struct SiteState {
  std::string name;

  // Fast path: one relaxed increment + one acquire load per pass. The hit
  // counter keeps counting even while disarmed so hits() reflects traffic,
  // but schedules (every-Nth, one-shot, Bernoulli index) are relative to
  // the counter value captured at configure() time.
  std::atomic<std::uint64_t> hits{0};
  std::atomic<bool> armed{false};

  // Slow path, only touched when armed (or by the registry API).
  std::mutex mu;
  FailpointSpec spec;
  std::uint64_t hits_at_configure = 0;  // schedule origin
  std::uint64_t fires = 0;
  std::uint64_t site_seed = 0;  // hash_combine64(global_seed, name hash)
};

}  // namespace detail

namespace {

using detail::SiteState;

// Leaky singleton: FailpointSite statics in library code resolve registry
// pointers that must outlive every server destructor, including ones
// running during static destruction. Never freed, by design.
struct Registry {
  std::mutex mu;
  std::uint64_t global_seed = 0;
  // std::map: node-stable, so SiteState* handed to FailpointSite never moves.
  std::map<std::string, SiteState, std::less<>> sites;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

std::uint64_t name_hash(std::string_view name) {
  // FNV-1a, then splitmix for avalanche; stable across runs and platforms.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return splitmix64(h);
}

SiteState& site_for(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(name);
  if (it == r.sites.end()) {
    it = r.sites.try_emplace(std::string(name)).first;
    it->second.name = it->first;
    std::uint64_t h = name_hash(name);
    it->second.site_seed = hash_combine64(r.global_seed, h);
  }
  return it->second;
}

}  // namespace

void set_seed(std::uint64_t seed) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.global_seed = seed;
  for (auto& [name, site] : r.sites) {
    std::lock_guard<std::mutex> site_lock(site.mu);
    site.site_seed = hash_combine64(seed, name_hash(name));
    site.hits.store(0, std::memory_order_relaxed);
    site.hits_at_configure = 0;
    site.fires = 0;
  }
}

void configure(std::string_view name, const FailpointSpec& spec) {
  SiteState& site = site_for(name);
  {
    std::lock_guard<std::mutex> lock(site.mu);
    site.spec = spec;
    site.hits_at_configure = site.hits.load(std::memory_order_relaxed);
    site.fires = 0;
  }
  site.armed.store(true, std::memory_order_release);
}

void disable(std::string_view name) {
  site_for(name).armed.store(false, std::memory_order_release);
}

void disable_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, site] : r.sites)
    site.armed.store(false, std::memory_order_release);
}

std::uint64_t hits(std::string_view name) {
  SiteState& site = site_for(name);
  std::lock_guard<std::mutex> lock(site.mu);
  return site.hits.load(std::memory_order_relaxed) - site.hits_at_configure;
}

std::uint64_t fires(std::string_view name) {
  SiteState& site = site_for(name);
  std::lock_guard<std::mutex> lock(site.mu);
  return site.fires;
}

namespace detail {

FailpointSite::FailpointSite(std::string_view name)
    : state_(&site_for(name)) {}

bool FailpointSite::should_fire(bool* run_error_action) {
  // Relaxed is enough: each hit only needs a unique index, not ordering
  // against other memory. fetch_add returns the pre-increment value; +1
  // makes hit numbers 1-based as documented.
  std::uint64_t raw_hit =
      state_->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!state_->armed.load(std::memory_order_acquire)) return false;

  FailpointSpec spec;
  std::uint64_t k;  // 1-based hit number within the current schedule
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (raw_hit <= state_->hits_at_configure) return false;  // stale hit
    spec = state_->spec;
    k = raw_hit - state_->hits_at_configure;
    if (spec.max_fires >= 0 &&
        state_->fires >= static_cast<std::uint64_t>(spec.max_fires))
      return false;

    bool fire;
    if (spec.one_shot_hit != 0) {
      fire = (k == spec.one_shot_hit);
    } else if (spec.every_nth != 0) {
      fire = (k % spec.every_nth == 0);
    } else if (spec.probability > 0.0) {
      if (spec.probability >= 1.0) {
        fire = true;
      } else {
        // Deterministic Bernoulli: the decision for hit k is a pure
        // function of (site_seed, k), independent of which thread got here.
        std::uint64_t s = hash_combine64(state_->site_seed, k);
        std::uint64_t draw = splitmix64(s);
        // threshold = probability * 2^64, computed without overflow.
        auto threshold = static_cast<std::uint64_t>(
            spec.probability * 18446744073709551616.0);
        fire = draw < threshold;
      }
    } else {
      fire = false;
    }
    if (!fire) return false;
    ++state_->fires;
  }

  // Latency injection happens outside the site lock so a slow failpoint
  // never serializes other hits (or the registry API) behind the sleep.
  if (spec.delay_us > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(spec.delay_us));
  *run_error_action = spec.inject_error;
  return true;
}

}  // namespace detail
}  // namespace irgnn::support::failpoints

#endif  // IRGNN_FAILPOINTS
