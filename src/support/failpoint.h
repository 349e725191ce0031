// Named, deterministic fault-injection points for failure-containment
// testing.
//
// A failpoint is a named site in production code where a test (or the chaos
// harness in tests/chaos_test.cpp) can script a fault: inject an error, a
// latency spike, or both. Sites are declared inline where the failure would
// naturally occur:
//
//   IRGNN_FAILPOINT("serve.forward",
//                   forward_status = Status::Internal("injected fault"));
//
// and tests arm them by name:
//
//   support::failpoints::set_seed(0xC405);
//   support::failpoints::configure("serve.forward",
//                                  {.probability = 0.25, .delay_us = 500});
//
// Three properties define the design:
//
//   Compile-time zero cost when off. Failpoints exist only when the library
//   is built with -DIRGNN_FAILPOINTS=ON (CMake option, off by default);
//   otherwise IRGNN_FAILPOINT expands to `do {} while (0)` — no branch, no
//   counter, no registry, nothing for the optimizer to even delete. The
//   zero-allocation counting-new tests and microbench_kernels pin that the
//   default build's hot paths are untouched.
//
//   Deterministic activation. Every site keeps a monotonically increasing
//   hit counter; whether hit k fires is a pure function of (global seed,
//   site name, k): probabilistic specs draw
//   splitmix64(hash_combine64(site_seed, k)) and compare against the
//   probability threshold, every-Nth specs fire when k divides, one-shot
//   specs fire at exactly hit `one_shot_hit`. The same seed therefore
//   reproduces the same fault schedule — which hit numbers fail — at every
//   thread count (which *thread* draws a given hit number still depends on
//   interleaving; the chaos harness's scripted mode drives sites from one
//   thread when it wants bit-exact stat reproduction).
//
//   Error and latency are independent. A firing hit first sleeps
//   `delay_us` (latency injection — a slow disk, a GC pause, a NUMA-remote
//   stall), then runs the site's error action if `inject_error` is set.
//   `delay_us = 0, inject_error = true` is a pure fault;
//   `delay_us > 0, inject_error = false` is a pure stall.
//
// The macro's second argument is a statement; `return x;` works (it returns
// from the enclosing function), but `break`/`continue` would bind to the
// macro's own do-while — use a flag variable for those.
//
// Sites threaded through the library (see each file for exact semantics):
//   serve.forward       InferenceServer::pump_one — the batch forward fails
//                       Internal without running the model.
//   serve.admit         InferenceServer::admit_locked — admission fails
//                       Overloaded (simulated queue exhaustion).
//   serve.cache_insert  InferenceServer::pump_one — the batch's results are
//                       not cached (cache unavailability).
//   net.accept          NetServer::do_accept — the accepted connection is
//                       closed at once (counted in accept_failures).
//   net.read            NetServer::read_conn — the read fails and the
//                       connection closes.
//   net.decode          NetServer::handle_request — the request payload
//                       decodes InvalidArgument.
//   net.write           NetServer::flush_conn — the send is cut to one byte
//                       (a short write).
//   arena.allocate      BufferPool::allocate — throws std::bad_alloc, the
//                       realistic cause of a failed forward (the serving
//                       layer must catch it and resolve the batch Internal,
//                       never unwind into a pumping client).
#pragma once

#include <cstdint>
#include <string_view>

namespace irgnn::support::failpoints {

/// What an armed failpoint does when it fires. A default-constructed spec
/// never fires (no trigger configured).
struct FailpointSpec {
  /// Deterministic per-hit Bernoulli: hit k fires iff
  /// splitmix64(hash_combine64(site_seed, k)) < probability * 2^64.
  /// Ignored when every_nth or one_shot_hit is set. >= 1.0 fires always.
  double probability = 0.0;

  /// Fire on every hit k with k % every_nth == 0 (1 = every hit). Takes
  /// precedence over probability; ignored when one_shot_hit is set.
  std::uint64_t every_nth = 0;

  /// Fire exactly once, at 1-based hit number `one_shot_hit`. Highest
  /// precedence trigger.
  std::uint64_t one_shot_hit = 0;

  /// Total fire budget; < 0 means unlimited. The site stops firing (but
  /// keeps counting hits) once spent.
  std::int64_t max_fires = -1;

  /// Latency injection: a firing hit sleeps this long before running the
  /// site's error action (if any).
  std::int64_t delay_us = 0;

  /// Run the site's error action on fire. Off turns the site into a pure
  /// latency injector.
  bool inject_error = true;
};

#if defined(IRGNN_FAILPOINTS)

/// True in builds with failpoints compiled in — lets tests and benches skip
/// (rather than fail) fault-dependent sections in default builds.
constexpr bool enabled() { return true; }

/// Sets the global seed the per-site probability streams derive from, and
/// resets every site's hit/fire counters: a chaos run is (seed; configure*;
/// traffic), reproducible from set_seed on.
void set_seed(std::uint64_t seed);

/// Arms `name` with `spec`, resetting the site's hit/fire counters so
/// every-Nth and one-shot schedules count from the configure call. Sites
/// are created on demand: configuring before the code path first executes
/// is valid (and typical).
void configure(std::string_view name, const FailpointSpec& spec);

/// Disarms `name` (counters retained for inspection).
void disable(std::string_view name);

/// Disarms every site. Tests should call this on teardown; an armed
/// failpoint outliving its test is a classic cross-test heisenbug.
void disable_all();

/// Times the named site was reached / actually fired since its last
/// configure (0 for a never-configured or never-reached site).
std::uint64_t hits(std::string_view name);
std::uint64_t fires(std::string_view name);

namespace detail {

struct SiteState;

/// One IRGNN_FAILPOINT expansion. The function-local static resolves its
/// shared per-name state once (registry lookup under a mutex); after that,
/// an unarmed pass is one relaxed atomic increment and one acquire load.
class FailpointSite {
 public:
  explicit FailpointSite(std::string_view name);

  /// True when this hit fires. Applies the spec's latency injection
  /// (sleeping WITHOUT any failpoint lock held) before returning, so the
  /// caller only has to run its error action when `inject_error` was set
  /// (reported through *run_error_action).
  bool should_fire(bool* run_error_action);

 private:
  SiteState* state_;  // owned by the (leaky) registry, never dangles
};

}  // namespace detail

#define IRGNN_FAILPOINT(name, error_action)                                  \
  do {                                                                       \
    static ::irgnn::support::failpoints::detail::FailpointSite               \
        irgnn_failpoint_site_{(name)};                                       \
    bool irgnn_failpoint_error_ = false;                                     \
    if (irgnn_failpoint_site_.should_fire(&irgnn_failpoint_error_) &&        \
        irgnn_failpoint_error_) {                                            \
      error_action;                                                          \
    }                                                                        \
  } while (0)

#else  // !defined(IRGNN_FAILPOINTS)

// Stubs so configuration code (benches, the chaos harness's healthy mode)
// compiles against the same API in default builds; all of it is dead cheap
// and the macro itself vanishes entirely.
constexpr bool enabled() { return false; }
inline void set_seed(std::uint64_t) {}
inline void configure(std::string_view, const FailpointSpec&) {}
inline void disable(std::string_view) {}
inline void disable_all() {}
inline std::uint64_t hits(std::string_view) { return 0; }
inline std::uint64_t fires(std::string_view) { return 0; }

#define IRGNN_FAILPOINT(name, error_action) \
  do {                                      \
  } while (0)

#endif  // IRGNN_FAILPOINTS

}  // namespace irgnn::support::failpoints
