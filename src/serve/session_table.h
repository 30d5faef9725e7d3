#ifndef EADRL_SERVE_SESSION_TABLE_H_
#define EADRL_SERVE_SESSION_TABLE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "chk/lockdep.h"
#include "chk/thread_annotations.h"
#include "common/status.h"
#include "core/eadrl.h"
#include "ts/drift.h"
#include "ts/scaler.h"

namespace eadrl::serve {

/// A trained EA-DRL policy shared by many tenant sessions. The combiner is
/// immutable online (paper default OnlineUpdateMode::kNone), and its agent's
/// const ActBatch writes only the caller's buffers, so concurrent waves share
/// one actor network without a lock — which is what allows cross-tenant
/// batched passes. `fresh_state` snapshots the combiner's online state right
/// after training; every new (or reset) session starts from a copy of it.
struct Policy {
  /// Immutable after RegisterPolicy publishes the policy (online updates are
  /// off in serving); waves only call its const inference paths.
  std::unique_ptr<core::EadrlCombiner> combiner EADRL_UNGUARDED;
  core::OnlineState fresh_state EADRL_UNGUARDED;  ///< written pre-publication.
  /// Registration index, written pre-publication — the per-policy
  /// drill-down label ("policy=<id>").
  size_t id EADRL_UNGUARDED = 0;
  /// `id` rendered once at registration so the per-request drill-down
  /// observation never allocates a label string on the serving path.
  std::string label EADRL_UNGUARDED;
};

/// One resident tenant session: a reference to the shared policy plus
/// everything Predict/ObserveActual mutate per tenant. All fields below
/// `session_mu` are guarded by it; the serving layer's
/// one-request-per-session-per-wave rule means waves never contend on it,
/// but Stats/GetSessionInfo readers do.
struct Session {
  /// Opted out of clang's thread-safety analysis: the constructor calls
  /// Reset() (which requires session_mu) before the session is published,
  /// when no other thread can see it.
  Session(std::string tenant_in, std::shared_ptr<Policy> policy_in,
          uint64_t generation_in, const ts::StandardScaler* scaler_in,
          double drift_delta,
          double drift_lambda) EADRL_NO_THREAD_SAFETY_ANALYSIS;

  /// Restores fresh-construction state: the online window is re-cloned from
  /// the policy snapshot, the drift detector and per-session counters are
  /// zeroed. Called under `session_mu` (ForecastService::ResetSession) or
  /// before the session is published (the constructor). This is the reset
  /// contract of session recreation: no drift or window state may leak
  /// across a session's lifetimes.
  void Reset() EADRL_REQUIRES(session_mu);

  /// The owning tenant's key — carried on the session so the wave processor
  /// can label drill-down metrics without a reverse table lookup.
  const std::string tenant EADRL_UNGUARDED;  ///< const after ctor.
  std::shared_ptr<Policy> policy EADRL_UNGUARDED;  ///< const after ctor.
  /// Monotone id distinguishing a session from any predecessor under the
  /// same tenant key (eviction + recreation bumps it) — regression tests use
  /// it to prove state did not leak across recreation.
  const uint64_t generation;
  /// Affine map between the tenant's series units and the policy's training
  /// units (absent: the tenant already speaks policy units). Admission maps
  /// payloads into policy units; the wave maps forecasts back.
  const bool has_scaler;
  const ts::StandardScaler scaler;
  const double drift_delta;
  const double drift_lambda;

  chk::OrderedMutex session_mu{EADRL_LOCK_RANK(serve_session),
                               "serve::Session::session_mu"};
  core::OnlineState state EADRL_GUARDED_BY(session_mu);
  ts::PageHinkley drift EADRL_GUARDED_BY(session_mu);
  /// Policy units.
  double last_prediction EADRL_GUARDED_BY(session_mu) = 0.0;
  bool has_last_prediction EADRL_GUARDED_BY(session_mu) = false;
  uint64_t predicts EADRL_GUARDED_BY(session_mu) = 0;
  uint64_t observes EADRL_GUARDED_BY(session_mu) = 0;
  uint64_t drift_events EADRL_GUARDED_BY(session_mu) = 0;
};

/// Sharded, mutex-striped map of resident sessions with LRU capacity
/// eviction and TTL idle eviction. Keys hash to one of `shards` stripes;
/// operations on different stripes never contend, which is what keeps a
/// multi-tenant admission path scalable (tests/serve_race_test.cc exercises
/// this under TSan).
///
/// Capacity is enforced per stripe (max_sessions / shards, at least 1), so a
/// pathological key distribution can evict slightly before the global cap —
/// the standard striped-LRU trade-off.
class SessionTable {
 public:
  struct Options {
    size_t shards = 16;
    size_t max_sessions = 0;     ///< 0 = unbounded.
    double ttl_seconds = 0.0;    ///< 0 = no idle eviction.
  };

  explicit SessionTable(const Options& options);

  /// Publishes a session under `tenant`. FailedPrecondition when the tenant
  /// already has one. May LRU-evict the stripe's least-recently-used session
  /// when the stripe is at capacity.
  Status Insert(const std::string& tenant, std::shared_ptr<Session> session);

  /// Returns the session and marks it most-recently-used (with a session
  /// cap) and active now (with a TTL); nullptr when the tenant is not
  /// resident.
  std::shared_ptr<Session> Lookup(const std::string& tenant);

  /// Removes the tenant's session. False when not resident.
  bool Erase(const std::string& tenant);

  /// Sweeps every stripe, evicting sessions idle longer than ttl_seconds.
  /// Returns the number evicted (always 0 without a TTL).
  size_t EvictIdle();

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  uint64_t lru_evictions() const {
    return lru_evictions_.load(std::memory_order_relaxed);
  }
  uint64_t ttl_evictions() const {
    return ttl_evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::shared_ptr<Session> session;
    /// Position in the stripe's recency list (front = most recent).
    std::list<std::string>::iterator lru_it;
    std::chrono::steady_clock::time_point last_activity;
  };

  struct Shard {
    mutable chk::OrderedMutex stripe_mu{
        EADRL_LOCK_RANK(serve_table_shard),
        "serve::SessionTable::Shard::stripe_mu"};
    std::unordered_map<std::string, Entry> map EADRL_GUARDED_BY(stripe_mu);
    std::list<std::string> lru EADRL_GUARDED_BY(stripe_mu);
  };

  Shard& ShardFor(const std::string& tenant);

  /// Removes `it` from `shard` (caller holds the stripe lock) inside a
  /// `serve_evict` span carrying the tenant, generation and `reason` (lru,
  /// ttl or explicit). The span may record under the stripe lock:
  /// obs_trace_shard is the last rank in lock_order.def.
  void EraseLocked(Shard* shard,
                   std::unordered_map<std::string, Entry>::iterator it,
                   const char* reason) EADRL_REQUIRES(shard->stripe_mu);

  Options opt_;
  size_t per_shard_cap_;  ///< 0 = unbounded.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> lru_evictions_{0};
  std::atomic<uint64_t> ttl_evictions_{0};
};

}  // namespace eadrl::serve

#endif  // EADRL_SERVE_SESSION_TABLE_H_
