#include "serve/session_table.h"

#include <functional>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace eadrl::serve {

Session::Session(std::string tenant_in, std::shared_ptr<Policy> policy_in,
                 uint64_t generation_in, const ts::StandardScaler* scaler_in,
                 double drift_delta_in, double drift_lambda_in)
    : tenant(std::move(tenant_in)),
      policy(std::move(policy_in)),
      generation(generation_in),
      has_scaler(scaler_in != nullptr),
      scaler(scaler_in != nullptr ? *scaler_in : ts::StandardScaler()),
      drift_delta(drift_delta_in),
      drift_lambda(drift_lambda_in),
      drift(drift_delta_in, drift_lambda_in) {
  EADRL_CHECK(policy != nullptr);
  Reset();
}

void Session::Reset() {
  state = policy->fresh_state;
  drift.Reset();
  last_prediction = 0.0;
  has_last_prediction = false;
  predicts = 0;
  observes = 0;
  drift_events = 0;
}

SessionTable::SessionTable(const Options& options) : opt_(options) {
  if (opt_.shards == 0) opt_.shards = 1;
  per_shard_cap_ = 0;
  if (opt_.max_sessions > 0) {
    per_shard_cap_ = opt_.max_sessions / opt_.shards;
    if (per_shard_cap_ == 0) per_shard_cap_ = 1;
  }
  shards_.reserve(opt_.shards);
  for (size_t i = 0; i < opt_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SessionTable::Shard& SessionTable::ShardFor(const std::string& tenant) {
  return *shards_[std::hash<std::string>{}(tenant) % shards_.size()];
}

void SessionTable::EraseLocked(
    Shard* shard, std::unordered_map<std::string, Entry>::iterator it,
    const char* reason) {
  obs::Span span("serve_evict");
  if (span.armed()) {
    span.SetAttr("tenant", it->first);
    span.SetAttr("generation", it->second.session->generation);
    span.SetAttr("reason", reason);
  }
  shard->lru.erase(it->second.lru_it);
  shard->map.erase(it);
  size_.fetch_sub(1, std::memory_order_relaxed);
}

Status SessionTable::Insert(const std::string& tenant,
                            std::shared_ptr<Session> session) {
  EADRL_CHECK(session != nullptr);
  Shard& shard = ShardFor(tenant);
  std::lock_guard<chk::OrderedMutex> lock(shard.stripe_mu);
  if (shard.map.count(tenant) != 0) {
    return Status::FailedPrecondition("session already exists for tenant '" +
                                      tenant + "'");
  }
  if (per_shard_cap_ > 0 && shard.map.size() >= per_shard_cap_) {
    // Stripe at capacity: evict its least-recently-used session.
    auto victim = shard.map.find(shard.lru.back());
    EADRL_CHECK(victim != shard.map.end());
    EraseLocked(&shard, victim, "lru");
    lru_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.push_front(tenant);
  Entry entry;
  entry.session = std::move(session);
  entry.lru_it = shard.lru.begin();
  entry.last_activity = std::chrono::steady_clock::now();
  shard.map.emplace(tenant, std::move(entry));
  size_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

std::shared_ptr<Session> SessionTable::Lookup(const std::string& tenant) {
  Shard& shard = ShardFor(tenant);
  std::lock_guard<chk::OrderedMutex> lock(shard.stripe_mu);
  auto it = shard.map.find(tenant);
  if (it == shard.map.end()) return nullptr;
  // Mark most-recently-used: splice the key to the recency-list front. Only
  // a session cap reads the order, and only a TTL reads the activity time.
  if (per_shard_cap_ > 0) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    it->second.lru_it = shard.lru.begin();
  }
  if (opt_.ttl_seconds > 0.0) {
    it->second.last_activity = std::chrono::steady_clock::now();
  }
  return it->second.session;
}

bool SessionTable::Erase(const std::string& tenant) {
  Shard& shard = ShardFor(tenant);
  std::lock_guard<chk::OrderedMutex> lock(shard.stripe_mu);
  auto it = shard.map.find(tenant);
  if (it == shard.map.end()) return false;
  EraseLocked(&shard, it, "explicit");
  return true;
}

size_t SessionTable::EvictIdle() {
  if (opt_.ttl_seconds <= 0.0) return 0;
  const auto now = std::chrono::steady_clock::now();
  const auto ttl = std::chrono::duration<double>(opt_.ttl_seconds);
  size_t evicted = 0;
  for (auto& shard : shards_) {
    std::lock_guard<chk::OrderedMutex> lock(shard->stripe_mu);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      auto next = std::next(it);
      if (now - it->second.last_activity > ttl) {
        EraseLocked(shard.get(), it, "ttl");
        ttl_evictions_.fetch_add(1, std::memory_order_relaxed);
        ++evicted;
      }
      it = next;
    }
  }
  return evicted;
}

}  // namespace eadrl::serve
