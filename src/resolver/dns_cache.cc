#include "resolver/dns_cache.h"

#include <algorithm>
#include <stdexcept>

namespace dnsnoise {

const char* cache_config_error(const DnsCacheConfig& config) noexcept {
  if (config.min_ttl > config.max_ttl) {
    return "cache min_ttl must not exceed max_ttl";
  }
  return nullptr;
}

namespace {

const DnsCacheConfig& checked(const DnsCacheConfig& config) {
  if (const char* error = cache_config_error(config)) {
    throw std::invalid_argument(error);
  }
  return config;
}

}  // namespace

DnsCache::DnsCache(const DnsCacheConfig& config)
    : config_(checked(config)), cache_(config.capacity) {
  cache_.set_eviction_listener(
      [this](const Key&, const CachedAnswer& answer) {
        ++stats_.evictions;
        if (answer.expires > now_) {
          ++stats_.premature_evictions;
          if (!answer.disposable_hint) {
            ++stats_.premature_nondisposable_evictions;
          }
        }
      });
}

const CachedAnswer* DnsCache::lookup(NameId name, RRType type, SimTime now) {
  now_ = now;
  const Key key{name, type};
  CachedAnswer* entry = cache_.get(key);
  if (entry == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  if (entry->expires <= now) {
    cache_.erase(key);
    ++stats_.expired_misses;
    return nullptr;
  }
  ++stats_.hits;
  return entry;
}

const CachedAnswer* DnsCache::insert_positive(
    NameId name, RRType type, std::span<const CompactRecord> answers,
    SimTime now, bool disposable_hint) {
  if (answers.empty()) return nullptr;
  now_ = now;
  std::uint32_t ttl = answers.front().ttl;
  for (const CompactRecord& rr : answers) ttl = std::min(ttl, rr.ttl);
  ttl = std::clamp(ttl, config_.min_ttl, config_.max_ttl);
  if (ttl == 0) return nullptr;  // zero-TTL answers are never cached
  const Key key{name, type};
  CachedAnswer entry;
  entry.rcode = RCode::NoError;
  entry.answers = CachedRecords(answers);
  entry.expires = now + ttl;
  entry.disposable_hint = disposable_hint;
  CachedAnswer* resident =
      (config_.low_priority_disposable && disposable_hint)
          ? cache_.put_cold(key, std::move(entry))
          : cache_.put(key, std::move(entry));
  ++stats_.inserts;
  return resident;
}

void DnsCache::insert_negative(NameId name, RRType type, SimTime now) {
  if (!config_.negative_cache) return;
  now_ = now;
  CachedAnswer entry;
  entry.rcode = RCode::NXDomain;
  entry.expires = now + config_.negative_ttl;
  entry.disposable_hint = false;
  cache_.put(Key{name, type}, std::move(entry));
  ++stats_.inserts;
}

}  // namespace dnsnoise
