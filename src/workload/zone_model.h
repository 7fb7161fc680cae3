// Zone models: per-tenant query generators plus their authoritative-side
// behaviour.
//
// Each model owns (a) a sampler producing the names its clients query and
// (b) the deterministic authoritative answers for those names.  Determinism
// matters: the same qname must always resolve to the same rdata so that
// cache-hit-rate accounting and rpDNS deduplication behave like the real
// system.
//
// The model family mirrors the paper's traffic taxonomy:
//   DisposableZoneModel — bulk algorithmic one-time names (Fig. 6 archetypes)
//   PopularZoneModel    — human hostnames with Zipf re-query (Alexa-style)
//   CdnZoneModel        — sharded content names, heavy tail of cold shards
//   OtherSitesModel     — the long tail of small sites (Fig. 3a's tail)
//   NxdomainModel       — junk queries that never resolve
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/name_table.h"
#include "dns/rr.h"
#include "resolver/authority.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/zipf.h"
#include "workload/label_gen.h"

namespace dnsnoise {

/// One generated client query.
struct QuerySpec {
  std::string qname;
  RRType qtype = RRType::A;
};

/// A disposable tenant's window of recently emitted names, which it
/// re-queries now and then.  It is sampling state, not part of the zone
/// population: every walk over a shard-day starts with empty windows, one
/// per tenant, so the models themselves stay immutable and one population
/// serves every shard concurrently.
struct RecentNames {
  std::vector<std::string> names;
  std::size_t next = 0;  // ring position once the window is full
};

/// Interface: a tenant of the synthetic namespace.  Immutable once built;
/// all per-walk state lives in the caller's RecentNames.
class ZoneModel {
 public:
  virtual ~ZoneModel() = default;

  /// Human-readable tenant name (used in per-tenant figure series).
  virtual const std::string& name() const noexcept = 0;

  /// Ground truth: does this tenant emit disposable names?
  virtual bool disposable() const noexcept = 0;

  /// Draws one query into `out`, reusing its buffers.  `recent` is this
  /// tenant's window in the current walk; only disposable tenants use it.
  virtual void sample_query_into(QuerySpec& out, Rng& rng,
                                 RecentNames& recent) const = 0;

  /// Draws one query (allocating convenience over sample_query_into).
  QuerySpec sample_query(Rng& rng, RecentNames& recent) const {
    QuerySpec out;
    sample_query_into(out, rng, recent);
    return out;
  }

  /// Registers this tenant's zones with the authority.
  virtual void install(SyntheticAuthority& authority) const = 0;
};

// ---------------------------------------------------------------------------

struct DisposableZoneConfig {
  std::string apex;                 // e.g. "avqs.mcafee.com"
  std::uint32_t ttl = 300;          // zone TTL policy (Fig. 14 sweeps this)
  std::size_t rdata_pool = 16;      // distinct answer values (McAfee-style)
  double repeat_probability = 0.05; // chance of re-querying a recent name
  std::size_t recent_window = 64;
  RRType qtype = RRType::A;
  /// A records returned per answer (a round-robin set drawn from the rdata
  /// pool).  >1 models tenants like the Google experiment whose every name
  /// carries several records — the force behind the paper's observation
  /// that disposable RRs outgrow disposable *names* (Fig. 13).
  std::size_t rr_per_answer = 1;
  bool dnssec_signed = false;
};

/// A zone whose children are generated in bulk by a NamePattern.
class DisposableZoneModel final : public ZoneModel {
 public:
  DisposableZoneModel(DisposableZoneConfig config, NamePattern pattern);

  const std::string& name() const noexcept override { return config_.apex; }
  bool disposable() const noexcept override { return true; }
  void sample_query_into(QuerySpec& out, Rng& rng,
                         RecentNames& recent) const override;
  void install(SyntheticAuthority& authority) const override;

  const DisposableZoneConfig& config() const noexcept { return config_; }
  /// Label depth of generated names (apex labels + pattern depth).
  std::size_t name_depth() const noexcept;

 private:
  DisposableZoneConfig config_;
  NamePattern pattern_;
  DomainName apex_name_;
};

// ---------------------------------------------------------------------------

struct PopularZoneConfig {
  std::string apex;           // e.g. "google.com"
  std::size_t hostnames = 32;
  double zipf_s = 1.0;        // popularity skew across hostnames
  std::uint32_t ttl = 300;
  double aaaa_fraction = 0.05;
  bool dnssec_signed = false;
};

/// An Alexa-style zone: a small, fixed, human-named host set.
class PopularZoneModel final : public ZoneModel {
 public:
  explicit PopularZoneModel(PopularZoneConfig config);

  const std::string& name() const noexcept override { return config_.apex; }
  bool disposable() const noexcept override { return false; }
  void sample_query_into(QuerySpec& out, Rng& rng,
                         RecentNames& recent) const override;
  void install(SyntheticAuthority& authority) const override;

 private:
  PopularZoneConfig config_;
  std::vector<std::string> hosts_;  // fully qualified
  ZipfSampler popularity_;
};

// ---------------------------------------------------------------------------

struct CdnZoneConfig {
  std::string apex;            // e.g. "g.akamai.net"
  std::size_t shards = 4096;   // distinct "e<k>" shard names
  double zipf_s = 0.9;         // most shards are cold -> CDN false positives
  std::uint32_t ttl = 60;
};

/// A CDN delivery zone: many numbered shard names, few of them hot.
class CdnZoneModel final : public ZoneModel {
 public:
  explicit CdnZoneModel(CdnZoneConfig config);

  const std::string& name() const noexcept override { return config_.apex; }
  bool disposable() const noexcept override { return false; }
  void sample_query_into(QuerySpec& out, Rng& rng,
                         RecentNames& recent) const override;
  void install(SyntheticAuthority& authority) const override;

 private:
  CdnZoneConfig config_;
  ZipfSampler popularity_;
};

// ---------------------------------------------------------------------------

struct OtherSitesConfig {
  std::size_t sites = 50000;
  double zipf_s = 1.0;             // popularity skew across sites
  std::size_t max_hosts_per_site = 4;
  std::uint32_t ttl = 3600;
  std::vector<std::string> tlds = {"com", "net", "org", "de", "co.uk"};
  std::uint64_t seed = 7;
};

/// The long tail: many small sites with a couple of hostnames each.  One
/// model instance manages the whole population and registers one handler
/// per TLD (names outside the site set resolve NXDOMAIN, which also serves
/// the NxdomainModel's junk queries).
class OtherSitesModel final : public ZoneModel {
 public:
  explicit OtherSitesModel(OtherSitesConfig config);

  const std::string& name() const noexcept override { return label_; }
  bool disposable() const noexcept override { return false; }
  void sample_query_into(QuerySpec& out, Rng& rng,
                         RecentNames& recent) const override;
  void install(SyntheticAuthority& authority) const override;

  /// 2LD of site `i` (exposed for tests).
  std::string site_domain(std::size_t i) const;

 private:
  /// Appends site_domain(i) without allocating.
  void append_site_domain(std::size_t i, std::string& out) const;

  OtherSitesConfig config_;
  std::string label_ = "other-sites";
  ZipfSampler popularity_;
  // Every site's 2LD, probed by the answering handler (which the
  // authority may call from several shard threads: find() only reads).
  std::shared_ptr<NameTable> site_set_;
};

// ---------------------------------------------------------------------------

struct NxdomainConfig {
  std::vector<std::string> tlds = {"com", "net", "org"};
  std::size_t min_len = 6;
  std::size_t max_len = 14;
  double www_fraction = 0.3;  // "www.<junk>.<tld>" variants
};

/// Queries that never resolve: typos, misconfigured software, probes.
class NxdomainModel final : public ZoneModel {
 public:
  explicit NxdomainModel(NxdomainConfig config);

  const std::string& name() const noexcept override { return label_; }
  bool disposable() const noexcept override { return false; }
  void sample_query_into(QuerySpec& out, Rng& rng,
                         RecentNames& recent) const override;
  /// Registers nothing: unclaimed names default to NXDOMAIN.
  void install(SyntheticAuthority&) const override {}

 private:
  NxdomainConfig config_;
  std::string label_ = "nxdomain";
};

}  // namespace dnsnoise
