#include "workload/zone_model.h"

#include <algorithm>
#include <charconv>

namespace dnsnoise {

namespace {

/// Key of a zone's pooled rdata value `idx`: disposable operators answer
/// from a small set of signal values (e.g. McAfee's 127.0.0.0/16
/// classification codes), so rdata cardinality is far below name
/// cardinality.  The value is keyed by "<apex>#<idx>", spelled into `buf`
/// so that answering builds no key string.
struct PoolKey {
  // The apex passed DomainName validation: at most kMaxTextLength
  // characters plus a trailing dot.
  char buf[DomainName::kMaxTextLength + 2 + 20];

  std::string_view spell(std::string_view apex, std::size_t idx) {
    char* end = std::copy(apex.begin(), apex.end(), buf);
    *end++ = '#';
    end = std::to_chars(end, buf + sizeof(buf), idx).ptr;
    return {buf, static_cast<std::size_t>(end - buf)};
  }
};

std::size_t pool_index(std::string_view qname, std::size_t pool) {
  return pool == 0 ? 0
                   : static_cast<std::size_t>(mix64(fnv1a64(qname)) % pool);
}

}  // namespace

// --------------------------------------------------------------------------
// DisposableZoneModel

DisposableZoneModel::DisposableZoneModel(DisposableZoneConfig config,
                                         NamePattern pattern)
    : config_(std::move(config)),
      pattern_(std::move(pattern)),
      apex_name_(config_.apex) {}

std::size_t DisposableZoneModel::name_depth() const noexcept {
  return apex_name_.label_count() + pattern_.depth();
}

void DisposableZoneModel::sample_query_into(QuerySpec& out, Rng& rng,
                                            RecentNames& recent) const {
  out.qtype = config_.qtype;
  std::vector<std::string>& names = recent.names;
  // Occasionally the generating software re-emits a recent name — the
  // paper notes disposable names are "not strictly looked up once".
  if (!names.empty() && rng.chance(config_.repeat_probability)) {
    out.qname = names[rng.below(names.size())];
    return;
  }
  out.qname.clear();
  pattern_.generate_into(out.qname, rng);
  out.qname.push_back('.');
  out.qname += config_.apex;
  if (config_.recent_window > 0) {
    if (names.size() < config_.recent_window) {
      if (names.empty()) names.reserve(config_.recent_window);
      names.push_back(out.qname);
    } else {
      names[recent.next] = out.qname;  // copy-assign reuses ring capacity
      recent.next = (recent.next + 1) % config_.recent_window;
    }
  }
}

void DisposableZoneModel::install(SyntheticAuthority& authority) const {
  const DisposableZoneConfig cfg = config_;
  authority.register_zone(apex_name_, [cfg](const Question& q, SimTime,
                                            AuthorityAnswer& out) {
    out.rcode = RCode::NoError;
    out.disposable_zone = true;
    out.dnssec_signed = cfg.dnssec_signed;
    const std::size_t idx = pool_index(q.name.text(), cfg.rdata_pool);
    // A round-robin set: rr_per_answer distinct records from the rdata
    // pool.  Pooled rdata keeps zone-level rdata cardinality low (the
    // property §VI-C's wildcard folding exploits) while every record is
    // still a distinct (name, rdata) RR because the name is one-time.
    const std::size_t records =
        std::max<std::size_t>(1, std::min(cfg.rr_per_answer, cfg.rdata_pool));
    PoolKey key;
    for (std::size_t j = 0; j < records; ++j) {
      const std::string_view value =
          key.spell(cfg.apex, (idx + j) % cfg.rdata_pool);
      if (q.type == RRType::AAAA) {
        out.add_aaaa(cfg.ttl, synthetic_ipv6(value));
      } else {
        out.add_a(cfg.ttl, synthetic_ipv4(value));
      }
    }
  });
}

// --------------------------------------------------------------------------
// PopularZoneModel

PopularZoneModel::PopularZoneModel(PopularZoneConfig config)
    : config_(std::move(config)),
      popularity_(std::max<std::size_t>(config_.hostnames, 1), config_.zipf_s) {
  hosts_.reserve(config_.hostnames);
  // Rank 0 is the bare apex (users hit "google.com" itself most).
  hosts_.push_back(config_.apex);
  for (std::size_t i = 1; i < config_.hostnames; ++i) {
    hosts_.push_back(human_hostname(i - 1) + "." + config_.apex);
  }
}

void PopularZoneModel::sample_query_into(QuerySpec& out, Rng& rng,
                                         RecentNames&) const {
  const std::size_t rank = popularity_.sample(rng);
  out.qtype = rng.chance(config_.aaaa_fraction) ? RRType::AAAA : RRType::A;
  out.qname = hosts_[std::min(rank, hosts_.size() - 1)];
}

void PopularZoneModel::install(SyntheticAuthority& authority) const {
  authority.register_zone(
      DomainName(config_.apex),
      SyntheticAuthority::make_flat_a_zone(config_.ttl,
                                           config_.dnssec_signed));
}

// --------------------------------------------------------------------------
// CdnZoneModel

CdnZoneModel::CdnZoneModel(CdnZoneConfig config)
    : config_(std::move(config)),
      popularity_(std::max<std::size_t>(config_.shards, 1), config_.zipf_s) {}

void CdnZoneModel::sample_query_into(QuerySpec& out, Rng& rng,
                                     RecentNames&) const {
  const std::size_t shard = popularity_.sample(rng);
  out.qtype = RRType::A;
  out.qname.clear();
  out.qname.push_back('e');
  detail::append_decimal(out.qname, shard);
  out.qname.push_back('.');
  out.qname += config_.apex;
}

void CdnZoneModel::install(SyntheticAuthority& authority) const {
  authority.register_zone(DomainName(config_.apex),
                          SyntheticAuthority::make_flat_a_zone(config_.ttl));
}

// --------------------------------------------------------------------------
// OtherSitesModel

OtherSitesModel::OtherSitesModel(OtherSitesConfig config)
    : config_(std::move(config)),
      popularity_(std::max<std::size_t>(config_.sites, 1), config_.zipf_s),
      site_set_(std::make_shared<NameTable>()) {
  site_set_->reserve(config_.sites);
  std::string site;
  for (std::size_t i = 0; i < config_.sites; ++i) {
    site.clear();
    append_site_domain(i, site);
    site_set_->intern(site);
  }
}

void OtherSitesModel::append_site_domain(std::size_t i,
                                         std::string& out) const {
  pseudo_word_into(mix64(config_.seed ^ i) % (1u << 30), out);
  out.push_back('.');
  out += config_.tlds[i % config_.tlds.size()];
}

std::string OtherSitesModel::site_domain(std::size_t i) const {
  std::string out;
  append_site_domain(i, out);
  return out;
}

void OtherSitesModel::sample_query_into(QuerySpec& out, Rng& rng,
                                        RecentNames&) const {
  const std::size_t site = popularity_.sample(rng);
  // Host index skews hard toward the site front page / www.
  const auto host = static_cast<std::size_t>(
      std::min<std::uint64_t>(rng.geometric(0.65),
                              config_.max_hosts_per_site - 1));
  out.qtype = RRType::A;
  out.qname.clear();
  if (host == 0) {
    if (!rng.chance(0.5)) out.qname += "www.";
  } else {
    human_hostname_into(host, out.qname);
    out.qname.push_back('.');
  }
  append_site_domain(site, out.qname);
}

void OtherSitesModel::install(SyntheticAuthority& authority) const {
  for (const std::string& tld : config_.tlds) {
    const DomainName tld_name(tld);
    const std::size_t site_labels = tld_name.label_count() + 1;
    auto sites = site_set_;
    const std::uint32_t ttl = config_.ttl;
    authority.register_zone(
        tld_name, [sites, site_labels, ttl](const Question& q, SimTime,
                                            AuthorityAnswer& out) {
          // Unknown sites keep the reset answer: NXDOMAIN.
          if (q.name.label_count() < site_labels) return;
          if (sites->find(q.name.nld_view(site_labels)) == kInvalidNameId) {
            return;
          }
          out.rcode = RCode::NoError;
          if (q.type == RRType::AAAA) {
            out.add_aaaa(ttl, synthetic_ipv6(q.name.text()));
          } else {
            out.add_a(ttl, synthetic_ipv4(q.name.text()));
          }
        });
  }
}

// --------------------------------------------------------------------------
// NxdomainModel

NxdomainModel::NxdomainModel(NxdomainConfig config)
    : config_(std::move(config)) {}

void NxdomainModel::sample_query_into(QuerySpec& out, Rng& rng,
                                      RecentNames&) const {
  const std::size_t len =
      config_.min_len + rng.below(config_.max_len - config_.min_len + 1);
  out.qtype = RRType::A;
  std::string& qname = out.qname;
  qname.clear();
  // Same per-character draws as Rng::string_over.
  constexpr std::string_view kAlphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789";
  for (std::size_t i = 0; i < len; ++i) {
    qname.push_back(kAlphabet[rng.below(kAlphabet.size())]);
  }
  // Junk 2LDs never collide with OtherSites' digit-free pseudo-words.
  // (Identical statement to the historical one: the RHS draw sequences
  // before the index draw.)
  qname[rng.below(qname.size())] = static_cast<char>('0' + rng.below(10));
  qname.push_back('.');
  qname += config_.tlds[rng.below(config_.tlds.size())];
  if (rng.chance(config_.www_fraction)) qname.insert(0, "www.");
}

}  // namespace dnsnoise
