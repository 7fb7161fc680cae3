#include "workload/scenario.h"

#include <cmath>
#include <span>

namespace dnsnoise {

namespace {

struct DateInfo {
  ScenarioDate date;
  const char* name;
  std::int64_t day_index;  // days since 02/01/2011
};

constexpr std::array<DateInfo, 6> kDates = {{
    {ScenarioDate::kFeb01, "02/01/2011", 0},
    {ScenarioDate::kSep02, "09/02/2011", 213},
    {ScenarioDate::kSep13, "09/13/2011", 224},
    {ScenarioDate::kNov14, "11/14/2011", 286},
    {ScenarioDate::kNov29, "11/29/2011", 301},
    {ScenarioDate::kDec30, "12/30/2011", 332},
}};

const DateInfo& date_info(ScenarioDate date) noexcept {
  return kDates[static_cast<std::size_t>(date)];
}

/// The query-stream knobs of `scale` on `date`.
TrafficConfig traffic_config(ScenarioDate date, const ScenarioScale& scale) {
  TrafficConfig config;
  config.queries_per_day = scale.queries_per_day;
  config.client_count = scale.client_count;
  config.seed = scale.seed ^ (static_cast<std::uint64_t>(date) << 32) ^
                mix64(0x7aff1c ^ scale.traffic_stream);
  return config;
}

/// One (ttl, probability) policy table row.
struct TtlRow {
  std::uint32_t ttl;
  double p;
};

// Fig. 14, February: 0.8% TTL=0, 28% TTL=1, the rest spread upward.
constexpr TtlRow kTtlFeb[] = {
    {0, 0.008}, {1, 0.45},  {30, 0.10},    {60, 0.08},
    {300, 0.15}, {3600, 0.12}, {21600, 0.05}, {86400, 0.042},
};
// Fig. 14, December: the mode has moved to 300s.
constexpr TtlRow kTtlDec[] = {
    {0, 0.005}, {1, 0.04},  {30, 0.05},   {60, 0.10},
    {300, 0.55}, {900, 0.08}, {3600, 0.12}, {86400, 0.055},
};

std::uint32_t sample_ttl_table(Rng& rng, std::span<const TtlRow> table) {
  double total = 0.0;
  for (const TtlRow& row : table) total += row.p;
  double u = rng.uniform() * total;
  for (const TtlRow& row : table) {
    if (u < row.p) return row.ttl;
    u -= row.p;
  }
  return table.back().ttl;
}

/// Per-date knobs.  Volume shares are fractions of daily query volume;
/// they were calibrated so the *unique-name* shares land in the paper's
/// measured bands (see EXPERIMENTS.md).
struct DateParams {
  double progress;
  std::size_t disposable_zone_count;
  double disposable_share;  // all disposable tenants, incl. the big one
  double flagship_fraction; // share of disposable volume owned by the
                            // Google-style experiment zone
  double nx_share;
  double google_share;
  double akamai_share;
  double popular_share;
  double other_share;
};

DateParams params_for(ScenarioDate date, double disposable_multiplier) {
  const double t = scenario_progress(date);
  DateParams p;
  p.progress = t;
  p.disposable_zone_count = static_cast<std::size_t>(350.0 + 450.0 * t);
  p.disposable_share = (0.038 + 0.041 * t) * disposable_multiplier;
  p.flagship_fraction = 0.35 + 0.35 * t;
  p.nx_share = 0.043 + 0.045 * t;
  p.akamai_share = 0.14;
  p.popular_share = 0.22;
  p.other_share = 0.17;
  // Google's user-facing traffic absorbs the remaining volume.
  p.google_share = 1.0 - p.disposable_share - p.nx_share - p.akamai_share -
                   p.popular_share - p.other_share;
  return p;
}

/// A disposable zone under construction.
struct ZoneBuild {
  DisposableZoneConfig config;
  NamePattern pattern;
  std::string archetype;
};

constexpr const char* kZoneTlds[] = {"com", "net", "org", "com", "net"};

ZoneBuild make_disposable_zone(std::size_t i, std::uint64_t seed,
                               double progress) {
  // Stable per-zone attributes (apex, pattern, pools) come from a seed that
  // depends only on the zone index; the TTL policy drifts with the date.
  Rng zone_rng(mix64(seed ^ (0xd15005ab1eULL + i * 0x9e37ULL)));
  Rng ttl_rng(mix64(seed ^ (0x771ULL + i) ^
                    static_cast<std::uint64_t>(progress * 4096.0)));
  const std::string vendor = pseudo_word(1'000'000 + i * 13) + "." +
                             kZoneTlds[i % std::size(kZoneTlds)];

  ZoneBuild build;
  build.config.ttl = sample_ttl_table(
      ttl_rng, ttl_rng.chance(progress) ? std::span<const TtlRow>(kTtlDec)
                                        : std::span<const TtlRow>(kTtlFeb));
  build.config.repeat_probability = zone_rng.uniform(0.06, 0.30);
  build.config.dnssec_signed = (i % 8) == 0;
  static constexpr std::size_t kPools[] = {1, 2, 4, 8, 16, 32};
  build.config.rdata_pool = kPools[zone_rng.below(std::size(kPools))];

  switch (i % 5) {
    case 0: {  // anti-virus / file-reputation lookups (McAfee-style)
      build.archetype = "reputation";
      build.config.apex = "avqs." + vendor;
      build.pattern.add(std::make_unique<FixedLabel>("0"));
      build.pattern.add(std::make_unique<ChoiceLabel>(
          std::vector<std::string>{"0", "1"}));
      build.pattern.add(RandomStringLabel::hex(2));
      build.pattern.add(RandomStringLabel::base32(26));
      break;
    }
    case 1: {  // device telemetry over DNS (eSoft-style)
      build.archetype = "telemetry";
      build.config.apex = "device.trans.manage." + vendor;
      build.pattern.add(std::make_unique<MetricsLabel>("load", 0, true));
      build.pattern.add(std::make_unique<MetricsLabel>("mem", 2, true));
      build.pattern.add(std::make_unique<CounterLabel>(1'000'000, 9'999'999));
      build.pattern.add(
          std::make_unique<CounterLabel>(1'000'000'000, 3'999'999'999));
      break;
    }
    case 2: {  // measurement experiment (Google-IPv6-style)
      build.archetype = "experiment";
      build.config.apex = "exp.l." + vendor;
      build.config.rr_per_answer = 2;
      build.pattern.add(std::make_unique<FixedLabel>("p2"));
      build.pattern.add(RandomStringLabel::base36(13));
      build.pattern.add(RandomStringLabel::base36(16));
      build.pattern.add(std::make_unique<CounterLabel>(100'000, 999'999));
      build.pattern.add(std::make_unique<ChoiceLabel>(
          std::vector<std::string>{"i1", "i2", "s1"}));
      build.pattern.add(std::make_unique<ChoiceLabel>(
          std::vector<std::string>{"ds", "v4"}));
      break;
    }
    case 3: {  // DNS blocklist lookups (reversed-IP labels)
      build.archetype = "dnsbl";
      build.config.apex = "zen." + vendor;
      for (int level = 0; level < 4; ++level) {
        build.pattern.add(std::make_unique<OctetLabel>());
      }
      break;
    }
    default: {  // cookie/analytics tracker beacons
      build.archetype = "tracker";
      build.config.apex = "metrics." + vendor;
      build.config.rr_per_answer = 2;
      build.pattern.add(RandomStringLabel::hex(16));
      break;
    }
  }
  return build;
}

constexpr const char* kAkamaiApexes[] = {
    "g.akamai.net",
    "a.akamai.net",
    "e.akamaiedge.net",
    "s.edgesuite.net",
};

constexpr const char* kAkamai2Lds[] = {
    "akamai.com",    "akamai.net",  "akamaiedge.net", "akamaihd.net",
    "edgesuite.net", "akamaitech.net", "akadns.net",  "akam.net",
};

}  // namespace

std::string_view scenario_date_name(ScenarioDate date) noexcept {
  return date_info(date).name;
}

std::int64_t scenario_day_index(ScenarioDate date) noexcept {
  return date_info(date).day_index;
}

double scenario_progress(ScenarioDate date) noexcept {
  return static_cast<double>(date_info(date).day_index) /
         static_cast<double>(kDates.back().day_index);
}

std::uint32_t sample_disposable_ttl(Rng& rng, double progress) {
  return sample_ttl_table(rng, rng.chance(progress)
                                   ? std::span<const TtlRow>(kTtlDec)
                                   : std::span<const TtlRow>(kTtlFeb));
}

bool GroundTruth::is_disposable_name(const DomainName& name) const {
  for (std::size_t k = name.label_count(); k >= 2; --k) {
    if (disposable_apexes.contains(std::string(name.nld_view(k)))) {
      return true;
    }
  }
  return false;
}

Scenario::Scenario(ScenarioDate date, const ScenarioScale& scale)
    : date_(date),
      scale_(scale),
      traffic_(std::make_unique<TrafficGenerator>(
          traffic_config(date, scale))) {
  build();
}

TrafficGenerator Scenario::traffic_for(const ScenarioScale& stream) const {
  return traffic_->with_config(traffic_config(date_, stream));
}

bool Scenario::is_google_name(std::string_view name) {
  return name_within(name, "google.com");
}

bool Scenario::is_akamai_name(std::string_view name) {
  for (const char* apex : kAkamai2Lds) {
    if (name_within(name, apex)) return true;
  }
  return false;
}

void Scenario::build() {
  const DateParams params =
      params_for(date_, scale_.disposable_traffic_multiplier);
  Rng rng(scale_.seed);

  // --- Google: a huge popular tenant plus its disposable experiment zone.
  {
    PopularZoneConfig google;
    google.apex = "google.com";
    google.hostnames = 64;
    google.zipf_s = 1.0;
    google.ttl = 300;
    google.aaaa_fraction = 0.10;
    google.dnssec_signed = true;
    auto model = std::make_shared<PopularZoneModel>(google);
    model->install(authority_);
    traffic_->add_model(std::move(model), params.google_share);
  }
  if (params.disposable_share > 0.0) {
    DisposableZoneConfig exp;
    exp.apex = "ipv6-exp.l.google.com";
    // The flagship operator's documented policy drift: tiny TTLs while the
    // experiment launched, 300s once it ran at scale (Fig. 14's mode).
    exp.ttl = params.progress < 0.3 ? 60 : 300;
    exp.dnssec_signed = true;
    exp.rdata_pool = 8;
    exp.repeat_probability = 0.12;
    // The experiment ramps up over the year: by December every one-time
    // name carries a 4-record round-robin set (drives the RR-share growth).
    exp.rr_per_answer =
        2 + static_cast<std::size_t>(2.0 * params.progress + 0.5);
    NamePattern pattern;
    pattern.add(std::make_unique<FixedLabel>("p2"));
    pattern.add(RandomStringLabel::base36(13));
    pattern.add(RandomStringLabel::base36(16));
    pattern.add(std::make_unique<CounterLabel>(100'000, 999'999));
    pattern.add(std::make_unique<ChoiceLabel>(
        std::vector<std::string>{"i1", "i2", "s1"}));
    pattern.add(std::make_unique<ChoiceLabel>(
        std::vector<std::string>{"ds", "v4"}));
    auto model = std::make_shared<DisposableZoneModel>(std::move(exp),
                                                       std::move(pattern));
    model->install(authority_);
    truth_.disposable_zones.push_back(
        {model->name(), model->name_depth(), "experiment"});
    truth_.disposable_apexes.insert(model->name());
    const double flagship_weight = params.disposable_share *
                                   params.flagship_fraction *
                                   scale_.flagship_boost;
    traffic_->add_model(std::move(model), flagship_weight);
  }

  // --- Akamai: CDN shard zones.
  for (std::size_t i = 0; i < std::size(kAkamaiApexes); ++i) {
    CdnZoneConfig cdn;
    cdn.apex = kAkamaiApexes[i];
    cdn.shards = 1200 + 400 * i;
    cdn.zipf_s = 0.95 + 0.15 * static_cast<double>(i);
    cdn.ttl = 60 + 30 * static_cast<std::uint32_t>(i);
    auto model = std::make_shared<CdnZoneModel>(cdn);
    model->install(authority_);
    traffic_->add_model(std::move(model),
                        params.akamai_share / std::size(kAkamaiApexes));
  }

  // --- Alexa-style popular zones (the non-disposable labeled class).
  constexpr std::size_t kPopularZones = 400;
  popular_apexes_.push_back("google.com");
  {
    static constexpr std::uint32_t kPopularTtls[] = {60, 300, 300, 900, 3600};
    // Zipf weights across the popular zones, bulk-normalized to the share.
    double total_weight = 0.0;
    for (std::size_t i = 0; i < kPopularZones; ++i) {
      total_weight += 1.0 / std::pow(static_cast<double>(i + 1), 0.9);
    }
    for (std::size_t i = 0; i < kPopularZones; ++i) {
      PopularZoneConfig popular;
      popular.apex = pseudo_word(500'000 + i * 7) + "." +
                     kZoneTlds[i % std::size(kZoneTlds)];
      popular.hostnames = 6 + rng.below(20);
      popular.zipf_s = 1.2;
      popular.ttl = kPopularTtls[rng.below(std::size(kPopularTtls))];
      popular.aaaa_fraction = 0.03;
      popular.dnssec_signed = (i % 10) == 0;
      auto model = std::make_shared<PopularZoneModel>(popular);
      model->install(authority_);
      popular_apexes_.push_back(popular.apex);
      const double weight = params.popular_share / total_weight /
                            std::pow(static_cast<double>(i + 1), 0.9);
      traffic_->add_model(std::move(model), weight);
    }
  }

  // --- The long tail of small sites.
  {
    OtherSitesConfig other;
    other.sites = static_cast<std::size_t>(80'000 * scale_.population_scale);
    other.zipf_s = 0.95;
    other.ttl = 3600;
    other.seed = scale_.seed ^ 0x517e5ULL;
    auto model = std::make_shared<OtherSitesModel>(other);
    model->install(authority_);
    traffic_->add_model(std::move(model), params.other_share);
  }

  // --- NXDOMAIN junk.
  {
    auto model = std::make_shared<NxdomainModel>(NxdomainConfig{});
    model->install(authority_);
    traffic_->add_model(std::move(model), params.nx_share);
  }

  // --- The disposable-zone population (minus the flagship, added above).
  if (params.disposable_share > 0.0) {
    const auto zone_count = static_cast<std::size_t>(
        static_cast<double>(params.disposable_zone_count) *
        scale_.population_scale);
    const double bulk_share =
        params.disposable_share * (1.0 - params.flagship_fraction);
    double total_weight = 0.0;
    for (std::size_t i = 0; i < zone_count; ++i) {
      total_weight += 1.0 / std::pow(static_cast<double>(i + 1), 0.5);
    }
    for (std::size_t i = 0; i < zone_count; ++i) {
      ZoneBuild build =
          make_disposable_zone(i, scale_.seed, params.progress);
      auto model = std::make_shared<DisposableZoneModel>(
          std::move(build.config), std::move(build.pattern));
      model->install(authority_);
      truth_.disposable_zones.push_back(
          {model->name(), model->name_depth(), build.archetype});
      truth_.disposable_apexes.insert(model->name());
      const double weight =
          bulk_share / total_weight / std::pow(static_cast<double>(i + 1), 0.5);
      traffic_->add_model(std::move(model), weight);
    }
  }
}

}  // namespace dnsnoise
