// Scenario presets: one per measurement date in the paper's 2011 campaign.
//
// Each scenario wires an authority + traffic generator that reproduce the
// *distributional* properties the paper measured on that date — disposable
// traffic share, zone population, TTL policy mix, NXDOMAIN load — scaled
// down from Comcast volumes to laptop volumes (see DESIGN.md §2).  Later
// dates strictly extend earlier ones: the disposable-zone master list is
// fixed, and date t activates a growing prefix of it, so "new zones appear
// over the year" holds by construction.
//
// A built Scenario is immutable (authority_mut() aside, before serving):
// zone models, weights, authority and truth are read-only, and traffic
// walks keep their state to themselves, so one Scenario serves every
// shard, warmup and served-day server of a day concurrently.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "resolver/authority.h"
#include "workload/traffic_gen.h"
#include "workload/zone_model.h"

namespace dnsnoise {

/// The six fpDNS measurement dates the paper's growth series uses (§V-C).
enum class ScenarioDate : std::uint8_t {
  kFeb01 = 0,
  kSep02,
  kSep13,
  kNov14,
  kNov29,
  kDec30,
};

inline constexpr std::array<ScenarioDate, 6> kAllScenarioDates = {
    ScenarioDate::kFeb01,  ScenarioDate::kSep02, ScenarioDate::kSep13,
    ScenarioDate::kNov14, ScenarioDate::kNov29, ScenarioDate::kDec30,
};

std::string_view scenario_date_name(ScenarioDate date) noexcept;

/// Day offset since 02/01/2011.
std::int64_t scenario_day_index(ScenarioDate date) noexcept;

/// Position of the date within the measurement year, in [0, 1].
double scenario_progress(ScenarioDate date) noexcept;

/// Samples a disposable-zone TTL from the date-dependent policy mix
/// (Fig. 14: February skews to TTL 0/1s; December's mode is 300s).
std::uint32_t sample_disposable_ttl(Rng& rng, double progress);

/// Scale knobs: shrink/grow the synthetic ISP.
struct ScenarioScale {
  std::uint64_t queries_per_day = 400'000;
  std::size_t client_count = 20'000;
  /// Multiplies the disposable-zone population and site population.
  double population_scale = 1.0;
  std::uint64_t seed = 2011;
  /// Varies the query stream without changing the zone population (used by
  /// cache-warmup days and multi-day runs).
  std::uint64_t traffic_stream = 0;
  /// Scales the disposable traffic share (0 disables disposable tenants
  /// entirely); the slack is absorbed by ordinary popular traffic.  Drives
  /// the Section VI-A/VI-B ablations.
  double disposable_traffic_multiplier = 1.0;
  /// Scales only the flagship (Google-style) experiment zone's traffic,
  /// with the delta absorbed by Google's ordinary traffic.  Models the
  /// experiment ramping up *within* a multi-day window (Figs. 5/15).
  double flagship_boost = 1.0;
};

/// Ground truth about the synthetic namespace (never shown to the
/// classifier; used for labeling, evaluation, and figure series).
struct GroundTruth {
  struct ZoneInfo {
    std::string apex;        // zone under which names are generated
    std::size_t name_depth;  // label count of generated names
    std::string archetype;   // "reputation", "telemetry", ...
  };

  std::vector<ZoneInfo> disposable_zones;
  std::unordered_set<std::string> disposable_apexes;

  /// True if `name` falls under any disposable zone apex.
  bool is_disposable_name(const DomainName& name) const;
};

class Scenario {
 public:
  Scenario(ScenarioDate date, const ScenarioScale& scale = {});

  ScenarioDate date() const noexcept { return date_; }
  const ScenarioScale& scale() const noexcept { return scale_; }

  TrafficGenerator& traffic() noexcept { return *traffic_; }
  const TrafficGenerator& traffic() const noexcept { return *traffic_; }
  /// The traffic `stream` draws — its volume, client count and traffic
  /// stream — over this scenario's zone population, which the returned
  /// generator shares.  `stream`'s population knobs are not read: the
  /// result equals Scenario(date(), stream).traffic() whenever they match
  /// this scenario's.  The engine's warmup day draws its stream this way.
  TrafficGenerator traffic_for(const ScenarioScale& stream) const;
  const SyntheticAuthority& authority() const noexcept { return authority_; }
  /// Mutable authority access for callers that extend the namespace before
  /// serving it (engine/serve.h authority hooks, CI smoke zones).  Zones
  /// must be registered before any cluster starts resolving — the cluster
  /// reads the authority concurrently and lock-free.
  SyntheticAuthority& authority_mut() noexcept { return authority_; }
  const GroundTruth& truth() const noexcept { return truth_; }

  /// Apexes of the Alexa-style popular zones (the non-disposable labeled
  /// class).
  const std::vector<std::string>& popular_apexes() const noexcept {
    return popular_apexes_;
  }

  /// Tenant attribution for the per-tenant figure series (Figs. 2, 5), on
  /// a normalized name's text.
  static bool is_google_name(std::string_view name);
  static bool is_akamai_name(std::string_view name);

 private:
  ScenarioDate date_;
  ScenarioScale scale_;
  SyntheticAuthority authority_;
  std::unique_ptr<TrafficGenerator> traffic_;
  GroundTruth truth_;
  std::vector<std::string> popular_apexes_;

  void build();
};

}  // namespace dnsnoise
