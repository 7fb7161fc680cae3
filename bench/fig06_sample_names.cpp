// Fig. 6 — Sample disposable domain names.
//
// Prints generated samples from each disposable archetype, mirroring the
// paper's three case studies: (i) eSoft-style telemetry-in-labels, (ii)
// McAfee-style file-reputation hashes, (iii) Google-IPv6-experiment
// compound names — plus the DNSBL and tracker archetypes the taxonomy
// (Section V-C1) lists.

#include "bench_common.h"
#include "workload/zone_model.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

namespace {

void show(const char* title, DisposableZoneConfig config, NamePattern pattern,
          Rng& rng) {
  DisposableZoneModel model(std::move(config), std::move(pattern));
  RecentNames recent;
  std::printf("(%s)\n", title);
  for (int i = 0; i < 4; ++i) {
    std::printf("  %s\n", model.sample_query(rng, recent).qname.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_header("Fig. 6", "sample disposable domain names per archetype");
  Rng rng(2011);

  {
    DisposableZoneConfig config;
    config.apex = "device.trans.manage.esoft-like.com";
    config.repeat_probability = 0.0;
    NamePattern pattern;
    pattern.add(std::make_unique<MetricsLabel>("load", 0, true));
    pattern.add(std::make_unique<MetricsLabel>("mem", 2, true));
    pattern.add(std::make_unique<CounterLabel>(1'000'000, 9'999'999));
    pattern.add(std::make_unique<CounterLabel>(1'000'000'000, 3'999'999'999));
    show("i: telemetry over DNS, eSoft-style", std::move(config),
         std::move(pattern), rng);
  }
  {
    DisposableZoneConfig config;
    config.apex = "avqs.mcafee-like.com";
    config.repeat_probability = 0.0;
    NamePattern pattern;
    pattern.add(std::make_unique<FixedLabel>("0"));
    pattern.add(std::make_unique<ChoiceLabel>(
        std::vector<std::string>{"0", "1"}));
    pattern.add(RandomStringLabel::hex(2));
    pattern.add(RandomStringLabel::base32(26));
    show("ii: file-reputation lookups, McAfee-style", std::move(config),
         std::move(pattern), rng);
  }
  {
    DisposableZoneConfig config;
    config.apex = "ipv6-exp.l.google-like.com";
    config.repeat_probability = 0.0;
    NamePattern pattern;
    pattern.add(std::make_unique<FixedLabel>("p2"));
    pattern.add(RandomStringLabel::base36(13));
    pattern.add(RandomStringLabel::base36(16));
    pattern.add(std::make_unique<CounterLabel>(100'000, 999'999));
    pattern.add(std::make_unique<ChoiceLabel>(
        std::vector<std::string>{"i1", "i2", "s1"}));
    pattern.add(std::make_unique<ChoiceLabel>(
        std::vector<std::string>{"ds", "v4"}));
    show("iii: measurement experiment, Google-IPv6-style", std::move(config),
         std::move(pattern), rng);
  }
  {
    DisposableZoneConfig config;
    config.apex = "zen.dnsbl-like.org";
    config.repeat_probability = 0.0;
    NamePattern pattern;
    for (int i = 0; i < 4; ++i) pattern.add(std::make_unique<OctetLabel>());
    show("iv: DNS blocklist lookups (reversed IPs)", std::move(config),
         std::move(pattern), rng);
  }
  {
    DisposableZoneConfig config;
    config.apex = "metrics.tracker-like.net";
    config.repeat_probability = 0.0;
    NamePattern pattern;
    pattern.add(RandomStringLabel::hex(16));
    show("v: cookie/analytics tracker beacons", std::move(config),
         std::move(pattern), rng);
  }

  std::printf("Structural property (Section IV-A):\n");
  print_claim(
      "the random part is not always the leftmost label; names of one "
      "group share the same number of periods",
      "each archetype keeps a fixed depth with algorithmic labels at "
      "fixed positions (see samples above)");
  return 0;
}
