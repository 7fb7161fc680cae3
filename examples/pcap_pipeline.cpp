// Passive-DNS collection pipeline example.
//
// Materializes one hour of synthetic ISP traffic as a real .pcap file
// (Ethernet/IPv4/UDP/DNS wire format), then plays it back through the
// capture stack — pcap reader -> frame parser -> DNS decoder -> fpDNS
// builder — and reports what a passive DNS collector would have stored,
// plus the single-core decode throughput: the median of 11 identical
// passes, since one pass takes only ~20 ms.
//
// Run: ./build/examples/pcap_pipeline [output.pcap]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <vector>

#include "miner/day_capture.h"
#include "netio/capture.h"
#include "util/strings.h"
#include "workload/scenario.h"

using namespace dnsnoise;

namespace {
const Ipv4 kResolverIp = Ipv4::from_octets(10, 0, 0, 53);
constexpr std::size_t kPasses = 11;
}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() / "dnsnoise_tap.pcap")
                     .string();

  // 1. Simulate one hour of traffic and write both taps into a pcap.
  ScenarioScale scale;
  scale.queries_per_day = 480'000;  // => ~20k queries in our hour
  scale.client_count = 5'000;
  scale.population_scale = 0.3;
  Scenario scenario(ScenarioDate::kDec30, scale);

  RdnsCluster cluster(ClusterConfig{}, scenario.authority());
  PcapWriter writer;
  PcapTapWriter pcap_tap(writer, kResolverIp);
  cluster.add_tap_observer(&pcap_tap);
  scenario.traffic().run_day_shard(
      0, {},
      [&cluster](SimTime ts, std::uint64_t client, const QuerySpec& query) {
        if (ts >= kSecondsPerHour) return;  // keep the capture to one hour
        cluster.query_view(client, {DomainName(query.qname), query.qtype}, ts);
      });
  cluster.remove_tap_observer(&pcap_tap);
  try {
    writer.save(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcap_pipeline: %s\n", e.what());
    return 1;
  }
  std::printf("Wrote %s packets (%s bytes) to %s\n",
              with_commas(writer.packet_count()).c_str(),
              with_commas(writer.bytes().size()).c_str(), path.c_str());

  // 2. Play the file back through the collection pipeline, kPasses times,
  // each pass with a fresh decoder and capture.  The rate is the median
  // pass's; the counts are the last pass's (every pass stores the same).
  const auto bytes = PcapReader::load_file(path);
  std::vector<double> pass_seconds;
  std::optional<DayCapture> capture;
  std::size_t events = 0;
  std::uint64_t dropped = 0;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    CaptureDecoder decoder({kResolverIp});
    capture.emplace();
    decoder.add_tap_observer(&*capture);
    const auto start = std::chrono::steady_clock::now();
    events = decoder.decode_pcap(bytes);
    pass_seconds.push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    decoder.remove_tap_observer(&*capture);
    dropped = decoder.dropped();
  }
  std::nth_element(pass_seconds.begin(), pass_seconds.begin() + kPasses / 2,
                   pass_seconds.end());
  const double elapsed = pass_seconds[kPasses / 2];

  std::printf("\nDecoded %s DNS responses in %.3fs (median of %zu passes,",
              with_commas(events).c_str(), elapsed, kPasses);
  std::printf(" %s packets/s, %.1f MB/s)\n",
              with_commas(static_cast<std::uint64_t>(
                              static_cast<double>(events) / elapsed))
                  .c_str(),
              static_cast<double>(bytes.size()) / elapsed / 1e6);
  std::printf("dropped (non-DNS / malformed): %s\n",
              with_commas(dropped).c_str());

  std::printf("\nWhat the passive-DNS collector stored for this hour:\n");
  std::printf("  unique queried names:  %s\n",
              with_commas(capture->unique_queried()).c_str());
  std::printf("  unique resolved names: %s\n",
              with_commas(capture->unique_resolved()).c_str());
  std::printf("  distinct RRs:          %s\n",
              with_commas(capture->chr().unique_rrs()).c_str());
  std::printf("  NXDOMAIN responses:    %s\n",
              with_commas(capture->below_series().sum_nxdomain()).c_str());
  std::remove(path.c_str());
  return 0;
}
