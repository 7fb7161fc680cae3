// Mine disposable zones from a pcap file — the deployment workflow.
//
//   1. Train a LAD tree on a labeled day (here: the synthetic 11/14
//      scenario, standing in for the paper's hand-labeled zones) and
//      serialize it to disk.
//   2. Capture a day of traffic as a pcap (here: synthesized; point this
//      at a real tap in production).
//   3. Reload the model, replay the pcap through the capture stack, run
//      Algorithm 1, and print the ranked disposable zones.
//
// The point: the classifier transfers — it never saw the traffic it mines.
//
// Run: ./build/examples/mine_pcap

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "engine/parallel_miner.h"
#include "netio/capture.h"
#include "util/file.h"
#include "util/strings.h"
#include "util/table.h"

using namespace dnsnoise;

namespace {

const Ipv4 kResolverIp = Ipv4::from_octets(10, 0, 0, 53);

ScenarioScale small_day() {
  ScenarioScale scale;
  scale.queries_per_day = 90'000;
  scale.client_count = 4'000;
  scale.population_scale = 0.5;
  return scale;
}

/// Step 1: train on the labeled day and persist the model.
std::vector<std::uint8_t> train_and_serialize() {
  DayCapture capture;
  MiningSession(small_day()).threads(4).simulate(ScenarioDate::kNov14,
                                                 capture);
  const Scenario scenario(ScenarioDate::kNov14, small_day());
  LabelerConfig labeler;
  labeler.min_group_size = 8;
  LadTree model;
  model.train(to_dataset(
      label_zones(capture.tree(), capture.chr(), scenario, labeler)));
  return model.serialize();
}

/// Step 2: a pcap of one (synthetic) day of tap traffic.
std::vector<std::uint8_t> capture_day_as_pcap() {
  Scenario scenario(ScenarioDate::kDec30, small_day());
  RdnsCluster cluster(ClusterConfig{}, scenario.authority());
  PcapWriter writer;
  PcapTapWriter pcap_tap(writer, kResolverIp);
  cluster.add_tap_observer(&pcap_tap);
  scenario.traffic().run_day_shard(
      scenario_day_index(ScenarioDate::kDec30), {},
      [&cluster](SimTime ts, std::uint64_t client, const QuerySpec& query) {
        cluster.query_view(client, {DomainName(query.qname), query.qtype}, ts);
      });
  cluster.remove_tap_observer(&pcap_tap);
  return writer.bytes();
}

}  // namespace

int main() {
  // --- 1. Train + persist.
  const std::string model_path =
      (std::filesystem::temp_directory_path() / "dnsnoise_model.lad").string();
  {
    const auto bytes = train_and_serialize();
    std::ofstream out(model_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::printf("Trained LAD tree on the labeled day; saved %s bytes to %s\n",
                with_commas(bytes.size()).c_str(), model_path.c_str());
  }

  // --- 2. The traffic to analyze, as real pcap bytes.
  const std::vector<std::uint8_t> pcap = capture_day_as_pcap();
  std::printf("Captured %s bytes of tap pcap for the target day.\n\n",
              with_commas(pcap.size()).c_str());

  // --- 3. Reload the model, replay the pcap, mine.
  const auto model = LadTree::deserialize(read_file(model_path));
  if (!model) {
    std::fprintf(stderr, "corrupt model file\n");
    return 1;
  }

  CaptureDecoder decoder({kResolverIp});
  DayCapture capture;
  decoder.add_tap_observer(&capture);
  decoder.decode_pcap(pcap);

  const DisposableZoneMiner miner(*model);
  const auto findings = miner.mine(capture.tree(), capture.chr());

  std::printf("Mined %zu disposable zones from the pcap:\n", findings.size());
  TextTable table({"zone", "depth", "confidence", "names"});
  for (std::size_t i = 0; i < std::min<std::size_t>(findings.size(), 10); ++i) {
    table.add_row({findings[i].zone, std::to_string(findings[i].depth),
                   fixed(findings[i].confidence, 3),
                   with_commas(findings[i].group_size)});
  }
  std::printf("%s", table.render().c_str());
  std::remove(model_path.c_str());
  return 0;
}
