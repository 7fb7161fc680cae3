// Micro-benchmarks (google-benchmark): the hot paths of the capture and
// mining pipeline — DNS wire codec, frame parsing, pcap iteration, name
// handling, CHR accounting, tree construction, classifier inference.
//
// These justify the "high-throughput pcap parsing" claim of the
// reproduction: the decode path comfortably sustains ISP-tap packet rates
// on one core.
//
// Besides the usual console table, every run exports its results as
// BENCH_micro_throughput.json via the obs JSON exporter (schema
// dnsnoise-metrics-v1); CI feeds that file to
// tools/check_bench_regression.py to gate throughput regressions.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <new>
#include <span>

#include "bench_common.h"
#include "dns/name_table.h"
#include "dns/wire.h"
#include "engine/parallel_miner.h"
#include "features/chr.h"
#include "features/domain_tree.h"
#include "features/extractor.h"
#include "miner/pipeline.h"
#include "netio/capture.h"
#include "obs/sketch/traffic_sketch.h"
#include "resolver/lru_cache.h"
#include "resolver/tap.h"
#include "util/entropy.h"
#include "util/simd/kernels.h"
#include "util/zipf.h"
#include "workload/label_gen.h"

// ---------------------------------------------------------------------------
// Allocation-counting harness: the bench binary replaces global operator
// new so steady-state benchmarks can report an exact allocs_per_query.
// Counting is one relaxed atomic increment — cheap enough to leave on for
// every benchmark in this binary.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t alloc_count() noexcept {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dnsnoise {
namespace {

/// Reports (allocations since `allocs_before`) / iterations as the
/// "allocs_per_query" counter — the regression checker gates its growth.
void report_allocs_per_query(benchmark::State& state,
                             std::uint64_t allocs_before,
                             std::uint64_t items) {
  state.counters["allocs_per_query"] =
      static_cast<double>(alloc_count() - allocs_before) /
      static_cast<double>(std::max<std::uint64_t>(items, 1));
}

DnsMessage sample_response() {
  DnsMessage query = DnsMessage::make_query(
      0x42, DomainName("p2.a22a43lt5rwfg.191742.i1.ds.ipv6-exp.l.google.com"),
      RRType::A);
  std::vector<ResourceRecord> answers;
  for (int i = 0; i < 3; ++i) {
    answers.push_back(
        {query.questions[0].name, RRType::A, 300,
         "10.1.2." + std::to_string(i)});
  }
  return DnsMessage::make_response(query, RCode::NoError, std::move(answers));
}

void BM_WireEncode(benchmark::State& state) {
  const DnsMessage msg = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_message(msg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WireEncode);

void BM_WireDecode(benchmark::State& state) {
  const auto wire = encode_message(sample_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_message(wire));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_WireDecode);

void BM_FrameParse(benchmark::State& state) {
  const auto frame =
      build_dns_frame(Ipv4::from_octets(10, 0, 0, 53), 53,
                      Ipv4::from_octets(192, 168, 0, 2), 40000,
                      sample_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_frame(frame));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * frame.size()));
}
BENCHMARK(BM_FrameParse);

void BM_PcapDecodePipeline(benchmark::State& state) {
  // A pcap with 1000 DNS response frames, decoded end to end.
  PcapWriter writer;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    DnsMessage msg = sample_response();
    msg.questions[0].name =
        DomainName(rng.hex_string(20) + ".avqs.example.com");
    msg.answers.resize(1);
    msg.answers[0].name = msg.questions[0].name;
    writer.write(static_cast<std::uint32_t>(i), 0,
                 build_dns_frame(Ipv4::from_octets(10, 0, 0, 53), 53,
                                 Ipv4::from_octets(192, 168, 0, 2), 40000,
                                 msg));
  }
  // No observer is attached: every frame is parsed, decoded and checked,
  // and nothing is interned or buffered.
  std::size_t accepted = 0;
  for (auto _ : state) {
    CaptureDecoder decoder({Ipv4::from_octets(10, 0, 0, 53)});
    accepted += decoder.decode_pcap(writer.bytes());
  }
  benchmark::DoNotOptimize(accepted);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 1000));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * writer.bytes().size()));
}
BENCHMARK(BM_PcapDecodePipeline);

void BM_DomainNameParse(benchmark::State& state) {
  const std::string text =
      "load-0-p-01.up-1852280.mem-251379712-24440832-0-p-50.3302068."
      "device.trans.manage.esoft.com";
  for (auto _ : state) {
    benchmark::DoNotOptimize(DomainName::parse(text));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DomainNameParse);

void BM_ZipfSample(benchmark::State& state) {
  // One client draw of the day-volume workload: 150k clients, exponent
  // 0.8, through the guide table (a full-CDF binary search is ~5x slower).
  const ZipfSampler zipf(150'000, 0.8);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample);

void BM_ShannonEntropy(benchmark::State& state) {
  Rng rng(2);
  const std::string label = rng.hex_string(26);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shannon_entropy(label));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShannonEntropy);

void BM_BatchEntropy(benchmark::State& state) {
  // entropy_many over 10k interned names: the batched kernel walks the
  // arena in intern order with one reused histogram workspace.  Zero
  // steady-state allocations.
  Rng rng(2);
  NameTable table;
  std::vector<NameId> ids;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(table.intern(rng.hex_string(16) + ".avqs.example.com"));
  }
  std::vector<double> out(ids.size());
  const std::uint64_t allocs_before = alloc_count();
  for (auto _ : state) {
    entropy_many(ids, table, out);
    benchmark::DoNotOptimize(out.data());
  }
  const auto items =
      static_cast<std::uint64_t>(state.iterations()) * ids.size();
  report_allocs_per_query(state, allocs_before, items);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_BatchEntropy);

void BM_GroupFeatures(benchmark::State& state) {
  // One Algorithm-1 group classification input: 5000 disposable-looking
  // names under one zone, with a CHR entry per name.  Measures the full
  // SoA extraction (gather + dedup + batched entropy + CHR reduce) with a
  // reused scratch, items = group members processed.
  Rng rng(8);
  NameTable names;
  DomainNameTree tree(names);
  CacheHitRateTracker chr(names);
  for (int i = 0; i < 5'000; ++i) {
    const std::string name = rng.hex_string(16) + ".avqs.example.com";
    tree.insert(DomainName(name));
    chr.record_below(name, RRType::A, "10.0.0.1", 300);
  }
  const auto zones = tree.effective_2ld_nodes(PublicSuffixList::builtin());
  if (zones.size() != 1) {
    state.SkipWithError("expected one effective 2LD");
    return;
  }
  DepthGroups groups;
  tree.black_descendants_by_depth(zones[0], groups);
  const std::span<const NameId> deepest = groups.at(groups.end_depth() - 1);
  GroupFeatureScratch scratch;
  const std::uint64_t allocs_before = alloc_count();
  for (auto _ : state) {
    const GroupFeatures features = compute_group_features(
        tree, deepest, tree.depth(zones[0]), chr, scratch);
    benchmark::DoNotOptimize(features.entropy_mean);
  }
  const auto items =
      static_cast<std::uint64_t>(state.iterations()) * deepest.size();
  report_allocs_per_query(state, allocs_before, items);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_GroupFeatures);

void BM_TreeInsert(benchmark::State& state) {
  Rng rng(3);
  std::vector<DomainName> names;
  for (int i = 0; i < 10'000; ++i) {
    names.emplace_back(rng.hex_string(16) + ".avqs.vendor" +
                       std::to_string(i % 50) + ".com");
  }
  for (auto _ : state) {
    NameTable table;
    DomainNameTree tree(table);
    for (const DomainName& name : names) tree.insert(name);
    benchmark::DoNotOptimize(tree.black_count());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * names.size()));
}
BENCHMARK(BM_TreeInsert);

void BM_ChrRecord(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::string> names;
  for (int i = 0; i < 10'000; ++i) {
    names.push_back(rng.hex_string(16) + ".zone.example.com");
  }
  for (auto _ : state) {
    NameTable table;
    CacheHitRateTracker tracker(table);
    for (const std::string& name : names) {
      tracker.record_below(name, RRType::A, "10.0.0.1", 300);
    }
    benchmark::DoNotOptimize(tracker.unique_rrs());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * names.size()));
}
BENCHMARK(BM_ChrRecord);

void BM_LadTreePredict(benchmark::State& state) {
  Rng rng(5);
  Dataset data(kFeatureCount);
  for (int i = 0; i < 400; ++i) {
    std::array<double, kFeatureCount> x{};
    const bool disposable = i % 2 == 0;
    for (double& v : x) v = rng.normal(disposable ? 2.0 : -2.0, 1.0);
    data.add(x, disposable ? 1 : 0);
  }
  LadTree model;
  model.train(data);
  std::array<double, kFeatureCount> probe{};
  for (double& v : probe) v = rng.normal(0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_proba(probe));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LadTreePredict);

void BM_ClusterQuery(benchmark::State& state) {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(300));
  ClusterConfig config;
  config.cache.capacity = 1 << 16;
  RdnsCluster cluster(config, authority);
  Rng rng(6);
  std::vector<Question> questions;
  for (int i = 0; i < 2000; ++i) {
    questions.push_back(
        {DomainName("h" + std::to_string(rng.below(500)) + ".example.com"),
         RRType::A});
  }
  SimTime now = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    // query_view is the pipeline's actual drive path: hits are served as a
    // span into the resident cache entry, no answer copies.
    const QueryView view =
        cluster.query_view(i, questions[i % questions.size()], now);
    benchmark::DoNotOptimize(view.answers.data());
    ++i;
    now += (i % 16) == 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClusterQuery);

void BM_ClusterQueryHot(benchmark::State& state) {
  // Pure steady state: simulated time is frozen, so after the warm pass
  // nothing expires and every query is a cache hit.  This is the
  // "allocs_per_query == 0" claim of the interned hot path — BM_ClusterQuery
  // above keeps advancing time and therefore re-misses on TTL expiry.
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(300));
  ClusterConfig config;
  config.cache.capacity = 1 << 16;
  RdnsCluster cluster(config, authority);
  Rng rng(6);
  std::vector<Question> questions;
  for (int i = 0; i < 2000; ++i) {
    questions.push_back(
        {DomainName("h" + std::to_string(rng.below(500)) + ".example.com"),
         RRType::A});
  }
  for (std::size_t i = 0; i < questions.size(); ++i) {
    cluster.query_view(i, questions[i], 0);  // warm: intern + cache every name
  }
  std::size_t i = 0;
  const std::uint64_t allocs_before = alloc_count();
  for (auto _ : state) {
    const QueryView view =
        cluster.query_view(i, questions[i % questions.size()], 0);
    benchmark::DoNotOptimize(view.answers.data());
    ++i;
  }
  report_allocs_per_query(state, allocs_before,
                          static_cast<std::uint64_t>(state.iterations()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClusterQueryHot);

void BM_ClusterQueryCaptured(benchmark::State& state) {
  // BM_ClusterQueryHot with a DayCapture on the tap: every hit copies its
  // question and answer into the cluster's tap arena, and every 256 events
  // the capture consumes a batch.  Time is frozen, so after the warm pass
  // the arena slots, the capture's name tables, tree nodes and CHR entries
  // all exist and a captured query allocates nothing; the gate pins that.
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(300));
  ClusterConfig config;
  config.cache.capacity = 1 << 16;
  RdnsCluster cluster(config, authority);
  DayCapture capture;
  capture.attach(cluster);
  Rng rng(6);
  std::vector<Question> questions;
  for (int i = 0; i < 2000; ++i) {
    questions.push_back(
        {DomainName("h" + std::to_string(rng.below(500)) + ".example.com"),
         RRType::A});
  }
  for (std::size_t i = 0; i < questions.size(); ++i) {
    cluster.query_view(i, questions[i], 0);  // warm: cache + capture names
  }
  cluster.flush_taps();
  std::size_t i = 0;
  const std::uint64_t allocs_before = alloc_count();
  for (auto _ : state) {
    const QueryView view =
        cluster.query_view(i, questions[i % questions.size()], 0);
    benchmark::DoNotOptimize(view.answers.data());
    ++i;
  }
  cluster.flush_taps();
  report_allocs_per_query(state, allocs_before,
                          static_cast<std::uint64_t>(state.iterations()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  capture.detach(cluster);
}
BENCHMARK(BM_ClusterQueryCaptured);

void BM_CaptureFirstSight(benchmark::State& state) {
  // The case the capture's per-name facts cannot help, as in a
  // random-qname flood: every tap event's qname is new.  A producer table
  // holds kNames names, and each query delivers the next one as a below
  // event with one A answer through a TapBuffer, as a cluster does, so the
  // capture classes, interns, lists and records each name on its first
  // and only sighting.  After the last name the capture starts a new day
  // (untimed), so no name repeats.  BM_ClusterQueryCaptured is the
  // opposite case: 500 names, every event a repeat.
  constexpr std::size_t kNames = std::size_t{1} << 18;
  NameTable names;
  names.reserve(kNames);
  std::vector<CompactRecord> answers;
  answers.reserve(kNames);
  for (std::size_t i = 0; i < kNames; ++i) {
    char text[32] = {'f'};
    char* end = std::to_chars(text + 1, text + 12, i).ptr;
    constexpr std::string_view kZone = ".flood.example.com";
    end = std::copy(kZone.begin(), kZone.end(), end);
    const NameId id =
        names.intern({text, static_cast<std::size_t>(end - text)});
    answers.push_back(compact_record(names, id, RRType::A, 60, "10.0.0.1"));
  }
  DayCapture capture;
  TapBuffer taps(names);  // destroyed first: its final flush finds capture
  taps.add_observer(&capture);
  std::size_t i = 0;
  const std::uint64_t allocs_before = alloc_count();
  for (auto _ : state) {
    if (i == kNames) {
      state.PauseTiming();
      taps.flush();
      capture.start_day(0);
      i = 0;
      state.ResumeTiming();
    }
    if (taps.push(0, TapDirection::kBelow, i, answers[i].owner, RRType::A,
                  RCode::NoError, {&answers[i], 1})) {
      taps.flush();
    }
    ++i;
  }
  taps.flush();
  report_allocs_per_query(state, allocs_before,
                          static_cast<std::uint64_t>(state.iterations()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CaptureFirstSight);

void BM_ClusterMiss(benchmark::State& state) {
  // The disposable-name path: a flat zone, a 4,096-entry cache and a
  // rotating pool of 1M names, so every query misses (its name left the
  // cache ~1M queries ago) and its insert evicts the LRU tail.  After one
  // warm rotation every name is interned in the cluster's table, and a
  // miss — authority answer, cache insert, eviction — allocates nothing;
  // the gate pins that.
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(300));
  ClusterConfig config;
  config.server_count = 1;
  config.cache.capacity = 4096;
  RdnsCluster cluster(config, authority);
  constexpr std::size_t kPool = 1 << 20;
  Question question;
  const auto query = [&](std::size_t i) {
    char text[32] = {'n'};
    char* end = std::to_chars(text + 1, text + 12, i % kPool).ptr;
    constexpr std::string_view kZone = ".example.com";
    end = std::copy(kZone.begin(), kZone.end(), end);
    question.name.assign({text, static_cast<std::size_t>(end - text)});
    return cluster.query_view(i, question, 0);
  };
  for (std::size_t i = 0; i < kPool; ++i) query(i);  // warm: intern all
  std::size_t i = 0;
  const std::uint64_t allocs_before = alloc_count();
  for (auto _ : state) {
    const QueryView view = query(i++);
    benchmark::DoNotOptimize(view.answers.data());
  }
  report_allocs_per_query(state, allocs_before,
                          static_cast<std::uint64_t>(state.iterations()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClusterMiss);

void BM_SketchUpdate(benchmark::State& state) {
  // Amortized per-event cost of the traffic plane's one feed in
  // isolation: the stream arrives as 256-event tap batches, as a
  // cluster delivers it, and each batch is counted under one lock into
  // direct-indexed exact delta counters, the cached per-name classifier
  // verdict, the client HLL, and the window ring.  Space-Saving only sees
  // weighted folds when the touched set crosses its threshold.  The name
  // pool is Zipf(1.0) like real traffic; after the warm pass interning
  // and classification are steady-state and the path allocates nothing
  // (the gate pins that).
  obs::TrafficSketchPlane plane;
  plane.ensure_shards(1);
  plane.set_disposable_zones({"avqs.example.com"});
  obs::TrafficSketch& sketch = plane.shard(0);
  NameTable source;
  Rng rng(9);
  ZipfSampler zipf(5'000, 1.0);
  std::vector<std::string> pool;
  for (int i = 0; i < 5'000; ++i) {
    pool.push_back(i % 2 == 0
                       ? rng.hex_string(12) + ".avqs.example.com"
                       : "host" + std::to_string(i) + ".vendor" +
                             std::to_string(i % 40) + ".example");
  }
  std::vector<TapEvent> stream(4'096);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    TapEvent& event = stream[i];
    event.ts = static_cast<SimTime>(i / 64);
    event.client_id = rng.below(512) + 1;
    event.rcode = i % 32 == 0 ? RCode::NXDomain : RCode::NoError;
    event.qname = source.intern(pool[zipf.sample(rng)]);
  }
  const auto feed = [&] {
    for (std::size_t at = 0; at < stream.size(); at += TapBuffer::kBatchSize) {
      sketch.on_tap_batch(TapBatch(
          std::span(stream).subspan(at, TapBuffer::kBatchSize), {}, source));
    }
  };
  feed();  // warm: intern + classify every pool name once
  const std::uint64_t allocs_before = alloc_count();
  for (auto _ : state) {
    feed();
    benchmark::DoNotOptimize(&sketch);
  }
  const auto items =
      static_cast<std::uint64_t>(state.iterations()) * stream.size();
  report_allocs_per_query(state, allocs_before, items);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_SketchUpdate);

void BM_ClusterQuerySketched(benchmark::State& state) {
  // BM_ClusterQuery with a traffic sketch shard on the cluster's tap: the
  // cluster now builds the tap events a capture would read, and every 256
  // events the sketch counts a batch.  Compare with
  // BM_ClusterQueryCaptured, which pays for the same events; detached,
  // the sketch costs nothing, which BM_ClusterQuery itself demonstrates.
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(300));
  ClusterConfig config;
  config.cache.capacity = 1 << 16;
  RdnsCluster cluster(config, authority);
  obs::TrafficSketchPlane plane;
  plane.ensure_shards(1);
  cluster.add_tap_observer(&plane.shard(0));
  Rng rng(6);
  std::vector<Question> questions;
  for (int i = 0; i < 2000; ++i) {
    questions.push_back(
        {DomainName("h" + std::to_string(rng.below(500)) + ".example.com"),
         RRType::A});
  }
  SimTime now = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const QueryView view =
        cluster.query_view(i, questions[i % questions.size()], now);
    benchmark::DoNotOptimize(view.answers.data());
    ++i;
    now += (i % 16) == 0;
  }
  cluster.remove_tap_observer(&plane.shard(0));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClusterQuerySketched);

void BM_NameTableIntern(benchmark::State& state) {
  // Steady-state re-intern: every name already lives in the table, so each
  // intern() is hash + one probe, zero allocations.
  Rng rng(7);
  std::vector<std::string> names;
  for (int i = 0; i < 10'000; ++i) {
    names.push_back(rng.hex_string(16) + ".avqs.example.com");
  }
  NameTable table;
  for (const std::string& name : names) table.intern(name);
  const std::uint64_t allocs_before = alloc_count();
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (const std::string& name : names) sum += table.intern(name);
    benchmark::DoNotOptimize(sum);
  }
  const auto items =
      static_cast<std::uint64_t>(state.iterations()) * names.size();
  report_allocs_per_query(state, allocs_before, items);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_NameTableIntern);

void BM_TreeInsertSteady(benchmark::State& state) {
  // Re-insert of an already-built tree: one name lookup per insert, no
  // node creation — the shape of a steady capture day where most names
  // repeat.
  Rng rng(3);
  std::vector<DomainName> names;
  for (int i = 0; i < 10'000; ++i) {
    names.emplace_back(rng.hex_string(16) + ".avqs.vendor" +
                       std::to_string(i % 50) + ".com");
  }
  NameTable table;
  DomainNameTree tree(table);
  for (const DomainName& name : names) tree.insert(name);
  const std::uint64_t allocs_before = alloc_count();
  for (auto _ : state) {
    for (const DomainName& name : names) tree.insert(name);
    benchmark::DoNotOptimize(tree.black_count());
  }
  const auto items =
      static_cast<std::uint64_t>(state.iterations()) * names.size();
  report_allocs_per_query(state, allocs_before, items);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_TreeInsertSteady);

void BM_ChrRecordSteady(benchmark::State& state) {
  // Re-record of known RRs: open-addressed probe + counter bump per call.
  Rng rng(4);
  std::vector<std::string> names;
  for (int i = 0; i < 10'000; ++i) {
    names.push_back(rng.hex_string(16) + ".zone.example.com");
  }
  NameTable table;
  CacheHitRateTracker tracker(table);
  for (const std::string& name : names) {
    tracker.record_below(name, RRType::A, "10.0.0.1", 300);
  }
  const std::uint64_t allocs_before = alloc_count();
  for (auto _ : state) {
    for (const std::string& name : names) {
      tracker.record_below(name, RRType::A, "10.0.0.1", 300);
    }
    benchmark::DoNotOptimize(tracker.unique_rrs());
  }
  const auto items =
      static_cast<std::uint64_t>(state.iterations()) * names.size();
  report_allocs_per_query(state, allocs_before, items);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_ChrRecordSteady);

void BM_LruCacheChurn(benchmark::State& state) {
  // get+put cycle over twice the capacity: every put either replaces in
  // place or evicts and recycles a free-list entry.  The slot table is
  // sized at construction and never rehashes.  Keys are mixed like real
  // cache keys (DnsCache stores a mix64'd hash); libstdc++'s identity
  // std::hash over sequential keys would make one giant probe run.
  struct Mix64Hash {
    std::size_t operator()(std::uint64_t v) const noexcept {
      return static_cast<std::size_t>(mix64(v));
    }
  };
  constexpr std::size_t kCapacity = 4096;
  LruCache<std::uint64_t, std::uint64_t, Mix64Hash> cache(kCapacity);
  for (std::uint64_t j = 0; j < kCapacity * 2; ++j) cache.put(j, j);
  std::uint64_t i = 0;
  const std::uint64_t allocs_before = alloc_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(i % (kCapacity * 2)));
    cache.put(i % (kCapacity * 2), i);
    ++i;
  }
  report_allocs_per_query(state, allocs_before,
                          static_cast<std::uint64_t>(state.iterations()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LruCacheChurn);

void BM_EngineDay(benchmark::State& state) {
  // One sharded mining day end to end on the parallel engine: the shards,
  // the merge, labeling, training, mining and the aggregates
  // (MiningSession::run); the argument is the thread count.  Results are
  // thread-count invariant, so this measures pure scheduling speedup.
  ScenarioScale scale;
  scale.queries_per_day = 60'000;
  scale.client_count = 3'000;
  scale.population_scale = 0.5;
  ClusterConfig cluster;
  cluster.server_count = 8;
  MiningSession session(scale);
  session.cluster(cluster)
      .warmup(false)
      .threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const MiningDayResult result = session.run(ScenarioDate::kDec30);
    if (!result.ok()) {
      state.SkipWithError(result.error.c_str());
      return;
    }
    benchmark::DoNotOptimize(result.findings.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * scale.queries_per_day));
}
BENCHMARK(BM_EngineDay)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Console output as usual, plus one gauge per result into the registry:
// bench.<name>.{wall_seconds,iterations,items_per_sec,bytes_per_sec} with
// '/' in benchmark names mapped to '.' (BM_EngineDay/4 ->
// bench.BM_EngineDay.4.*).  The *_per_sec gauges are what the regression
// checker compares.
class RegistryReporter final : public benchmark::ConsoleReporter {
 public:
  explicit RegistryReporter(obs::MetricsRegistry* registry)
      : registry_(registry) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::string name = run.benchmark_name();
      for (char& c : name) {
        if (c == '/' || c == ':') c = '.';
      }
      const std::string prefix = "bench." + name;
      registry_->gauge(prefix + ".wall_seconds")
          .set(run.real_accumulated_time);
      registry_->gauge(prefix + ".iterations")
          .set(static_cast<double>(run.iterations));
      // Rate counters are already finalized (per-second) by the time the
      // reporter runs.
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        registry_->gauge(prefix + ".items_per_sec").set(items->second);
      }
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        registry_->gauge(prefix + ".bytes_per_sec").set(bytes->second);
      }
      // Lower-is-better: the regression checker gates growth of this one.
      const auto allocs = run.counters.find("allocs_per_query");
      if (allocs != run.counters.end()) {
        registry_->gauge(prefix + ".allocs_per_query").set(allocs->second);
      }
    }
  }

 private:
  obs::MetricsRegistry* registry_;
};

}  // namespace
}  // namespace dnsnoise

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dnsnoise::obs::MetricsRegistry registry;
  // One startup line + a gauge recording the name-scan kernel this build
  // compiled in (0 = scalar, 1 = SSE2), so a bench result can always be
  // traced back to the code path that produced it.  Histograms are scalar
  // in every build (DESIGN.md §15).
  const char* scan = dnsnoise::kernels::scan_kernel();
  std::printf("name scan kernel: %s\n", scan);
  registry.gauge("bench.kernel.dispatch_level")
      .set(std::string_view(scan) == "sse2" ? 1.0 : 0.0);
  dnsnoise::RegistryReporter reporter(&registry);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string path =
      dnsnoise::bench::write_bench_json("micro_throughput", registry);
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
