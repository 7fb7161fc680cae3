#include "engine/serve.h"

#include <utility>

#include "engine/drive.h"
#include "engine/parallel_miner.h"
#include "obs/heartbeat.h"
#include "obs/sketch/traffic_sketch.h"

namespace dnsnoise {

ServedMiningDay::ServedMiningDay(
    ScenarioDate date, const PipelineOptions& options, std::size_t threads,
    const DnsServerOptions& server,
    std::shared_ptr<obs::TelemetryServer> telemetry)
    : options_(options),
      threads_(threads == 0 ? 1 : threads),
      day_index_(scenario_day_index(date)),
      telemetry_(std::move(telemetry)),
      capture_(options.capture) {
  if (const char* error = cache_config_error(options_.cluster.cache)) {
    error_ = error;
    return;
  }
  std::optional<ScenarioScale> warm_scale;
  if (options_.warmup) {
    warm_scale = warmup_scale(options_.scale, options_.warmup_volume_fraction);
    if (!warm_scale) {
      error_ = kBadWarmupFraction;
      return;
    }
  }
  scenario_.emplace(date, options_.scale);
  // Extra zones must exist before the cluster takes its (const, lock-free)
  // authority reference.
  if (server.authority_hook) server.authority_hook(scenario_->authority_mut());

  ClusterConfig cluster_config = options_.cluster;
  cluster_config.metrics = options_.metrics;
  cluster_config.trace = options_.trace;
  cluster_ = std::make_unique<RdnsCluster>(cluster_config,
                                           scenario_->authority());

  obs::Heartbeat heartbeat(options_.metrics, "cluster");
  heartbeat.beat();
  if (warm_scale) {
    // The engine's warmup, in-process and before the capture attaches:
    // server i walks shard i of the engine's warmup plan with fresh
    // sampling state, as engine shard i does, so every cache reaches the
    // state its engine shard's cache reaches.
    const std::size_t servers = cluster_config.server_count;
    const TrafficGenerator warm = scenario_->traffic_for(*warm_scale);
    const DayPlan plan = warm.plan_day(day_index_ - 1, servers);
    Question question;  // parse scratch shared by every server's warmup
    for (std::size_t i = 0; i < servers; ++i) {
      drive_day(warm, plan, i, *cluster_, question, &heartbeat);
    }
  }

  capture_.start_day(day_index_);
  capture_.attach(*cluster_);
  attached_ = true;
  if (options_.sketch != nullptr) {
    // One cluster, serialized under the frontend's cluster mutex — a
    // single logical writer, so the served day's tap feeds sketch shard 0
    // (the mutex orders the batches).
    options_.sketch->ensure_shards(1);
    sketch_shard_ = &options_.sketch->shard(0);
    cluster_->add_tap_observer(sketch_shard_);
  }

  WireFrontendConfig frontend_config;
  frontend_config.udp.port = server.port;
  frontend_config.udp.host = server.host;
  frontend_config.udp.shards = server.socket_shards;
  frontend_config.udp.batch = server.batch;
  frontend_config.tcp_fallback = server.tcp_fallback;
  frontend_config.allow_replay_meta = server.allow_replay_meta;
  frontend_config.max_udp_payload = server.max_udp_payload;
  frontend_config.day_start = day_index_ * kSecondsPerDay;
  frontend_config.metrics = options_.metrics;
  frontend_ = std::make_unique<WireFrontend>(*cluster_, frontend_config);
  if (!frontend_->start()) error_ = frontend_->error();
  if (telemetry_ != nullptr && error_.empty()) {
    // The source closes over this day's frontend; detach_slowlog() runs
    // before the frontend is destroyed (finish/destructor), so the
    // telemetry server never scrapes a dangling pointer.
    WireFrontend* frontend = frontend_.get();
    telemetry_->set_slowlog_source(obs::SlowlogSource{
        [frontend](std::size_t max_entries) {
          return frontend->slowlog_json(max_entries);
        },
        [frontend]() { frontend->clear_slowlog(); }});
  }
}

void ServedMiningDay::detach_slowlog() {
  if (telemetry_ != nullptr) {
    telemetry_->set_slowlog_source({});
    telemetry_.reset();
  }
}

ServedMiningDay::~ServedMiningDay() {
  detach_slowlog();
  if (frontend_ == nullptr) return;  // failed before anything was built
  frontend_->stop();
  if (attached_) {
    cluster_->flush_taps();
    if (sketch_shard_ != nullptr) cluster_->remove_tap_observer(sketch_shard_);
    capture_.detach(*cluster_);
  }
}

MiningDayResult ServedMiningDay::finish() {
  MiningDayResult result;
  if (finished_) {
    result.status = MiningDayStatus::kInvalidConfig;
    result.error = "served day already finished";
    return result;
  }
  finished_ = true;
  if (!error_.empty()) {
    result.status = MiningDayStatus::kInvalidConfig;
    result.error = error_;
    return result;
  }
  // Quiesce the serving threads before touching the tap; queries arriving
  // after stop() are no longer answered (clients see a timeout).
  detach_slowlog();
  frontend_->stop();
  cluster_->flush_taps();
  if (sketch_shard_ != nullptr) cluster_->remove_tap_observer(sketch_shard_);
  capture_.detach(*cluster_);
  attached_ = false;

  const obs::RunActiveScope run_active(options_.metrics);
  const MineFn mine = [this](const DisposableZoneMiner& miner,
                             DomainNameTree& tree,
                             const CacheHitRateTracker& chr) {
    return mine_zones_parallel(miner, tree, chr, *options_.miner.psl,
                               threads_);
  };
  // A served day can be arbitrarily sparse (a demo server answering a
  // handful of digs): it passes the empty-capture guard yet leaves the
  // trainer with no usable rows, which surfaces as a throw deep in
  // labeling/training.  That is an undermined day, not a crash.
  try {
    result = finish_mining_day(capture_, *scenario_, options_, mine);
    if (options_.sketch != nullptr && result.ok()) {
      // The served day's mined zones arm the live classifier for the
      // next served day (MiningSession::run does the same).
      std::vector<std::string> zones;
      zones.reserve(result.findings.size());
      for (const DisposableZoneFinding& finding : result.findings) {
        zones.push_back(finding.zone);
      }
      options_.sketch->set_disposable_zones(std::move(zones));
    }
    return result;
  } catch (const std::exception& ex) {
    result.status = MiningDayStatus::kEmptyCapture;
    result.error = std::string("mining the served day failed (too little "
                               "traffic?): ") +
                   ex.what();
    return result;
  }
}

}  // namespace dnsnoise
