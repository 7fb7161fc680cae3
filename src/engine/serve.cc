#include "engine/serve.h"

#include <utility>

#include "engine/drive.h"

namespace dnsnoise {

ServedMiningDay::ServedMiningDay(
    ScenarioDate date, const PipelineOptions& options, std::size_t threads,
    const DnsServerOptions& server,
    std::shared_ptr<obs::TelemetryServer> telemetry)
    : options_(options),
      telemetry_(std::move(telemetry)),
      capture_(options.capture) {
  const std::int64_t day_index = scenario_day_index(date);
  std::optional<ScenarioScale> warm_scale;
  if (const char* error = day_config_error(options_, threads, warm_scale)) {
    error_ = error;
    return;
  }
  scenario_.emplace(date, options_.scale);
  // Extra zones must exist before the clusters take their (const,
  // lock-free) authority reference.
  if (server.authority_hook) server.authority_hook(scenario_->authority_mut());

  // The day's one pool, as MiningSession::run keeps its day's: the servers
  // warm on it, and finish() mines on it.
  if (threads > 1) pool_.emplace(threads - 1, options_.metrics);
  const ParallelFor parallel_for = on_pool(pool_ ? &*pool_ : nullptr);
  results_ = day_shard_results(options_);
  shards_.resize(results_.size());
  std::optional<TrafficGenerator> warm;
  std::optional<DayPlan> warm_plan;
  if (warm_scale) {
    warm.emplace(scenario_->traffic_for(*warm_scale));
    warm_plan.emplace(
        warm->plan_day(day_index - 1, shards_.size(), parallel_for));
  }
  run_shards(parallel_for, results_, [&](std::size_t i) {
    DayShard& shard = *(shards_[i] = std::make_unique<DayShard>(
                            options_, i, scenario_->authority(), results_[i]));
    if (warm_plan) shard.drive(*warm, *warm_plan);
    shard.start(day_index);
  });
  std::vector<RdnsCluster*> clusters;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!results_[i].error.empty()) {
      error_ = "shard " + std::to_string(i) + ": " + results_[i].error;
      return;
    }
    clusters.push_back(&shards_[i]->cluster());
  }

  WireFrontendConfig frontend_config;
  frontend_config.udp.port = server.port;
  frontend_config.udp.host = server.host;
  frontend_config.udp.shards = server.socket_shards;
  frontend_config.udp.batch = server.batch;
  frontend_config.tcp_fallback = server.tcp_fallback;
  frontend_config.allow_replay_meta = server.allow_replay_meta;
  frontend_config.max_udp_payload = server.max_udp_payload;
  frontend_config.day_start = day_index * kSecondsPerDay;
  frontend_config.metrics = options_.metrics;
  frontend_ = std::make_unique<WireFrontend>(clusters, frontend_config);
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

// The members end the day: the frontend stops its threads, then each
// shard detaches its observers.
ServedMiningDay::~ServedMiningDay() { detach_slowlog(); }

MiningDayResult ServedMiningDay::finish() {
  MiningDayResult result;
  if (finished_ || !error_.empty()) {
    result.status = MiningDayStatus::kInvalidConfig;
    result.error = finished_ ? "served day already finished" : error_;
    return result;
  }
  finished_ = true;
  // Quiesce the serving threads before touching the taps; queries arriving
  // after stop() are no longer answered (clients see a timeout).
  frontend_->stop();
  for (const std::unique_ptr<DayShard>& shard : shards_) shard->finish();

  const obs::RunActiveScope run_active(options_.metrics);
  ThreadPool* const pool = pool_ ? &*pool_ : nullptr;
  std::string merge_error;  // stays empty: the constructor saw every shard
  merge_shards(results_, capture_, merge_error, on_pool(pool));
  result = mine_captured_day(capture_, *scenario_, options_, pool,
                             telemetry_.get());
  detach_slowlog();
  return result;
}

}  // namespace dnsnoise
