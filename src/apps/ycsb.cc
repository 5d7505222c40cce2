#include "src/apps/ycsb.h"

#include "src/core/invariant.h"

namespace daredevil {

const char* YcsbOpName(YcsbOp op) {
  switch (op) {
    case YcsbOp::kRead:
      return "read";
    case YcsbOp::kUpdate:
      return "update";
    case YcsbOp::kInsert:
      return "insert";
    case YcsbOp::kScan:
      return "scan";
    case YcsbOp::kReadModifyWrite:
      return "rmw";
  }
  return "?";
}

YcsbWorkload::YcsbWorkload(KvStore* store, const YcsbConfig& config, Rng rng,
                           Simulator* sim, Tick measure_start, Tick measure_end)
    : YcsbWorkload(store, config,
                   ZipfianGenerator(config.record_count, config.zipf_theta),
                   rng, sim, measure_start, measure_end) {}

YcsbWorkload::YcsbWorkload(KvStore* store, const YcsbConfig& config,
                           const ZipfianGenerator& zipf, Rng rng,
                           Simulator* sim, Tick measure_start, Tick measure_end)
    : store_(store),
      config_(config),
      rng_(rng),
      zipf_(zipf),
      sim_(sim),
      measure_start_(measure_start),
      measure_end_(measure_end),
      insert_cursor_(config.record_count) {
  DD_CHECK(config_.workload == 'A' || config_.workload == 'B' ||
           config_.workload == 'E' || config_.workload == 'F')
      << "unsupported YCSB workload '" << config_.workload << "'";
  DD_CHECK(zipf_.n() == config_.record_count &&
           zipf_.theta() == config_.zipf_theta)
      << "YCSB key generator spans " << zipf_.n() << " keys with theta "
      << zipf_.theta() << ", the config " << config_.record_count
      << " with theta " << config_.zipf_theta;
}

YcsbOp YcsbWorkload::NextOp() {
  const double p = rng_.NextDouble();
  switch (config_.workload) {
    case 'A':
      return p < 0.5 ? YcsbOp::kRead : YcsbOp::kUpdate;
    case 'B':
      return p < 0.95 ? YcsbOp::kRead : YcsbOp::kUpdate;
    case 'E':
      return p < 0.95 ? YcsbOp::kScan : YcsbOp::kInsert;
    case 'F':
    default:
      return p < 0.5 ? YcsbOp::kRead : YcsbOp::kReadModifyWrite;
  }
}

void YcsbWorkload::Start() { RunOne(); }

void YcsbWorkload::Finish(YcsbOp op, Tick started) {
  const Tick now = sim_->now();
  if (now >= measure_start_ && now < measure_end_) {
    latency_[static_cast<int>(op)].Record(now - started);
    ++counts_[static_cast<int>(op)];
  }
  ++total_ops_;
  if (config_.think_time > kZeroDuration) {
    sim_->After(config_.think_time, [this]() { RunOne(); });
  } else {
    RunOne();
  }
}

void YcsbWorkload::RunOne() {
  if (sim_->now() >= measure_end_) {
    return;
  }
  const YcsbOp op = NextOp();
  const Tick started = sim_->now();
  auto done = [this, op, started]() { Finish(op, started); };
  switch (op) {
    case YcsbOp::kRead:
      store_->Get(zipf_.Next(rng_), done);
      break;
    case YcsbOp::kUpdate:
      store_->Put(zipf_.Next(rng_), done);
      break;
    case YcsbOp::kInsert:
      store_->Put(insert_cursor_++, done);
      break;
    case YcsbOp::kScan: {
      const int len = static_cast<int>(rng_.NextInt(1, config_.max_scan_len));
      store_->Scan(zipf_.Next(rng_), len, done);
      break;
    }
    case YcsbOp::kReadModifyWrite:
      store_->ReadModifyWrite(zipf_.Next(rng_), done);
      break;
  }
}

}  // namespace daredevil
