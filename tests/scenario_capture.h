// A RunScenario twin for the observer tests. It runs a config with
// RunScenario's wiring (tenant ids from 1, round-robin cores, per-job forks
// of the shard RNG, the same metrics registrations, sampler and SLO tracker)
// and keeps what the post-run observers consume - the timeline records, the
// finalized SLO report before attribution, and the env - so a test can check
// the HOL/SLO attribution and the exporter's event list on a real run.
#ifndef DAREDEVIL_TESTS_SCENARIO_CAPTURE_H_
#define DAREDEVIL_TESTS_SCENARIO_CAPTURE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/stats/metrics.h"
#include "src/stats/slo.h"
#include "src/stats/trace_export.h"
#include "src/workload/fio_job.h"
#include "src/workload/scenario.h"

namespace daredevil {

struct CapturedRun {
  std::unique_ptr<MetricsRegistry> registry;  // the env's metrics sink
  std::unique_ptr<ScenarioEnv> env;
  std::map<uint64_t, std::string> tenant_names;  // id -> job name
  std::vector<RequestRecord> records;            // the timeline capture
  SloReport slo;  // finalized; episodes not yet attributed
};

// `config` must attach the timeline capture (export_trace, analyze_holb or
// an SLO spec).
inline CapturedRun CaptureRun(const ScenarioConfig& config) {
  CapturedRun run;
  run.registry = std::make_unique<MetricsRegistry>();
  run.env = std::make_unique<ScenarioEnv>(config);
  ScenarioEnv& env = *run.env;
  MetricsRegistry* registry = run.registry.get();
  env.shard().AttachMetrics(registry);
  RegisterMachineMetrics(env.machine(), registry);
  env.device().RegisterMetrics(registry);
  env.stack().RegisterMetrics(registry);
  if (env.sampler() != nullptr) {
    env.sampler()->RegisterMetrics(registry);
    env.AttachSampler();
  }
  // Outlives the jobs, which hold raw pointers into it.
  SloTracker slo(config.slos, env.measure_start(), env.measure_end());
  std::vector<std::unique_ptr<FioJob>> jobs;
  int next_core = 0;
  uint64_t next_tenant_id = 1;
  for (const FioJobSpec& spec : config.jobs) {
    int core = spec.core;
    if (core < 0) {
      core = next_core;
      next_core = (next_core + 1) % env.machine().num_cores();
    }
    auto job = std::make_unique<FioJob>(
        &env.machine(), &env.stack(), spec, next_tenant_id++, core,
        env.shard().rng().Fork(), env.measure_start(), env.measure_end());
    job->AttachMetrics(registry);
    if (!slo.empty()) {
      job->AttachSlo(slo.AddTenant(job->tenant().name, job->tenant().group,
                                   job->tenant().id.value()));
    }
    run.tenant_names[job->tenant().id.value()] = job->tenant().name;
    jobs.push_back(std::move(job));
  }
  for (auto& job : jobs) {
    job->Start();
  }
  env.sim().RunUntil(env.measure_end());
  run.slo = slo.Finalize();
  if (env.timeline_log() != nullptr) {
    run.records = env.timeline_log()->Records();
  }
  return run;
}

// The export input RunScenario serializes for the same run.
inline TraceExportInput MakeExportInput(CapturedRun& run,
                                        const SloReport* slo) {
  ScenarioEnv& env = *run.env;
  TraceExportInput input;
  input.stack_name = std::string(env.stack().name());
  input.num_cores = env.machine().num_cores();
  input.nr_nsq = env.device().nr_nsq();
  input.nr_ncq = env.device().nr_ncq();
  if (env.trace_log() != nullptr) {
    input.events = env.trace_log()->Events();
  }
  input.requests = run.records;
  input.sampler = env.sampler();
  input.slo = slo;
  input.tenant_names = run.tenant_names;
  for (int i = 0; i < env.device().nr_nsq(); ++i) {
    input.nsq_labels[i] = env.stack().NsqTrackLabel(i);
  }
  return input;
}

}  // namespace daredevil

#endif  // DAREDEVIL_TESTS_SCENARIO_CAPTURE_H_
