// Runs a config through ScenarioEnv::Start and keeps what the post-run
// observers consume but ScenarioEnv::Finish does not return - the timeline
// records and the finalized SLO report before attribution - plus the env,
// so a test can check the HOL/SLO attribution and the exporter's event list
// on a real run.
#ifndef DAREDEVIL_TESTS_SCENARIO_CAPTURE_H_
#define DAREDEVIL_TESTS_SCENARIO_CAPTURE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/stats/slo.h"
#include "src/stats/trace_export.h"
#include "src/workload/scenario.h"

namespace daredevil {

struct CapturedRun {
  std::unique_ptr<ScenarioEnv> env;
  std::vector<RequestRecord> records;  // the timeline capture
  SloReport slo;  // finalized; episodes not yet attributed
};

// `config` must attach the timeline capture (export_trace or an SLO spec).
inline CapturedRun CaptureRun(const ScenarioConfig& config) {
  CapturedRun run;
  run.env = std::make_unique<ScenarioEnv>(config);
  ScenarioEnv& env = *run.env;
  env.Start();
  env.sim().RunUntil(env.measure_end());
  run.slo = env.slo_tracker()->Finalize();
  run.records = env.timeline_log()->Records();
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
  input.tenant_names = env.TenantNames();
  for (int i = 0; i < env.device().nr_nsq(); ++i) {
    input.nsq_labels[i] = env.stack().NsqTrackLabel(i);
  }
  return input;
}

}  // namespace daredevil

#endif  // DAREDEVIL_TESTS_SCENARIO_CAPTURE_H_
