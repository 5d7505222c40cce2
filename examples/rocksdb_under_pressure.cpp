// Database server scenario (§4: "database servers using local storage for
// high-performance I/O services"): a RocksDB-like KV store serving YCSB-A
// point reads/updates while background streaming jobs hammer the same SSD.
//
// Demonstrates: building an application on the public API (AppIoContext +
// KvStore + YcsbWorkload), mixing it with FIO tenants inside one ScenarioEnv,
// and reading per-operation latency histograms.
#include <cstdio>

#include "src/apps/kvstore.h"
#include "src/apps/ycsb.h"
#include "src/stats/table.h"
#include "src/workload/scenario.h"

using namespace daredevil;

int main() {
  std::printf(
      "RocksDB-like KV store under pressure: YCSB-A (zipfian 50/50\n"
      "read/update) + 8 background 128KB streaming writers on 4 cores.\n\n");

  TablePrinter table({"stack", "get p99.9", "get avg", "put p99.9", "put avg",
                      "ops/s", "cache hit"});
  for (StackKind kind :
       {StackKind::kVanilla, StackKind::kBlkSwitch, StackKind::kDareFull}) {
    ScenarioConfig cfg = MakeSvmConfig(/*cores=*/4);
    cfg.stack = kind;
    cfg.warmup = 20 * kMillisecond;
    cfg.duration = 200 * kMillisecond;
    cfg.seed = 2024;
    AddTTenants(cfg, 8);
    ScenarioEnv env(cfg);

    // The database runs with realtime ionice: its point operations are
    // latency-sensitive. Put WAL writes are synchronous (outlier L-requests).
    Tenant& db = env.AddAppTenant("rocksdb", "APP", IoniceClass::kRealtime,
                                  /*core=*/0);
    AppIoContext io(&env.machine(), &env.stack(), &db, /*nsid=*/0);
    KvStoreConfig kv_cfg;
    KvStore store(&io, kv_cfg, env.shard().rng().Fork());
    store.Load(100000);
    store.WarmCache(4 * kv_cfg.block_cache_pages);

    YcsbConfig ycsb_cfg;
    ycsb_cfg.workload = 'A';
    ycsb_cfg.record_count = 100000;
    YcsbWorkload ycsb(&store, ycsb_cfg, env.shard().rng().Fork(), &env.sim(),
                      env.measure_start(), env.measure_end());
    ycsb.Start();
    // The config's 8 T-tenants start after the database.
    env.Start();

    env.sim().RunUntil(env.measure_end());

    const Histogram& get = ycsb.OpLatency(YcsbOp::kRead);
    const Histogram& put = ycsb.OpLatency(YcsbOp::kUpdate);
    const double ops_per_sec =
        static_cast<double>(ycsb.OpCount(YcsbOp::kRead) +
                            ycsb.OpCount(YcsbOp::kUpdate)) /
        ToSec(cfg.duration);
    const double hits = static_cast<double>(store.cache_hits());
    const double lookups = hits + static_cast<double>(store.cache_misses());
    table.AddRow({std::string(StackKindName(kind)),
                  FormatMs(static_cast<double>(get.P999())),
                  FormatMs(get.Mean()),
                  FormatMs(static_cast<double>(put.P999())),
                  FormatMs(put.Mean()), FormatCount(ops_per_sec),
                  lookups > 0 ? FormatPercent(hits / lookups) : "n/a"});
  }
  table.Print();

  std::printf(
      "\nUpdates (WAL sync writes) exercise the storage stack and improve\n"
      "sharply under Daredevil; reads are mostly cache-served and change\n"
      "little (the paper's §7.4 analysis).\n");
  return 0;
}
