// Figure 12a-12d: YCSB workloads A/B/E/F on the RocksDB-like KV store with 8
// background streaming T-tenants, 4 shared cores. Reports per-operation
// 99.9th tail latency under each storage stack.
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/kvstore.h"
#include "src/apps/ycsb.h"

using namespace daredevil;

namespace {

constexpr int kClientThreads = 4;
constexpr uint64_t kKeysPerClient = 200000 / kClientThreads;

struct CellResult {
  Histogram latency[kNumYcsbOps];
  uint64_t counts[kNumYcsbOps] = {0};
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

// `zipf` is every client's key generator (they share one shape).
CellResult RunCell(char workload, StackKind kind, const ZipfianGenerator& zipf) {
  ScenarioConfig cfg = MakeSvmConfig(/*cores=*/4);
  cfg.stack = kind;
  cfg.warmup = ScaledMs(40);
  cfg.duration = ScaledMs(400);
  cfg.seed = 1234;
  // 8 background streaming T-tenants share the cores.
  AddTTenants(cfg, 8);
  ScenarioEnv env(cfg);

  // The RocksDB-like application is an L-tenant (realtime ionice, §7.4);
  // each client thread has its own task_struct and is managed at thread
  // granularity (§6). Threads drive independent DB shards.
  struct Client {
    std::unique_ptr<AppIoContext> io;
    std::unique_ptr<KvStore> store;
    std::unique_ptr<YcsbWorkload> ycsb;
  };
  std::vector<std::unique_ptr<Client>> clients;
  KvStoreConfig kv_cfg;
  for (int i = 0; i < kClientThreads; ++i) {
    auto client = std::make_unique<Client>();
    Tenant& tenant = env.AddAppTenant("rocksdb" + std::to_string(i), "APP",
                                      IoniceClass::kRealtime, i % 4);
    client->io = std::make_unique<AppIoContext>(&env.machine(), &env.stack(),
                                                &tenant, /*nsid=*/0);
    client->store = std::make_unique<KvStore>(client->io.get(), kv_cfg,
                                              env.shard().rng().Fork());
    client->store->Load(kKeysPerClient);
    // YCSB runs against a warmed database: the zipfian-hottest blocks are
    // cached, so reads/scans are mostly CPU/cache-bound (§7.4's analysis).
    client->store->WarmCache(4 * kv_cfg.block_cache_pages);
    YcsbConfig ycsb_cfg;
    ycsb_cfg.workload = workload;
    ycsb_cfg.record_count = kKeysPerClient;
    client->ycsb = std::make_unique<YcsbWorkload>(
        client->store.get(), ycsb_cfg, zipf, env.shard().rng().Fork(),
        &env.sim(), env.measure_start(), env.measure_end());
    client->ycsb->Start();
    clients.push_back(std::move(client));
  }
  env.Start();

  env.sim().RunUntil(env.measure_end());

  CellResult out;
  for (const auto& client : clients) {
    for (int op = 0; op < kNumYcsbOps; ++op) {
      out.latency[op].Merge(client->ycsb->OpLatency(static_cast<YcsbOp>(op)));
      out.counts[op] += client->ycsb->OpCount(static_cast<YcsbOp>(op));
    }
    out.cache_hits += client->store->cache_hits();
    out.cache_misses += client->store->cache_misses();
  }
  return out;
}

}  // namespace

int main() {
  PrintHeader("Figure 12a-12d: YCSB on the RocksDB-like KV store",
              "§7.4, Fig. 12a (A), 12b (B), 12c (E), 12d (F)",
              "64GB-db-shaped mini LSM (scaled to 200K keys), zipfian, with 8 "
              "background streaming T-tenants on 4 cores");

  BenchJsonSink json("fig12_ycsb");
  const ZipfianGenerator zipf(kKeysPerClient, YcsbConfig{}.zipf_theta);
  for (char workload : {'A', 'B', 'E', 'F'}) {
    std::printf("--- YCSB-%c ---\n", workload);
    TablePrinter table({"stack", "op", "p99.9", "avg", "ops"});
    for (StackKind kind :
         {StackKind::kVanilla, StackKind::kBlkSwitch, StackKind::kDareFull}) {
      const CellResult cell = RunCell(workload, kind, zipf);
      if (json.enabled()) {
        JsonWriter w;
        w.BeginObject();
        w.Key("cache_hits").UInt(cell.cache_hits);
        w.Key("cache_misses").UInt(cell.cache_misses);
        w.Key("ops").BeginObject();
        for (int op = 0; op < kNumYcsbOps; ++op) {
          if (cell.counts[op] == 0) {
            continue;
          }
          w.Key(std::string(YcsbOpName(static_cast<YcsbOp>(op)))).BeginObject();
          w.Key("count").UInt(cell.counts[op]);
          w.Key("latency_ns");
          AppendHistogramJson(w, cell.latency[op]);
          w.EndObject();
        }
        w.EndObject();
        w.EndObject();
        json.AddJson(std::string(1, workload) + "/" +
                         std::string(StackKindName(kind)),
                     w.str());
      }
      for (int op = 0; op < kNumYcsbOps; ++op) {
        if (cell.counts[op] == 0) {
          continue;
        }
        table.AddRow({std::string(StackKindName(kind)),
                      YcsbOpName(static_cast<YcsbOp>(op)),
                      FormatMs(static_cast<double>(cell.latency[op].P999())),
                      FormatMs(cell.latency[op].Mean()),
                      FormatCount(static_cast<double>(cell.counts[op]))});
      }
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Paper shape: Daredevil improves the tail latency of operations that\n"
      "directly use the storage stack (updates in A, ~2x vs blk-switch; F's\n"
      "read-modify-writes) but shows little gain on cache/CPU-bound ops\n"
      "(reads in B, scans in E) and may slightly worsen some (E inserts).\n");
  return 0;
}
