// Deterministic crash-matrix recovery harness (ISSUE 10 tentpole): replay a
// seeded application schedule, crash the whole machine at every Kth simulator
// event, and drive post-crash recovery against the device's persisted
// snapshot. Two applications are swept — the KV store (WAL replay) and
// SimpleFs (fsck-style invariant sweep) — over two gate stacks each.
//
// The invariant under test is the durability contract:
//   - everything acknowledged before the crash (FUA WAL append, fsync barrier,
//     create/delete inode write) survives recovery, and
//   - anything torn or unpersisted is *detected* — truncated, counted, never
//     silently served.
// With no durability faults in the plan every crash point must recover
// `clean()`; with torn-write / flush-ignore specs attached the device is
// allowed to lose acknowledged state, but recovery must attribute every
// missing acknowledged item as a violation rather than serving stale data.
//
// The crash stride K is configurable via DD_CRASH_STRIDE (the CI crash job
// tightens it); the default is an odd value so crash points do not
// phase-lock with periodic stack timers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/apps/kvstore.h"
#include "src/apps/simplefs.h"
#include "src/fault/fault_plan.h"
#include "src/nvme/device.h"
#include "src/sim/simulator.h"
#include "src/workload/scenario.h"

namespace daredevil {
namespace {

// Crash stride: a crash is forced after every K simulator events. The
// default is deliberately odd (no phase-lock with millisecond-period stack
// timers); DD_CRASH_STRIDE overrides it for denser CI sweeps.
uint64_t CrashStride() {
  if (const char* env = std::getenv("DD_CRASH_STRIDE")) {
    const long v = std::atol(env);
    if (v > 0) {
      return static_cast<uint64_t>(v);
    }
  }
  return 97;
}

// Backstop for the crash-point sweep: if an application schedule has not
// drained by this many events something is wrong with the harness itself.
constexpr uint64_t kMaxScheduleEvents = 2'000'000;

// CI's crash job points DD_CRASH_REPORT at a file and uploads it as the fsck
// report artifact; each matrix sweep appends one summary line. Unset (the
// common local case), this is a no-op.
void AppendCrashReport(const std::string& line) {
  const char* path = std::getenv("DD_CRASH_REPORT");
  if (path == nullptr) {
    return;
  }
  std::ofstream out(path, std::ios::app);
  out << line << "\n";
}

ScenarioConfig CrashConfig(StackKind kind, const FaultPlan& faults) {
  ScenarioConfig config = MakeSvmConfig(2);
  config.stack = kind;
  config.seed = 1811;  // fixed: every crash point replays the same schedule
  config.faults = faults;
  return config;
}

// One application environment over a gate stack: simulator + machine +
// device + stack + a single APP tenant with an I/O context.
class CrashEnv {
 public:
  CrashEnv(StackKind kind, const FaultPlan& faults)
      : env_(CrashConfig(kind, faults)) {
    Tenant& tenant = env_.AddAppTenant("app", "APP", IoniceClass::kBestEffort,
                                       /*core=*/0);
    io_ = std::make_unique<AppIoContext>(&env_.machine(), &env_.stack(),
                                         &tenant, /*nsid=*/0);
  }

  Simulator& sim() { return env_.sim(); }
  Device& device() { return env_.device(); }
  StorageStack& stack() { return env_.stack(); }
  AppIoContext* io() { return io_.get(); }

  // The recovery view applications consume: the device's persisted snapshot.
  DurabilityView View() {
    return [this](uint64_t lba) {
      return env_.device().PersistedAt(/*nsid=*/0, Lba{lba});
    };
  }

  // Steps the schedule until `crash_at` events, the workload drains, or the
  // backstop trips. Returns true when the crash point was reached (i.e. the
  // schedule still had work at event `crash_at`).
  bool StepUntilCrash(uint64_t crash_at, const std::function<bool()>& drained) {
    while (sim().events_processed() < crash_at) {
      if (drained() && io_->inflight() == 0) {
        return false;
      }
      if (!sim().Step()) {
        return false;
      }
    }
    return true;
  }

 private:
  ScenarioEnv env_;
  std::unique_ptr<AppIoContext> io_;
};

// ---------------------------------------------------------------------------
// KV store: sequential Puts with small memtables (so flush checkpoints and
// compactions interleave with the WAL appends), crash, WAL replay, then a
// run-on of the recovered store.
// ---------------------------------------------------------------------------

constexpr uint64_t kKvOps = 48;  // Puts before the crash, and again after
constexpr Tick kKvRunOn = 2 * kSecond;

struct KvCrashOutcome {
  KvRecoveryReport report;
  uint64_t acked = 0;    // Put completions observed before the crash
  uint64_t served = 0;   // acked keys the recovered store still serves
  uint64_t events = 0;   // events processed when the crash hit
  bool crashed = false;  // false: the schedule drained before crash_at
  // The run-on: kKvOps Puts of new keys to the recovered store, then
  // kKvRunOn of simulated time.
  uint64_t acked_after = 0;   // of those Puts, the ones acked
  uint64_t served_after = 0;  // acked ones the store serves at the end
  bool flushed_again = false;  // a flush barrier acked after Recover
};

KvCrashOutcome RunKvCrash(StackKind kind, uint64_t crash_at,
                          const FaultPlan& faults) {
  CrashEnv env(kind, faults);
  KvStoreConfig config;
  config.memtable_entries = 12;      // force memtable flushes + checkpoints
  config.l0_compaction_trigger = 2;  // and L0 compactions
  KvStore store(env.io(), config, Rng(11));

  // Puts one key after another until `limit` were issued, adding each acked
  // key to `*acked_into`.
  uint64_t issued = 0;
  uint64_t limit = kKvOps;
  bool all_done = false;
  std::set<uint64_t> acked;
  std::set<uint64_t> acked_after;
  std::set<uint64_t>* acked_into = &acked;
  std::function<void()> put_next = [&]() {
    if (issued >= limit) {
      all_done = true;
      return;
    }
    const uint64_t key = issued++ * 7;  // sparse keys, all distinct
    store.Put(key, [&, key]() {
      acked_into->insert(key);
      put_next();
    });
  };
  put_next();

  KvCrashOutcome out;
  out.crashed = env.StepUntilCrash(crash_at, [&] { return all_done; });
  out.events = env.sim().events_processed();
  env.device().Crash();
  out.acked = acked.size();
  out.report = store.Recover(env.View());
  for (uint64_t key : acked) {
    out.served += store.Contains(key) ? 1 : 0;
  }

  // Run on with kKvOps Puts of keys never issued before.
  const uint64_t checkpoint = store.acked_checkpoint_lsn();
  acked_into = &acked_after;
  limit = issued + kKvOps;
  put_next();
  env.sim().RunUntil(env.sim().now() + kKvRunOn);
  out.acked_after = acked_after.size();
  for (uint64_t key : acked_after) {
    out.served_after += store.Contains(key) ? 1 : 0;
  }
  out.flushed_again = store.acked_checkpoint_lsn() > checkpoint;
  return out;
}

class KvCrashMatrixTest : public ::testing::TestWithParam<StackKind> {};

// No durability hazards: every crash point must recover clean — all
// acknowledged Puts serveable, zero acknowledged loss.
TEST_P(KvCrashMatrixTest, EveryCrashPointRecoversAckedPuts) {
  const StackKind kind = GetParam();
  const uint64_t stride = CrashStride();
  const FaultPlan no_faults;
  uint64_t crashes = 0;
  uint64_t total_scanned = 0;
  uint64_t total_replayed = 0;
  for (uint64_t crash_at = stride;; crash_at += stride) {
    ASSERT_LT(crash_at, kMaxScheduleEvents) << "schedule never drained";
    const KvCrashOutcome out = RunKvCrash(kind, crash_at, no_faults);
    total_scanned += out.report.scanned;
    total_replayed += out.report.replayed;
    if (!out.crashed) {
      // Past the end of the schedule: the final, fully-acked crash must still
      // recover everything, then the sweep is done.
      EXPECT_TRUE(out.report.clean());
      EXPECT_EQ(out.served, out.acked);
      break;
    }
    ++crashes;
    EXPECT_TRUE(out.report.clean())
        << "acked loss at event " << out.events << ": lost_acked="
        << out.report.lost_acked << " torn=" << out.report.torn;
    EXPECT_EQ(out.served, out.acked)
        << "acked Put not serveable after crash at event " << out.events;
    // Scan accounting sanity: torn/stale/missing-unacked/replayed partition
    // disjoint slot sets (checkpoint-superseded records are valid but neither
    // replayed nor lost, so only an inequality is exact).
    EXPECT_LE(out.report.replayed + out.report.torn + out.report.stale +
                  out.report.lost_unacked,
              out.report.scanned)
        << "WAL scan accounting leak at event " << out.events;
    // The recovered store runs on: every new Put acks and is served, and
    // its memtable checkpoints again.
    EXPECT_EQ(out.acked_after, kKvOps) << "crash at event " << out.events;
    EXPECT_EQ(out.served_after, out.acked_after)
        << "crash at event " << out.events;
    EXPECT_TRUE(out.flushed_again) << "crash at event " << out.events;
  }
  EXPECT_GT(crashes, 0u) << "stride " << stride << " skipped every event";
  AppendCrashReport("kv clean stack=" + std::string(StackKindName(kind)) +
                    " stride=" + std::to_string(stride) +
                    " crashes=" + std::to_string(crashes) +
                    " wal_scanned=" + std::to_string(total_scanned) +
                    " wal_replayed=" + std::to_string(total_replayed) +
                    " lost_acked=0");
}

// Torn WAL writes attached: the device may now corrupt acknowledged records,
// but recovery must detect each one — every acked-but-unserveable key is
// attributed to lost_acked, and torn slots are counted, never replayed.
TEST_P(KvCrashMatrixTest, TornWritesAreDetectedNeverServed) {
  const StackKind kind = GetParam();
  const uint64_t stride = CrashStride();
  FaultPlan faults;
  FaultSpec torn;
  torn.kind = FaultKind::kTornWrite;
  torn.probability = 0.25;
  faults.Add(torn);
  uint64_t torn_detected = 0;
  uint64_t lost_acked = 0;
  for (uint64_t crash_at = stride;; crash_at += stride) {
    ASSERT_LT(crash_at, kMaxScheduleEvents) << "schedule never drained";
    const KvCrashOutcome out = RunKvCrash(kind, crash_at, faults);
    torn_detected += out.report.torn;
    lost_acked += out.report.lost_acked;
    // Attribution: a key acknowledged but no longer serveable must show up
    // as an acknowledged loss — silent drops are the one illegal outcome.
    EXPECT_LE(out.acked - out.served, out.report.lost_acked)
        << "silently dropped acked key at event " << out.events;
    EXPECT_EQ(out.served_after, out.acked_after)
        << "acked Put not served in the run-on after event " << out.events;
    if (!out.crashed) {
      break;
    }
  }
  EXPECT_GT(torn_detected, 0u) << "torn-write hazard never bit a WAL slot";
  AppendCrashReport("kv torn stack=" + std::string(StackKindName(kind)) +
                    " stride=" + std::to_string(stride) +
                    " torn_detected=" + std::to_string(torn_detected) +
                    " lost_acked=" + std::to_string(lost_acked));
}

INSTANTIATE_TEST_SUITE_P(Stacks, KvCrashMatrixTest,
                         ::testing::Values(StackKind::kVanilla,
                                           StackKind::kDareFull),
                         [](const ::testing::TestParamInfo<StackKind>& info) {
                           std::string name(StackKindName(info.param));
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// A crash at event 120 of the vanilla schedule drops an L0 run whose flush
// job is still in flight. That job's late FLUSH ack must not re-queue the
// dropped run: the run-on's next compaction would look it up and throw.
TEST(KvCrashRunOnTest, DroppedRunStaysDroppedInTheRunOn) {
  KvCrashOutcome out;
  ASSERT_NO_THROW(out = RunKvCrash(StackKind::kVanilla, 120, FaultPlan()));
  ASSERT_TRUE(out.crashed);
  EXPECT_TRUE(out.report.clean());
  EXPECT_EQ(out.served, out.acked);
  EXPECT_EQ(out.acked_after, kKvOps);
  EXPECT_EQ(out.served_after, out.acked_after);
  EXPECT_TRUE(out.flushed_again);
}

// ---------------------------------------------------------------------------
// SimpleFs: a mail-like create/append/fsync/delete script, crash, fsck.
// ---------------------------------------------------------------------------

struct FsCrashOutcome {
  FsckReport report;
  // Acknowledged model: file -> durable length promised by a completed
  // fsync/create; deleted set for completed deletes. A delete that was
  // *issued* but not acknowledged at the crash may legally have taken
  // effect (the marker can reach media before the completion reaches the
  // app), so those files are exempt from the must-exist check.
  std::map<SimpleFs::FileId, uint64_t> acked_len;
  std::set<SimpleFs::FileId> acked_deleted;
  std::set<SimpleFs::FileId> delete_issued;
  uint64_t observed_violations = 0;  // model entries the recovered fs breaks
  uint64_t events = 0;
  bool crashed = false;
};

FsCrashOutcome RunFsCrash(StackKind kind, uint64_t crash_at,
                          const FaultPlan& faults) {
  CrashEnv env(kind, faults);
  SimpleFsConfig config;
  SimpleFs fs(env.io(), config);

  // The scripted schedule: 4 files created, three append+fsync rounds each,
  // then the first two deleted. Every step chains off the previous
  // completion, so the op stream is identical across crash points.
  FsCrashOutcome out;
  std::vector<SimpleFs::FileId> ids(4, 0);
  bool all_done = false;
  size_t step = 0;
  std::function<void()> next;
  auto fsync_tracking = [&](SimpleFs::FileId id) {
    const uint64_t len = fs.FilePages(id);
    fs.Fsync(id, [&, id, len]() {
      uint64_t& acked = out.acked_len[id];
      acked = std::max(acked, len);
      next();
    });
  };
  std::vector<std::function<void()>> script;
  for (size_t i = 0; i < ids.size(); ++i) {
    script.push_back([&, i]() {
      fs.Create([&, i]() {
        out.acked_len[ids[i]] = 0;
        next();
      }, &ids[i]);
    });
  }
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < ids.size(); ++i) {
      script.push_back([&, i]() {
        fs.Append(ids[i], 2, [&, i]() { fsync_tracking(ids[i]); });
      });
    }
  }
  for (size_t i = 0; i < 2; ++i) {
    script.push_back([&, i]() {
      out.delete_issued.insert(ids[i]);
      fs.Delete(ids[i], [&, i]() {
        out.acked_deleted.insert(ids[i]);
        out.acked_len.erase(ids[i]);
        next();
      });
    });
  }
  next = [&]() {
    if (step >= script.size()) {
      all_done = true;
      return;
    }
    script[step++]();
  };
  next();

  out.crashed = env.StepUntilCrash(crash_at, [&] { return all_done; });
  out.events = env.sim().events_processed();
  env.device().Crash();
  out.report = fs.Recover(env.View());
  for (const auto& [id, len] : out.acked_len) {
    if (out.delete_issued.count(id) != 0) {
      continue;  // an in-flight delete may have legally taken effect
    }
    if (!fs.Exists(id) || fs.FilePages(id) < len) {
      ++out.observed_violations;
    }
  }
  for (SimpleFs::FileId id : out.acked_deleted) {
    if (fs.Exists(id)) {
      ++out.observed_violations;  // resurrection
    }
  }
  return out;
}

class FsCrashMatrixTest : public ::testing::TestWithParam<StackKind> {};

// No durability hazards: the fsck sweep must come back clean at every crash
// point — acknowledged fsyncs/creates survive at full length, acknowledged
// deletes stay dead.
TEST_P(FsCrashMatrixTest, EveryCrashPointPreservesAckedState) {
  const StackKind kind = GetParam();
  const uint64_t stride = CrashStride();
  const FaultPlan no_faults;
  uint64_t crashes = 0;
  for (uint64_t crash_at = stride;; crash_at += stride) {
    ASSERT_LT(crash_at, kMaxScheduleEvents) << "schedule never drained";
    const FsCrashOutcome out = RunFsCrash(kind, crash_at, no_faults);
    EXPECT_TRUE(out.report.clean())
        << "fsck violation at event " << out.events
        << ": acked_violations=" << out.report.acked_violations;
    EXPECT_EQ(out.observed_violations, 0u)
        << "acked file state missing after crash at event " << out.events;
    if (!out.crashed) {
      break;
    }
    ++crashes;
  }
  EXPECT_GT(crashes, 0u) << "stride " << stride << " skipped every event";
  AppendCrashReport("fs clean stack=" + std::string(StackKindName(kind)) +
                    " stride=" + std::to_string(stride) +
                    " crashes=" + std::to_string(crashes) +
                    " acked_violations=0");
}

// Flush-ignore + torn-write hazards: fsync barriers may silently not flush
// and pages may tear, so acknowledged state can be lost — but fsck must
// attribute every observable loss as a violation (detection, not silence).
TEST_P(FsCrashMatrixTest, LossyBarriersAreDetectedByFsck) {
  const StackKind kind = GetParam();
  const uint64_t stride = CrashStride();
  FaultPlan faults;
  FaultSpec ignore;
  ignore.kind = FaultKind::kFlushIgnore;
  ignore.probability = 0.5;
  faults.Add(ignore);
  FaultSpec torn;
  torn.kind = FaultKind::kTornWrite;
  torn.probability = 0.1;
  faults.Add(torn);
  uint64_t detected = 0;
  for (uint64_t crash_at = stride;; crash_at += stride) {
    ASSERT_LT(crash_at, kMaxScheduleEvents) << "schedule never drained";
    const FsCrashOutcome out = RunFsCrash(kind, crash_at, faults);
    EXPECT_LE(out.observed_violations, out.report.acked_violations)
        << "fsck missed an acked-state loss at event " << out.events;
    detected += out.report.acked_violations + out.report.torn_inodes +
                out.report.torn_data_pages;
    if (!out.crashed) {
      break;
    }
  }
  EXPECT_GT(detected, 0u) << "durability hazards never bit an fsync barrier";
  AppendCrashReport("fs lossy stack=" + std::string(StackKindName(kind)) +
                    " stride=" + std::to_string(stride) +
                    " detected=" + std::to_string(detected));
}

INSTANTIATE_TEST_SUITE_P(Stacks, FsCrashMatrixTest,
                         ::testing::Values(StackKind::kVanilla,
                                           StackKind::kDareFull),
                         [](const ::testing::TestParamInfo<StackKind>& info) {
                           std::string name(StackKindName(info.param));
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Device-level durability model checks the app sweeps imply but never pin
// down exactly: crash idempotence and the reorder-escape barrier contract.
// ---------------------------------------------------------------------------

TEST(CrashModelTest, CrashIsIdempotent) {
  CrashEnv env(StackKind::kVanilla, FaultPlan{});
  bool done = false;
  env.io()->WriteFua(42, 1, /*meta=*/false, [&]() { done = true; });
  while (!done && env.sim().Step()) {
  }
  ASSERT_TRUE(done);
  env.device().Crash();
  const size_t persisted = env.device().persisted_page_count();
  EXPECT_TRUE(env.device().crashed());
  env.device().Crash();  // second collapse must change nothing
  EXPECT_EQ(env.device().persisted_page_count(), persisted);
  const PersistedPageView pv = env.device().PersistedAt(0, Lba{42});
  EXPECT_TRUE(pv.present);
  EXPECT_FALSE(pv.torn);
}

TEST(CrashModelTest, UnflushedWriteDiesWithTheCache) {
  CrashEnv env(StackKind::kVanilla, FaultPlan{});
  bool done = false;
  env.io()->Write(7, 1, /*sync=*/true, /*meta=*/false, [&]() { done = true; });
  while (!done && env.sim().Step()) {
  }
  ASSERT_TRUE(done);
  // Completed but never flushed: volatile, so the crash drops it cleanly.
  EXPECT_EQ(env.device().volatile_page_count(), 1u);
  env.device().Crash();
  EXPECT_EQ(env.device().volatile_page_count(), 0u);
  EXPECT_FALSE(env.device().PersistedAt(0, Lba{7}).present);
}

TEST(CrashModelTest, FlushPersistsEverythingAcknowledgedBeforeIt) {
  CrashEnv env(StackKind::kVanilla, FaultPlan{});
  int done = 0;
  env.io()->Write(1, 1, /*sync=*/true, /*meta=*/false, [&]() { ++done; });
  env.io()->Write(2, 1, /*sync=*/true, /*meta=*/false, [&]() { ++done; });
  while (done < 2 && env.sim().Step()) {
  }
  ASSERT_EQ(done, 2);
  bool flushed = false;
  env.io()->Flush([&]() { flushed = true; });
  while (!flushed && env.sim().Step()) {
  }
  ASSERT_TRUE(flushed);
  EXPECT_EQ(env.device().flushes_completed(), 1u);
  env.device().Crash();
  EXPECT_TRUE(env.device().PersistedAt(0, Lba{1}).present);
  EXPECT_TRUE(env.device().PersistedAt(0, Lba{2}).present);
}

TEST(CrashModelTest, ReorderEscapeSurvivesExactlyOneBarrier) {
  FaultPlan faults;
  FaultSpec reorder;
  reorder.kind = FaultKind::kWriteReorder;
  reorder.probability = 1.0;
  reorder.max_injections = 1;  // only the first write escapes
  faults.Add(reorder);
  CrashEnv env(StackKind::kVanilla, faults);
  int done = 0;
  env.io()->Write(1, 1, /*sync=*/true, /*meta=*/false, [&]() { ++done; });
  while (done < 1 && env.sim().Step()) {
  }
  env.io()->Write(2, 1, /*sync=*/true, /*meta=*/false, [&]() { ++done; });
  while (done < 2 && env.sim().Step()) {
  }
  bool flushed = false;
  env.io()->Flush([&]() { flushed = true; });
  while (!flushed && env.sim().Step()) {
  }
  ASSERT_TRUE(flushed);
  // The reordered write slipped past the barrier; its neighbor persisted.
  EXPECT_FALSE(env.device().PersistedAt(0, Lba{1}).present);
  EXPECT_TRUE(env.device().PersistedAt(0, Lba{2}).present);
  // A second barrier catches the escapee: the escape is single-use.
  flushed = false;
  env.io()->Flush([&]() { flushed = true; });
  while (!flushed && env.sim().Step()) {
  }
  ASSERT_TRUE(flushed);
  env.device().Crash();
  EXPECT_TRUE(env.device().PersistedAt(0, Lba{1}).present);
}

TEST(CrashModelTest, IgnoredFlushLeavesTheCacheVolatile) {
  FaultPlan faults;
  FaultSpec ignore;
  ignore.kind = FaultKind::kFlushIgnore;
  ignore.probability = 1.0;
  faults.Add(ignore);
  CrashEnv env(StackKind::kVanilla, faults);
  bool done = false;
  env.io()->Write(9, 1, /*sync=*/true, /*meta=*/false, [&]() { done = true; });
  while (!done && env.sim().Step()) {
  }
  bool flushed = false;
  env.io()->Flush([&]() { flushed = true; });
  while (!flushed && env.sim().Step()) {
  }
  ASSERT_TRUE(flushed);  // the flush *completes* — it just doesn't flush
  EXPECT_EQ(env.device().flushes_ignored(), 1u);
  env.device().Crash();
  EXPECT_FALSE(env.device().PersistedAt(0, Lba{9}).present);
}

TEST(CrashModelTest, InFlightFirstWritePersistsTornAtCrash) {
  CrashEnv env(StackKind::kVanilla, FaultPlan{});
  bool done = false;
  env.io()->Write(3, 8, /*sync=*/true, /*meta=*/false, [&]() { done = true; });
  // Step until the device has fetched the command into flash service, then
  // crash mid-write: a first write has no durable prior to fall back to, so
  // the interrupted pages must read back torn — detectable, never clean.
  while (env.device().commands_fetched() == 0 && env.sim().Step()) {
  }
  ASSERT_EQ(env.device().commands_fetched(), 1u);
  ASSERT_FALSE(done);  // still in flight
  env.device().Crash();
  const PersistedPageView pv = env.device().PersistedAt(0, Lba{3});
  EXPECT_TRUE(pv.present);
  EXPECT_TRUE(pv.torn);
}

TEST(CrashModelTest, InFlightRewriteKeepsPriorDurableVersion) {
  CrashEnv env(StackKind::kVanilla, FaultPlan{});
  bool done = false;
  const uint64_t v1_cid =
      env.io()->WriteFua(5, 1, /*meta=*/true, [&]() { done = true; });
  while (!done && env.sim().Step()) {
  }
  ASSERT_TRUE(done);
  // Rewrite the same page and crash mid-program: the FTL remaps a page only
  // after the program completes, so the acknowledged v1 must survive intact
  // (this is what keeps in-place inode rewrites crash-safe).
  env.io()->WriteFua(5, 1, /*meta=*/true, [] {});
  while (env.device().commands_fetched() < 2 && env.sim().Step()) {
  }
  ASSERT_EQ(env.device().commands_fetched(), 2u);
  env.device().Crash();
  const PersistedPageView pv = env.device().PersistedAt(0, Lba{5});
  EXPECT_TRUE(pv.present);
  EXPECT_FALSE(pv.torn);
  EXPECT_EQ(pv.cid, v1_cid);
}

// Eight one-page FUA first writes, LBAs 97 apart, issued together. The
// power fails once `fetched` of them were fetched and the rest left their
// NSQ: all eight are enqueued and none waits in a queue, so a write not yet
// fetched is in the fetch pipe.
struct FuaWritesAtCrash {
  explicit FuaWritesAtCrash(uint64_t fetched)
      : env(StackKind::kVanilla, FaultPlan{}) {
    for (uint64_t i = 0; i < kWrites; ++i) {
      env.io()->WriteFua(Lba(i), 1, /*meta=*/false, [this]() { ++acked; });
    }
    Device& device = env.device();
    auto enqueued = [&device] {
      int64_t n = 0;
      for (int i = 0; i < device.nr_ncq(); ++i) {
        n += device.ncq(i).in_flight_rqs();
      }
      return n;
    };
    while (!(device.commands_fetched() >= fetched &&
             device.TotalNsqOccupancy() == 0 && enqueued() == kWrites) &&
           env.sim().Step()) {
    }
    device.Crash();
  }
  static uint64_t Lba(uint64_t i) { return 97 * i; }
  // Runs the simulation on past every completion.
  void RunOn() { env.sim().RunUntil(env.sim().now() + kSecond); }

  static constexpr uint64_t kWrites = 8;
  CrashEnv env;
  uint64_t acked = 0;  // callbacks run (the callback carries no status)
};

// A command the controller had fetched when the power failed never reaches
// the flash durably, so its CQE must not acknowledge it: all eight FUA
// writes, caught in flash service, complete as errors, and their first-write
// pages read back torn.
TEST(CrashModelTest, CommandsInFlightAtCrashCompleteAborted) {
  FuaWritesAtCrash run(FuaWritesAtCrash::kWrites);
  ASSERT_EQ(run.env.device().commands_fetched(), FuaWritesAtCrash::kWrites);
  ASSERT_EQ(run.acked, 0u);  // all still in flight at the crash
  run.RunOn();
  EXPECT_EQ(run.acked, FuaWritesAtCrash::kWrites);
  EXPECT_EQ(run.env.device().commands_errored(), FuaWritesAtCrash::kWrites);
  EXPECT_EQ(run.env.stack().error_completions(), FuaWritesAtCrash::kWrites);
  EXPECT_EQ(run.env.device().fua_persists(), 0u);
  for (uint64_t i = 0; i < FuaWritesAtCrash::kWrites; ++i) {
    const PersistedPageView pv =
        run.env.device().PersistedAt(0, Lba{FuaWritesAtCrash::Lba(i)});
    EXPECT_TRUE(pv.present) << "write " << i;
    EXPECT_TRUE(pv.torn) << "write " << i;
  }
}

// The aborted writes leave nothing in the write cache, including the one the
// crash caught in the fetch pipe: a FLUSH issued after the crash completes
// and leaves the seven torn pages torn and the eighth page absent.
TEST(CrashModelTest, FlushAfterCrashLeavesAbortedWritesUnpersisted) {
  FuaWritesAtCrash run(FuaWritesAtCrash::kWrites - 1);
  ASSERT_EQ(run.env.device().commands_fetched(), FuaWritesAtCrash::kWrites - 1);
  bool flushed = false;
  run.env.io()->Flush([&]() { flushed = true; });
  run.RunOn();
  ASSERT_TRUE(flushed);
  EXPECT_EQ(run.env.device().flushes_completed(), 1u);
  EXPECT_EQ(run.env.device().commands_errored(), FuaWritesAtCrash::kWrites);
  for (uint64_t i = 0; i + 1 < FuaWritesAtCrash::kWrites; ++i) {
    const PersistedPageView pv =
        run.env.device().PersistedAt(0, Lba{FuaWritesAtCrash::Lba(i)});
    EXPECT_TRUE(pv.present) << "write " << i;
    EXPECT_TRUE(pv.torn) << "write " << i;
  }
  EXPECT_FALSE(run.env.device()
                   .PersistedAt(0, Lba{FuaWritesAtCrash::Lba(
                                       FuaWritesAtCrash::kWrites - 1)})
                   .present);
}

TEST(CrashModelTest, OverlappingInFlightFirstWritesGoToTheLowerCid) {
  // A bare device, so the test picks the cids and the fetch order. The
  // in-flight table reuses the most recently freed slot first.
  Simulator sim;
  Device device(&sim, DeviceConfig{});
  device.SetIrqHandler([](int) {});
  auto cmd = [](uint64_t cid, uint64_t lba, uint32_t pages, bool write) {
    NvmeCommand c;
    c.cid = cid;
    c.lba = Lba{lba};
    c.pages = pages;
    c.is_write = write;
    return c;
  };
  // cid 1, a one-page read, is fetched into slot 0; cid 2, a 128-page write
  // (four programs per chip), into slot 1.
  ASSERT_TRUE(device.Enqueue(0, cmd(1, /*lba=*/1000, 1, /*write=*/false)));
  ASSERT_TRUE(device.Enqueue(0, cmd(2, /*lba=*/0, 128, /*write=*/true)));
  device.RingDoorbell(0);
  while (device.commands_completed() == 0 && sim.Step()) {
  }
  ASSERT_EQ(device.commands_completed(), 1u);
  // The read freed slot 0; cid 3, a write over cid 2's pages 8..15, takes
  // it. The lower cid now sits in the higher slot, both still in flight.
  ASSERT_TRUE(device.Enqueue(0, cmd(3, /*lba=*/8, 8, /*write=*/true)));
  device.RingDoorbell(0);
  while (device.commands_fetched() < 3 && sim.Step()) {
  }
  ASSERT_EQ(device.commands_fetched(), 3u);
  ASSERT_EQ(device.commands_completed(), 1u);
  device.Crash();
  // Neither write has a durable prior, so every page reads back torn, and
  // the oldest in-flight write (cid 2) claims each unmapped page first.
  for (const uint64_t lba : {0, 8, 15, 16, 127}) {
    const PersistedPageView pv = device.PersistedAt(0, Lba{lba});
    EXPECT_TRUE(pv.present) << "lba " << lba;
    EXPECT_TRUE(pv.torn) << "lba " << lba;
    EXPECT_EQ(pv.cid, 2u) << "lba " << lba;
  }
}

}  // namespace
}  // namespace daredevil
