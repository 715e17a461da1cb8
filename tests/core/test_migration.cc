/**
 * @file
 * End-to-end tests for realm live migration (DESIGN.md section 12):
 * a running core-gapped CVM moves to a fresh dedicated-core pool with
 * byte-identical guest-visible I/O, injected faults at every phase
 * roll back or retry without stranding the realm, and the defrag-aware
 * planner policy picks strictly improving moves.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/migration.hh"
#include "core/planner.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
namespace host = cg::host;
using namespace cg::core;
using namespace cg::workloads;
using sim::CoreId;
using sim::Compute;
using sim::msec;
using sim::Proc;
using sim::Tick;

namespace {

constexpr std::uint64_t mmioBase = 0x0b000000;

/** Guest loop: compute, write a counter out, read an echo back. The
 * write/read streams are the guest-visible output under test. */
Proc<void>
mmioWorker(guest::VCpu& v, std::uint64_t base, int iters,
           std::vector<std::uint64_t>& reads)
{
    for (int i = 0; i < iters; ++i) {
        co_await Compute{3 * msec};
        co_await v.mmioWrite(base, static_cast<std::uint64_t>(i) * 257,
                             8);
        reads.push_back(co_await v.mmioRead(base + 8, 8));
    }
    co_await v.shutdown();
}

Proc<void>
migrateAfter(Testbed& bed, MigrationController& ctrl,
             std::vector<CoreId> dest, Tick when, MigrateResult& out)
{
    co_await bed.started().wait();
    co_await sim::Delay{when};
    if (dest.empty())
        out = co_await ctrl.migrate();
    else
        out = co_await ctrl.migrateTo(std::move(dest));
}

struct ScenarioResult {
    std::vector<std::vector<std::uint64_t>> writes; // per vCPU
    std::vector<std::vector<std::uint64_t>> reads;  // per vCPU
    MigrateResult result = MigrateResult::Refused;
    bool shutdown = false;
};

/** One fixed-seed run; optionally migrating to @p dest mid-run. */
ScenarioResult
runScenario(bool migrate, std::vector<CoreId> dest = {3, 4},
            const std::string& fault_plan = "",
            MigrationController** ctrl_out = nullptr,
            std::uint64_t* stalls_out = nullptr)
{
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    if (!fault_plan.empty())
        bed.sim().faults().arm(23, sim::FaultPlan::parse(fault_plan));
    VmInstance& vm = bed.createVm("m", 3); // host 0, guests {1,2}

    ScenarioResult r;
    r.writes.resize(2);
    r.reads.resize(2);
    for (int i = 0; i < 2; ++i) {
        cg::vmm::MmioRange range;
        range.base = mmioBase + 0x100 * static_cast<std::uint64_t>(i);
        range.size = 0x100;
        auto* log = &r.writes[static_cast<size_t>(i)];
        range.onWrite = [log](const cg::rmm::ExitInfo& e) {
            log->push_back(e.data);
        };
        range.onRead = [](std::uint64_t addr, int len) {
            return addr ^ static_cast<std::uint64_t>(len);
        };
        vm.kvm->mapMmio(range);
        vm.vcpu(i).startGuest(
            "w" + std::to_string(i),
            mmioWorker(vm.vcpu(i), range.base, 25,
                       r.reads[static_cast<size_t>(i)]));
    }
    bed.spawnStart();

    MigrationController ctrl(*vm.gapped, nullptr);
    if (migrate) {
        bed.sim().spawn("migrate",
                        migrateAfter(bed, ctrl, dest, 30 * msec,
                                     r.result));
    }
    bed.run(20 * sim::sec);
    r.shutdown = bed.allShutdown();
    if (migrate && r.result == MigrateResult::Committed) {
        EXPECT_EQ(vm.gapped->coreOf(0), dest[0]);
        EXPECT_EQ(vm.gapped->coreOf(1), dest[1]);
        EXPECT_EQ(bed.rmm().dedicatedOwner(dest[0]),
                  vm.kvm->realmId());
        EXPECT_EQ(bed.rmm().dedicatedOwner(1), -1);
        EXPECT_TRUE(bed.kernel().isOnline(1)); // source handed back
        EXPECT_TRUE(bed.kernel().isOnline(2));
        EXPECT_FALSE(bed.kernel().isOnline(dest[0]));
        // The realm's granules all live in the migration window; the
        // source window was undelegated back to the host.
        for (const auto& [addr, state] :
             bed.rmm().granules().owned(vm.kvm->realmId())) {
            (void)state;
            EXPECT_GE(addr, 0x5ull << 44);
        }
        EXPECT_EQ(bed.rmm().stats().migrationsCommitted.value(), 1u);
    }
    if (ctrl_out)
        *ctrl_out = nullptr; // controller dies with this scope
    if (stalls_out)
        *stalls_out = bed.rmm().stats().migrationStalls.value();
    EXPECT_EQ(ctrl.committed() + ctrl.rolledBack() + ctrl.refused(),
              migrate ? 1u : 0u);
    return r;
}

} // namespace

TEST(Migration, MovesARunningVmWithByteIdenticalGuestOutput)
{
    ScenarioResult plain = runScenario(/*migrate=*/false);
    ScenarioResult moved = runScenario(/*migrate=*/true);
    ASSERT_TRUE(plain.shutdown);
    ASSERT_TRUE(moved.shutdown);
    ASSERT_EQ(moved.result, MigrateResult::Committed);
    // The guest cannot tell it moved: every MMIO write it issued and
    // every value it read back is byte-identical to the unmigrated
    // run, per vCPU, in order.
    EXPECT_EQ(plain.writes, moved.writes);
    EXPECT_EQ(plain.reads, moved.reads);
    ASSERT_EQ(plain.writes[0].size(), 25u);
}

TEST(Migration, InjectedAbortRollsBackThenRetryCommits)
{
    // The 2nd migration-abort query is the post-copy phase boundary:
    // attempt 1 aborts after a full copy, attempt 2 commits.
    ScenarioResult r = runScenario(/*migrate=*/true, {3, 4},
                                   "migration-abort:nth=2");
    ASSERT_TRUE(r.shutdown);
    EXPECT_EQ(r.result, MigrateResult::Committed);

    ScenarioResult plain = runScenario(/*migrate=*/false);
    EXPECT_EQ(plain.writes, r.writes);
    EXPECT_EQ(plain.reads, r.reads);
}

TEST(Migration, CopyStallsAreRetriedWithBackoff)
{
    std::uint64_t stalls = 0;
    ScenarioResult r = runScenario(/*migrate=*/true, {3, 4},
                                   "rtt-copy-stall:nth=1", nullptr,
                                   &stalls);
    ASSERT_TRUE(r.shutdown);
    EXPECT_EQ(r.result, MigrateResult::Committed);
    EXPECT_GE(stalls, 1u);
}

TEST(Migration, ExhaustedAttemptsRollBackToIntactSource)
{
    // Every abort query fires: all attempts fail, the realm stays on
    // its source cores, and the guest finishes untouched.
    ScenarioResult r = runScenario(/*migrate=*/true, {3, 4},
                                   "migration-abort:p=1:max=0");
    ASSERT_TRUE(r.shutdown);
    EXPECT_EQ(r.result, MigrateResult::RolledBack);

    ScenarioResult plain = runScenario(/*migrate=*/false);
    EXPECT_EQ(plain.writes, r.writes);
    EXPECT_EQ(plain.reads, r.reads);
}

TEST(Migration, DefragPolicyPicksStrictlyImprovingMoves)
{
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    CorePlanner planner(bed.machine(), host::CpuMask::single(0));
    // Fragmented layout: this VM on {2,3}, another tenant pinned on
    // {5}. Free: {1}, {4}, {6,7} — largest run 2.
    planner.reserveExact({2, 3});
    planner.reserveExact({5});
    VmInstance& vm = bed.createVmOn("m", {2, 3},
                                    host::CpuMask::single(0), 2, {},
                                    &planner);
    std::vector<std::uint64_t> reads0, reads1;
    vm.vcpu(0).startGuest("w0", mmioWorker(vm.vcpu(0), mmioBase, 20,
                                           reads0));
    vm.vcpu(1).startGuest("w1",
                          mmioWorker(vm.vcpu(1), mmioBase + 0x100, 20,
                                     reads1));
    cg::vmm::MmioRange range;
    range.base = mmioBase;
    range.size = 0x200;
    range.onWrite = [](const cg::rmm::ExitInfo&) {};
    range.onRead = [](std::uint64_t addr, int len) {
        return addr + static_cast<std::uint64_t>(len);
    };
    vm.kvm->mapMmio(range);
    bed.spawnStart();

    MigrationController ctrl(*vm.gapped, &planner);
    MigrateResult res = MigrateResult::Refused;
    bed.sim().spawn("defrag",
                    migrateAfter(bed, ctrl, {}, 30 * msec, res));
    bed.run(20 * sim::sec);
    ASSERT_TRUE(bed.allShutdown());
    // {6,7} is the only improving move: free becomes {1,2,3,4} with a
    // run of 4 (was 2).
    EXPECT_EQ(res, MigrateResult::Committed);
    EXPECT_EQ(vm.gapped->coreOf(0), 6);
    EXPECT_EQ(vm.gapped->coreOf(1), 7);
    EXPECT_FALSE(planner.isReserved(2));
    EXPECT_FALSE(planner.isReserved(3));
    EXPECT_TRUE(planner.isReserved(6));
    EXPECT_EQ(planner.largestFreeRun(), 4);
    EXPECT_EQ(planner.fragmentation(), 0.0);

    // No further improving move exists: a second ask is refused and
    // reserves nothing.
    const int reserved = planner.reservedCores();
    MigrateResult again = MigrateResult::Committed;
    bed.sim().spawn("defrag2", [](MigrationController& c,
                                  MigrateResult& out) -> Proc<void> {
        out = co_await c.migrate();
    }(ctrl, again));
    bed.run(bed.sim().now() + 100 * msec);
    EXPECT_EQ(again, MigrateResult::Refused);
    EXPECT_EQ(planner.reservedCores(), reserved);
}

namespace {

/** What a migration whose second destination core refuses to offline
 * twice leaves behind once the guest has shut down (no teardown), for
 * the pins below. */
struct RefusedDestResult {
    MigrateResult result = MigrateResult::Refused;
    Tick doneAt = 0;
    Tick shutdownAt = 0; // guest shutdown of both vCPUs
    std::uint64_t hotplugRetries = 0;
    std::uint64_t hotplugOps = 0;
    std::uint64_t hotplugFailures = 0;
    std::vector<CoreId> coresOf;
    // Per core 1..4:
    std::vector<bool> online;
    std::vector<cg::hw::World> world;
    std::vector<int> owner;
    std::vector<std::size_t> rounds; // reads per vCPU
    bool shutdown = false;
};

Proc<void>
migrateTimed(Testbed& bed, MigrationController& ctrl,
             std::vector<CoreId> dest, MigrateResult& out, Tick& at)
{
    co_await bed.started().wait();
    co_await sim::Delay{30 * msec};
    out = co_await ctrl.migrateTo(std::move(dest));
    at = bed.sim().now();
}

Proc<void>
noteShutdown(Testbed& bed, cg::vmm::KvmVm& kvm, Tick& at)
{
    co_await kvm.shutdownGate().wait();
    at = bed.sim().now();
}

/**
 * Offline queries 1-2 are start()'s cores {1,2}; 3 is destination
 * core 3 (taken), 4 and 5 are destination core 4's attempt and retry.
 * Both fail, so the attempt rolls back with core 3 already taken.
 */
RefusedDestResult
runRefusedSecondDest(int max_attempts)
{
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    bed.sim().faults().arm(23, sim::FaultPlan::parse(
                                   "hotplug-offline-fail:nth=4;"
                                   "hotplug-offline-fail:nth=5"));
    VmInstance& vm = bed.createVm("m", 3); // host 0, guests {1,2}
    std::vector<std::vector<std::uint64_t>> reads(2);
    cg::vmm::MmioRange range;
    range.base = mmioBase;
    range.size = 0x200;
    range.onWrite = [](const cg::rmm::ExitInfo&) {};
    range.onRead = [](std::uint64_t addr, int len) {
        return addr ^ static_cast<std::uint64_t>(len);
    };
    vm.kvm->mapMmio(range);
    for (int i = 0; i < 2; ++i) {
        vm.vcpu(i).startGuest(
            "w" + std::to_string(i),
            mmioWorker(vm.vcpu(i),
                       mmioBase + 0x100 * static_cast<std::uint64_t>(i),
                       25, reads[static_cast<size_t>(i)]));
    }
    bed.spawnStart();
    RefusedDestResult r;
    bed.sim().spawn("note", noteShutdown(bed, *vm.kvm, r.shutdownAt));
    MigrationConfig mcfg;
    mcfg.maxAttempts = max_attempts;
    MigrationController ctrl(*vm.gapped, nullptr, mcfg);
    bed.sim().spawn("migrate", migrateTimed(bed, ctrl, {3, 4},
                                            r.result, r.doneAt));
    bed.run(20 * sim::sec);
    r.shutdown = bed.allShutdown();
    r.hotplugRetries =
        bed.sim().stats().counter("gapped.m.hotplugRetries")->value();
    r.hotplugOps = bed.kernel().stats().hotplugOps.value();
    r.hotplugFailures = bed.kernel().stats().hotplugFailures.value();
    for (int i = 0; i < 2; ++i)
        r.coresOf.push_back(vm.gapped->coreOf(i));
    for (CoreId c = 1; c <= 4; ++c) {
        r.online.push_back(bed.kernel().isOnline(c));
        r.world.push_back(bed.machine().core(c).world());
        r.owner.push_back(bed.rmm().dedicatedOwner(c));
    }
    for (const auto& rd : reads)
        r.rounds.push_back(rd.size());
    EXPECT_EQ(ctrl.committed() + ctrl.rolledBack() + ctrl.refused(),
              1u);
    return r;
}

using World = cg::hw::World;
constexpr World Normal = World::Normal;
constexpr World Realm = World::Realm;

} // namespace

TEST(Migration, SecondDestCoreRefusalHandsBackTheFirst)
{
    // One attempt only: the rollback's hand-back is the final state.
    // Core 3 got a monitor-only scrub and is back online in normal
    // world; the source monitors were respawned and the guest
    // finishes on {1,2}.
    const RefusedDestResult r = runRefusedSecondDest(1);
    ASSERT_TRUE(r.shutdown);
    EXPECT_EQ(r.result, MigrateResult::RolledBack);
    EXPECT_EQ(r.doneAt, 53352611604u);
    EXPECT_EQ(r.shutdownAt, 99822334240u);
    EXPECT_EQ(r.hotplugRetries, 1u);
    // offline 1, 2 (start); offline 3, online 3 (rollback).
    EXPECT_EQ(r.hotplugOps, 4u);
    EXPECT_EQ(r.hotplugFailures, 2u);
    EXPECT_EQ(r.coresOf, (std::vector<CoreId>{1, 2}));
    EXPECT_EQ(r.online, (std::vector<bool>{false, false, true, true}));
    EXPECT_EQ(r.world, (std::vector<World>{Realm, Realm, Normal,
                                           Normal}));
    EXPECT_EQ(r.owner, (std::vector<int>{0, 0, -1, -1}));
    EXPECT_EQ(r.rounds, (std::vector<std::size_t>{25, 25}));
}

TEST(Migration, SecondDestCoreRefusalThenRetryCommits)
{
    // Default attempts: the rolled-back attempt is retried (offline
    // queries 6 and 7 succeed) and the migration commits.
    const RefusedDestResult r = runRefusedSecondDest(3);
    ASSERT_TRUE(r.shutdown);
    EXPECT_EQ(r.result, MigrateResult::Committed);
    EXPECT_EQ(r.doneAt, 67359371327u);
    EXPECT_EQ(r.shutdownAt, 113623229189u);
    EXPECT_EQ(r.hotplugRetries, 1u);
    // The rolled-back attempt's 4, then offline 3, 4 and online 1, 2.
    EXPECT_EQ(r.hotplugOps, 8u);
    EXPECT_EQ(r.hotplugFailures, 2u);
    EXPECT_EQ(r.coresOf, (std::vector<CoreId>{3, 4}));
    EXPECT_EQ(r.online, (std::vector<bool>{true, true, false, false}));
    EXPECT_EQ(r.world, (std::vector<World>{Normal, Normal, Realm,
                                           Realm}));
    EXPECT_EQ(r.owner, (std::vector<int>{-1, -1, 0, 0}));
    EXPECT_EQ(r.rounds, (std::vector<std::size_t>{25, 25}));
}
