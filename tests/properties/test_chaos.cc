/**
 * @file
 * Chaos suite: deterministic fault plans swept over the full testbed.
 * Every injection site fires against a live core-gapped CVM and the
 * control plane must detect, recover, and preserve the DESIGN.md
 * invariants — especially I6 (hotplug round trips restore capacity),
 * I7 (the planner never leaks or over-commits reservations), I9
 * (a (seed, plan) pair replays bit-identically), and I10 (reclaimed
 * cores carry zero residue).
 *
 * The guest workload page-faults throughout its run so every fault
 * site stays hot: page-fault exits ring the doorbell (SGIs), their
 * handling goes through the sync-RPC queue (pokes) and the RMI
 * transport (delegate/map calls), and bring-up/teardown exercise
 * hotplug. Suites are named Chaos* so `ctest -R Chaos` runs exactly
 * this file (the scripts/ci.sh chaos smoke).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/gapped_vm.hh"
#include "core/migration.hh"
#include "core/planner.hh"
#include "core/rpc.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
namespace hw = cg::hw;
namespace host = cg::host;
namespace guest = cg::guest;
namespace rmm = cg::rmm;
using namespace cg::workloads;
using cg::core::CorePlanner;
using cg::core::GappedVm;
using sim::Compute;
using sim::FaultPlan;
using sim::FaultSite;
using sim::Proc;
using sim::Tick;
using sim::msec;

namespace {

Proc<void>
teardownThenFlag(GappedVm& g, bool& done)
{
    co_await g.teardown();
    done = true;
}

Proc<void>
terminateThenFlag(GappedVm& g, bool& done)
{
    co_await g.terminate();
    done = true;
}

/**
 * The chaos workload: rounds of page faults plus compute, so exits,
 * doorbell rings, sync RPCs, and RMI calls keep flowing for the whole
 * run — every fault site gets queried many times.
 */
Proc<void>
faultingWorker(Testbed& bed, guest::VCpu& v, int idx, int rounds,
               std::uint64_t& completed)
{
    co_await bed.started().wait();
    for (int r = 0; r < rounds; ++r) {
        for (int p = 0; p < 3; ++p) {
            co_await v.pageFault(
                0x50000000ull +
                (static_cast<std::uint64_t>(idx) * 4096 +
                 static_cast<std::uint64_t>(r) * 3 +
                 static_cast<std::uint64_t>(p)) *
                    4096);
        }
        co_await Compute{2 * msec};
        ++completed;
    }
    co_await v.shutdown();
}

/** Never shuts down; keeps faulting so the monitor keeps waking. */
Proc<void>
endlessFaultingWork(Testbed& bed, guest::VCpu& v, int idx)
{
    co_await bed.started().wait();
    for (std::uint64_t i = 0;; ++i) {
        co_await v.pageFault(0x80000000ull +
                             (static_cast<std::uint64_t>(idx) * 512 +
                              i % 256) *
                                 4096);
        co_await Compute{3 * msec};
    }
}

/** One full run under a fault plan; everything a test may probe. */
struct ChaosRun {
    std::unique_ptr<Testbed> bed;
    VmInstance* vm = nullptr;
    std::vector<std::uint64_t> rounds;
    bool shutdown = false;
    bool torn = false;
};

/**
 * Run the chaos workload on a 3-vCPU core-gapped CVM with @p plan
 * armed, then tear the VM down. Completion doubles as the no-deadlock
 * check: an exit notification that recovery failed to rescue would
 * leave a vCPU thread blocked and the guest unfinished.
 */
ChaosRun
runChaosWorkload(const std::string& plan, std::uint64_t fault_seed,
                 std::uint64_t sim_seed)
{
    ChaosRun out;
    Testbed::Config cfg;
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    cfg.seed = sim_seed;
    out.bed = std::make_unique<Testbed>(cfg);
    Testbed& bed = *out.bed;
    if (!plan.empty())
        bed.sim().faults().arm(fault_seed, FaultPlan::parse(plan));
    out.vm = &bed.createVm("chaos", 4); // 3 vCPUs + 1 host core
    out.rounds.assign(3, 0);
    for (int i = 0; i < 3; ++i) {
        out.vm->vcpu(i).startGuest(
            "w", faultingWorker(bed, out.vm->vcpu(i), i, 24,
                                out.rounds[static_cast<size_t>(i)]));
    }
    bed.spawnStart();
    bed.run(bed.sim().now() + 2 * sim::sec);
    out.shutdown = out.vm->kvm->shutdownGate().isOpen();
    if (out.shutdown) {
        bed.sim().spawn("teardown",
                        teardownThenFlag(*out.vm->gapped, out.torn));
        bed.run(bed.sim().now() + 1 * sim::sec);
    }
    return out;
}

struct SitePlan {
    const char* label;
    const char* plan;
    FaultSite site;
};

// Without this, gtest prints the raw bytes of the param (pointers and
// padding), so the listed test names changed with every run under ASLR.
void PrintTo(const SitePlan& sp, std::ostream* os)
{
    *os << sp.label;
}

class ChaosSites : public ::testing::TestWithParam<SitePlan>
{
};

} // namespace

// --------------------------------------------------- per-site recovery

TEST_P(ChaosSites, InjectsAndWorkloadStillCompletes)
{
    const SitePlan& sp = GetParam();
    ChaosRun run = runChaosWorkload(sp.plan, 17, 5);
    sim::FaultPlan& faults = run.bed->sim().faults();
    // Recovery end-to-end: the guest finished its run and shut down
    // despite the injections (no deadlock, no lost progress).
    EXPECT_TRUE(run.shutdown) << sp.plan;
    ASSERT_TRUE(run.torn) << sp.plan;
    EXPECT_GE(faults.injected(sp.site), 1u) << sp.plan;
    for (std::uint64_t r : run.rounds)
        EXPECT_EQ(r, 24u);
    // Hotplug round trip restored every core to the host (I6)...
    for (sim::CoreId c : run.vm->guestCores) {
        EXPECT_TRUE(run.bed->kernel().isOnline(c)) << c;
        EXPECT_EQ(run.bed->machine().core(c).world(),
                  hw::World::Normal);
    }
    // ...and reclaimed cores carry no residue (I10).
    for (sim::CoreId c : run.vm->guestCores) {
        for (const hw::TaggedStructure* s :
             run.bed->machine().core(c).uarch().all()) {
            EXPECT_EQ(s->entriesOf(run.vm->vm->domain()), 0u)
                << "core " << c << " " << s->name();
            EXPECT_EQ(s->entriesOf(sim::monitorDomain), 0u)
                << "core " << c << " " << s->name();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sites, ChaosSites,
    ::testing::Values(
        SitePlan{"ipi_drop", "ipi-drop:nth=4:max=1",
                 FaultSite::IpiDrop},
        SitePlan{"ipi_delay", "ipi-delay:nth=7:param=20us:max=1",
                 FaultSite::IpiDelay},
        SitePlan{"doorbell_lost", "doorbell-lost:nth=3:max=1",
                 FaultSite::DoorbellLost},
        SitePlan{"syncrpc_stall", "syncrpc-stall:nth=5:max=1",
                 FaultSite::SyncRpcStall},
        SitePlan{"rmi_transient", "rmi-transient-error:nth=6:max=1",
                 FaultSite::RmiTransientError},
        SitePlan{"hotplug_offline", "hotplug-offline-fail:nth=1:max=1",
                 FaultSite::HotplugOfflineFail},
        SitePlan{"hotplug_online", "hotplug-online-fail:nth=1:max=1",
                 FaultSite::HotplugOnlineFail}),
    [](const ::testing::TestParamInfo<SitePlan>& info) {
        return info.param.label;
    });

// ------------------------------------------------- every site at once

TEST(ChaosAllSites, FullTestbedSurvivesEverySiteInjected)
{
    // Everything except monitor-hang rides on one run; monitor-hang is
    // separate (ChaosMonitorHang) because only terminate() recovers it.
    ChaosRun run = runChaosWorkload(
        "ipi-drop:nth=5:max=1;"
        "ipi-delay:nth=9:param=10us:max=1;"
        "doorbell-lost:nth=3:max=1;"
        "syncrpc-stall:nth=3:max=1;"
        "rmi-transient-error:nth=2:max=1;"
        "hotplug-offline-fail:nth=1:max=1;"
        "hotplug-online-fail:nth=1:max=1",
        23, 9);
    sim::FaultPlan& faults = run.bed->sim().faults();
    EXPECT_TRUE(run.shutdown);
    ASSERT_TRUE(run.torn);
    for (const FaultSite s :
         {FaultSite::IpiDrop, FaultSite::IpiDelay,
          FaultSite::DoorbellLost, FaultSite::SyncRpcStall,
          FaultSite::RmiTransientError, FaultSite::HotplugOfflineFail,
          FaultSite::HotplugOnlineFail}) {
        EXPECT_GE(faults.injected(s), 1u) << sim::faultSiteName(s);
    }
    for (std::uint64_t r : run.rounds)
        EXPECT_EQ(r, 24u);
    for (sim::CoreId c : run.vm->guestCores)
        EXPECT_TRUE(run.bed->kernel().isOnline(c)) << c;
}

// --------------------------------------------------------- determinism

TEST(ChaosDeterminism, SameSeedAndPlanReplayIdentically)
{
    // Invariant I9 extended: (simulation seed, fault seed, plan) fully
    // determines the run, probabilistic triggers included.
    const char* plan =
        "ipi-drop:p=0.05:max=4;"
        "syncrpc-stall:p=0.1:max=3;"
        "rmi-transient-error:p=0.1:max=3;"
        "doorbell-lost:p=0.1:max=2";
    ChaosRun a = runChaosWorkload(plan, 31, 13);
    ChaosRun b = runChaosWorkload(plan, 31, 13);
    ASSERT_TRUE(a.shutdown);
    ASSERT_TRUE(b.shutdown);
    EXPECT_EQ(a.rounds, b.rounds);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(a.vm->vcpu(i).guestCpuTime,
                  b.vm->vcpu(i).guestCpuTime)
            << "vcpu " << i;
    }
    for (int i = 0; i < sim::numFaultSites; ++i) {
        const auto s = static_cast<FaultSite>(i);
        EXPECT_EQ(a.bed->sim().faults().injected(s),
                  b.bed->sim().faults().injected(s))
            << sim::faultSiteName(s);
        EXPECT_EQ(a.bed->sim().faults().occurrences(s),
                  b.bed->sim().faults().occurrences(s))
            << sim::faultSiteName(s);
    }
    EXPECT_EQ(a.bed->sim().stats().dumpText(),
              b.bed->sim().stats().dumpText());
}

// ----------------------------------------------- monitor-hang reclaim

TEST(ChaosMonitorHang, TerminateReclaimsTheStuckCore)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped;
    cfg.seed = 3;
    Testbed bed(cfg);
    bed.sim().faults().arm(
        5, FaultPlan::parse("monitor-hang:from=20ms:max=1"));
    VmInstance& vm = bed.createVm("wedged", 3); // 2 vCPUs
    for (int i = 0; i < 2; ++i) {
        vm.vcpu(i).startGuest("w",
                              endlessFaultingWork(bed, vm.vcpu(i), i));
    }
    bed.spawnStart();
    bed.run(bed.sim().now() + 100 * msec);
    ASSERT_GE(bed.sim().faults().injected(FaultSite::MonitorHang), 1u);

    bool done = false;
    bed.sim().spawn("killer", terminateThenFlag(*vm.gapped, done));
    bed.run(bed.sim().now() + 5 * sim::sec);
    // terminate() must not deadlock on the hung monitor: it escalates
    // after the park deadline, force-stops the REC, and tears down.
    ASSERT_TRUE(done);
    EXPECT_GE(vm.gapped->hangReclaims(), 1u);
    EXPECT_EQ(bed.rmm().realm(vm.kvm->realmId()), nullptr);
    for (sim::CoreId c : vm.guestCores) {
        // The reclaimed core is back, usable (I6), and scrubbed (I10).
        EXPECT_TRUE(bed.kernel().isOnline(c)) << c;
        EXPECT_EQ(bed.machine().core(c).world(), hw::World::Normal);
        EXPECT_EQ(bed.rmm().dedicatedOwner(c), -1);
        for (const hw::TaggedStructure* s :
             bed.machine().core(c).uarch().all()) {
            EXPECT_EQ(s->entriesOf(vm.vm->domain()), 0u)
                << "core " << c << " " << s->name();
            EXPECT_EQ(s->entriesOf(sim::monitorDomain), 0u)
                << "core " << c << " " << s->name();
        }
    }
    EXPECT_GE(bed.sim()
                  .faults()
                  .recoveryLatency(FaultSite::MonitorHang)
                  .count(),
              1u);
}

// ------------------------------------------- planner reservations (I7)

namespace {

Proc<void>
computeAndShutdown(Testbed& bed, guest::VCpu& v, Tick work)
{
    co_await bed.started().wait();
    co_await Compute{work};
    co_await v.shutdown();
}

} // namespace

TEST(ChaosPlanner, FailedStartReleasesEveryReservation)
{
    Testbed::Config cfg;
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    // Both the offline attempt and its retry fail: start() rolls back.
    bed.sim().faults().arm(
        1, FaultPlan::parse("hotplug-offline-fail:max=2"));
    CorePlanner planner(bed.machine(), host::CpuMask::firstN(2));
    auto cores = planner.reserve(2);
    ASSERT_TRUE(cores.has_value());
    guest::VmConfig vcfg;
    VmInstance& vm = bed.createVmOn("doomed", *cores,
                                    host::CpuMask::single(0), 2, vcfg,
                                    &planner);
    bed.spawnStart();
    bed.run(bed.sim().now() + 5 * sim::sec);
    EXPECT_EQ(bed.startFailures(), 1);
    EXPECT_FALSE(vm.kvm->shutdownGate().isOpen());
    // No leaked reservation (I7) and no leaked core: everything the
    // failed bring-up took is back with the host.
    EXPECT_EQ(planner.reservedCores(), 0);
    for (sim::CoreId c : *cores)
        EXPECT_TRUE(bed.kernel().isOnline(c)) << c;
}

namespace {

Proc<void>
countRounds(guest::VCpu& v, int rounds, int& done)
{
    for (int i = 0; i < rounds; ++i) {
        co_await Compute{1 * msec};
        ++done;
    }
    co_await v.shutdown();
}

Proc<void>
noteStarted(Testbed& bed, Tick& at)
{
    co_await bed.started().wait();
    at = bed.sim().now();
}

} // namespace

TEST(ChaosPlanner, FailedStartOnTheSecondCoreHandsBackTheFirst)
{
    Testbed::Config cfg;
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    // The first core offlines (query 1); the second core's attempt
    // and retry both fail (queries 2 and 3). start() rolls back and
    // hands the first core back: monitor-only scrub, normal world,
    // online.
    bed.sim().faults().arm(
        1, FaultPlan::parse("hotplug-offline-fail:nth=2;"
                            "hotplug-offline-fail:nth=3"));
    CorePlanner planner(bed.machine(), host::CpuMask::firstN(2));
    auto cores = planner.reserve(2);
    ASSERT_TRUE(cores.has_value());
    ASSERT_EQ(*cores, (std::vector<sim::CoreId>{2, 3}));
    VmInstance& vm = bed.createVmOn("doomed", *cores,
                                    host::CpuMask::single(0), 2, {},
                                    &planner);
    int rounds = 0;
    for (int i = 0; i < 2; ++i)
        vm.vcpu(i).startGuest("w", countRounds(vm.vcpu(i), 5, rounds));
    Tick started_at = 0;
    bed.sim().spawn("note", noteStarted(bed, started_at));
    bed.spawnStart();
    bed.run(bed.sim().now() + 5 * sim::sec);
    EXPECT_EQ(bed.startFailures(), 1);
    EXPECT_EQ(started_at, 14938603636u);
    EXPECT_EQ(
        bed.sim().stats().counter("gapped.doomed.hotplugRetries")->value(),
        1u);
    EXPECT_EQ(bed.sim().faults().injected(FaultSite::HotplugOfflineFail),
              2u);
    // offline 2 (start), online 2 (hand-back).
    EXPECT_EQ(bed.kernel().stats().hotplugOps.value(), 2u);
    EXPECT_EQ(vm.gapped->coresLost(), 0u);
    EXPECT_EQ(planner.reservedCores(), 0);
    for (sim::CoreId c : *cores) {
        EXPECT_TRUE(bed.kernel().isOnline(c)) << c;
        EXPECT_EQ(bed.machine().core(c).world(), hw::World::Normal) << c;
        EXPECT_EQ(bed.rmm().dedicatedOwner(c), -1) << c;
    }
    EXPECT_EQ(rounds, 0);
    EXPECT_FALSE(vm.kvm->shutdownGate().isOpen());
}

TEST(ChaosPlanner, TeardownReleasesAfterOnlineRetry)
{
    Testbed::Config cfg;
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    // The first online attempt at teardown fails; the retry succeeds.
    bed.sim().faults().arm(
        1, FaultPlan::parse("hotplug-online-fail:nth=1:max=1"));
    CorePlanner planner(bed.machine(), host::CpuMask::firstN(2));
    auto cores = planner.reserve(2);
    ASSERT_TRUE(cores.has_value());
    VmInstance& vm = bed.createVmOn("vm", *cores,
                                    host::CpuMask::single(0), 2, {},
                                    &planner);
    for (int i = 0; i < 2; ++i) {
        vm.vcpu(i).startGuest(
            "w", computeAndShutdown(bed, vm.vcpu(i), 20 * msec));
    }
    bed.spawnStart();
    bed.run(bed.sim().now() + 5 * sim::sec);
    ASSERT_TRUE(vm.kvm->shutdownGate().isOpen());
    bool torn = false;
    bed.sim().spawn("teardown", teardownThenFlag(*vm.gapped, torn));
    bed.run(bed.sim().now() + 5 * sim::sec);
    ASSERT_TRUE(torn);
    EXPECT_GE(bed.sim().faults().injected(FaultSite::HotplugOnlineFail),
              1u);
    EXPECT_EQ(vm.gapped->coresLost(), 0u);
    EXPECT_EQ(planner.reservedCores(), 0);
    for (sim::CoreId c : *cores)
        EXPECT_TRUE(bed.kernel().isOnline(c)) << c;
}

TEST(ChaosPlanner, LostCoreStaysQuarantined)
{
    Testbed::Config cfg;
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    // One core's online attempt AND its retry both fail: the core is
    // lost and must stay reserved, so the planner never hands out an
    // offline core (I7).
    bed.sim().faults().arm(
        1, FaultPlan::parse("hotplug-online-fail:max=2"));
    CorePlanner planner(bed.machine(), host::CpuMask::firstN(2));
    auto cores = planner.reserve(2);
    ASSERT_TRUE(cores.has_value());
    VmInstance& vm = bed.createVmOn("vm", *cores,
                                    host::CpuMask::single(0), 2, {},
                                    &planner);
    for (int i = 0; i < 2; ++i) {
        vm.vcpu(i).startGuest(
            "w", computeAndShutdown(bed, vm.vcpu(i), 20 * msec));
    }
    bed.spawnStart();
    bed.run(bed.sim().now() + 5 * sim::sec);
    ASSERT_TRUE(vm.kvm->shutdownGate().isOpen());
    bool torn = false;
    bed.sim().spawn("teardown", teardownThenFlag(*vm.gapped, torn));
    bed.run(bed.sim().now() + 5 * sim::sec);
    ASSERT_TRUE(torn);
    ASSERT_EQ(vm.gapped->coresLost(), 1u);
    sim::CoreId lost = sim::invalidCore;
    for (sim::CoreId c : *cores) {
        if (!bed.kernel().isOnline(c))
            lost = c;
    }
    ASSERT_NE(lost, sim::invalidCore);
    EXPECT_TRUE(planner.isReserved(lost));
    EXPECT_EQ(planner.reservedCores(), 1);
    // Whatever the planner can still hand out excludes the lost core.
    while (auto more = planner.reserve(1))
        EXPECT_NE((*more)[0], lost);
}

// ----------------------------------------------- hotplug property (I6)

namespace {

Proc<void>
hotplugCycles(host::Kernel& k, int rounds, int& completed, bool& done)
{
    for (int i = 0; i < rounds; ++i) {
        bool off = co_await k.offlineCore(2);
        if (!off)
            off = co_await k.offlineCore(2); // one retry, like GappedVm
        if (off) {
            while (!co_await k.onlineCore(2)) {
            }
        }
        // Round trip done: capacity is restored either way (I6).
        EXPECT_TRUE(k.isOnline(2)) << "round " << i;
        ++completed;
    }
    done = true;
}

} // namespace

TEST(ChaosHotplug, RoundTripRestoresCapacityUnderRepeatedFailures)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::SharedCore;
    Testbed bed(cfg);
    bed.sim().faults().arm(9, FaultPlan::parse(
        "hotplug-offline-fail:p=0.3:max=0;"
        "hotplug-online-fail:p=0.3:max=0"));
    int completed = 0;
    bool done = false;
    bed.sim().spawn("cycler",
                    hotplugCycles(bed.kernel(), 40, completed, done));
    bed.run(bed.sim().now() + 30 * sim::sec);
    ASSERT_TRUE(done) << "hotplug cycling wedged";
    EXPECT_EQ(completed, 40);
    EXPECT_EQ(bed.kernel().onlineCount(), 4);
    EXPECT_GE(
        bed.sim().faults().injected(FaultSite::HotplugOfflineFail) +
            bed.sim().faults().injected(FaultSite::HotplugOnlineFail),
        1u);
}

// ------------------------------------- suspend / fault / resume

namespace {

Proc<void>
suspendThenFlag(GappedVm& g, bool& done)
{
    co_await g.suspend();
    done = true;
}

} // namespace

TEST(ChaosSuspend, FaultsAcrossSuspendResumeDoNotWedgeTheVm)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped;
    cfg.seed = 11;
    Testbed bed(cfg);
    // One fault lands before the suspend, two after the resume
    // (windowed), interleaving recovery with the lifecycle ops.
    bed.sim().faults().arm(7, FaultPlan::parse(
        "doorbell-lost:nth=2:max=1;"
        "syncrpc-stall:from=100ms:max=1;"
        "ipi-drop:from=100ms:max=1"));
    VmInstance& vm = bed.createVm("yoyo", 3); // 2 vCPUs
    std::vector<std::uint64_t> rounds(2, 0);
    for (int i = 0; i < 2; ++i) {
        vm.vcpu(i).startGuest(
            "w", faultingWorker(bed, vm.vcpu(i), i, 40,
                                rounds[static_cast<size_t>(i)]));
    }
    bed.spawnStart();
    bed.run(bed.sim().now() + 40 * msec);
    ASSERT_FALSE(bed.allShutdown());

    bool suspended = false;
    bed.sim().spawn("suspender",
                    suspendThenFlag(*vm.gapped, suspended));
    bed.run(bed.sim().now() + 20 * msec);
    ASSERT_TRUE(suspended);
    ASSERT_TRUE(vm.gapped->suspended());
    bed.run(bed.sim().now() + 30 * msec);
    vm.gapped->resume();

    bed.run(bed.sim().now() + 5 * sim::sec);
    // The guests finished their work and shut down cleanly despite
    // the faults bracketing the suspension.
    EXPECT_TRUE(bed.allShutdown());
    for (std::uint64_t r : rounds)
        EXPECT_EQ(r, 40u);
    EXPECT_GE(bed.sim().faults().injected(FaultSite::DoorbellLost), 1u);
    EXPECT_GE(bed.sim().faults().injected(FaultSite::SyncRpcStall), 1u);
    bool torn = false;
    bed.sim().spawn("teardown", teardownThenFlag(*vm.gapped, torn));
    bed.run(bed.sim().now() + 5 * sim::sec);
    ASSERT_TRUE(torn);
    for (sim::CoreId c : vm.guestCores)
        EXPECT_TRUE(bed.kernel().isOnline(c)) << c;
}

// --------------------------------------------------- sync-RPC timeout

namespace {

Proc<void>
callOnce(GappedVm& g, rmm::RmiStatus& status, bool& done)
{
    status = co_await g.syncRpc().call(
        [] { return rmm::RmiStatus::Success; });
    done = true;
}

} // namespace

TEST(ChaosRpc, UnservicedCallTimesOutInsteadOfSpinningForever)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    bed.sim().faults().arm(1); // bounded waits; no injections needed
    VmInstance& vm = bed.createVm("mute", 3);
    // The VM is never started: no monitor loop will ever pick the
    // call up, which models a monitor that stopped polling.
    rmm::RmiStatus status = rmm::RmiStatus::Success;
    bool done = false;
    bed.kernel().createThread("caller",
                              callOnce(*vm.gapped, status, done),
                              host::SchedClass::Fair,
                              host::CpuMask::single(0));
    bed.run(bed.sim().now() + 5 * sim::sec);
    ASSERT_TRUE(done) << "bounded busy-wait never gave up";
    EXPECT_EQ(status, rmm::RmiStatus::Timeout);
}

// ------------------------------------- hotplug racing a live migration

namespace {

Proc<void>
migrateThenFlag(Testbed& bed, cg::core::MigrationController& ctrl,
                std::vector<sim::CoreId> dest,
                cg::core::MigrateResult& out)
{
    co_await bed.started().wait();
    co_await sim::Delay{30 * msec};
    out = co_await ctrl.migrateTo(std::move(dest));
}

} // namespace

TEST(ChaosMigration, HotplugFailuresRacingTheMoveStillRecover)
{
    // A migration both offlines cores (taking the destination pool)
    // and onlines them (handing the source pool back). Failing each
    // once, mid-flight, must be absorbed by the controller's single
    // retry: the move commits and no core is lost or left offline.
    // The window starts after bring-up so the injections land on the
    // migration's hotplug calls, not the VM's.
    Testbed::Config cfg;
    cfg.numCores = 6;
    cfg.mode = RunMode::CoreGapped;
    cfg.seed = 21;
    Testbed bed(cfg);
    bed.sim().faults().arm(13, FaultPlan::parse(
        "hotplug-offline-fail:from=25ms:nth=1:max=1;"
        "hotplug-online-fail:from=25ms:nth=1:max=1"));
    VmInstance& vm = bed.createVm("mover", 3); // host 0, guests {1,2}
    std::vector<std::uint64_t> rounds(2, 0);
    for (int i = 0; i < 2; ++i) {
        vm.vcpu(i).startGuest(
            "w", faultingWorker(bed, vm.vcpu(i), i, 24,
                                rounds[static_cast<size_t>(i)]));
    }
    bed.spawnStart();

    cg::core::MigrationController ctrl(*vm.gapped, nullptr);
    auto result = cg::core::MigrateResult::Refused;
    bed.sim().spawn("migrate",
                    migrateThenFlag(bed, ctrl, {3, 4}, result));
    bed.run(bed.sim().now() + 5 * sim::sec);

    EXPECT_EQ(result, cg::core::MigrateResult::Committed);
    EXPECT_GE(bed.sim().faults().injected(FaultSite::HotplugOfflineFail) +
                  bed.sim().faults().injected(FaultSite::HotplugOnlineFail),
              1u);
    EXPECT_TRUE(bed.allShutdown());
    for (std::uint64_t r : rounds)
        EXPECT_EQ(r, 24u);
    EXPECT_EQ(vm.gapped->coresLost(), 0u);
    // Source pool back with the host, destination pool dedicated.
    for (sim::CoreId c : {1, 2})
        EXPECT_TRUE(bed.kernel().isOnline(c)) << c;
    for (sim::CoreId c : {3, 4}) {
        EXPECT_FALSE(bed.kernel().isOnline(c)) << c;
        EXPECT_EQ(bed.rmm().dedicatedOwner(c), vm.kvm->realmId()) << c;
    }

    bool torn = false;
    bed.sim().spawn("teardown", teardownThenFlag(*vm.gapped, torn));
    bed.run(bed.sim().now() + 5 * sim::sec);
    ASSERT_TRUE(torn);
    for (sim::CoreId c : {1, 2, 3, 4}) {
        EXPECT_TRUE(bed.kernel().isOnline(c)) << c;
        EXPECT_EQ(bed.machine().core(c).world(), hw::World::Normal);
    }
}

// ------------------------------------------------ state-machine guards

TEST(ChaosGuards, RunSlotDoublePostDies)
{
    sim::Simulation s;
    hw::MachineConfig mcfg;
    mcfg.numCores = 1;
    hw::Machine m(s, mcfg);
    sim::Notify poke;
    cg::core::RunSlot slot(m, poke);
    slot.post({});
    EXPECT_DEATH(slot.post({}), "only Idle may post");
}

TEST(ChaosGuards, RunSlotPublishWithoutRunDies)
{
    sim::Simulation s;
    hw::MachineConfig mcfg;
    mcfg.numCores = 1;
    hw::Machine m(s, mcfg);
    sim::Notify poke;
    cg::core::RunSlot slot(m, poke);
    EXPECT_DEATH(slot.publish({}), "only a Running slot");
}
