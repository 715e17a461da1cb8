/**
 * @file
 * Lifecycle-order tests for the core-gapped runner (DESIGN.md section
 * 12): every public entry point issued while another lifecycle
 * operation is in flight (start's hotplug phase, a migration), or
 * after the VM has stopped, either waits for the VM to settle or
 * returns its defined failure value. None may panic or index a
 * missing vCPU thread.
 *
 * Each case runs in a child process (EXPECT_EXIT) and exits 0 only if
 * every check holds, so a panic fails that one case instead of the
 * whole binary.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
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

/** Child-side check: report the failed condition and fail the case. */
#define REQUIRE(cond)                                                 \
    do {                                                              \
        if (!(cond)) {                                                \
            std::fprintf(stderr, "check failed at line %d: %s\n",     \
                         __LINE__, #cond);                            \
            return false;                                             \
        }                                                             \
    } while (0)

namespace {

/** Runs @p body in the EXPECT_EXIT child: exit 0 iff it holds. */
void
runChild(bool (*body)())
{
    std::exit(body() ? 0 : 1);
}

Proc<void>
computeAndShutdown(guest::VCpu& v, Tick work)
{
    co_await Compute{work};
    co_await v.shutdown();
}

/** One lifecycle call, issued @p delay after the process spawns. */
enum class Call { Suspend, Terminate, Teardown, Rebind, Migrate };

struct Action {
    Call call;
    Tick delay = 0;
    /** Rebind: vCPU 0's destination; migrate: the destination pool. */
    std::vector<CoreId> dest{};
    /** The call's result: 1/0 for bool calls, 1 when a void call
     * returned; -1 until it returns. */
    int result = -1;
    MigrateResult migrated = MigrateResult::Refused;
};

Proc<void>
perform(GappedVm& g, MigrationController& ctrl, Action& a)
{
    co_await sim::Delay{a.delay};
    switch (a.call) {
      case Call::Suspend:
        a.result = (co_await g.suspend()) ? 1 : 0;
        break;
      case Call::Terminate:
        co_await g.terminate();
        a.result = 1;
        break;
      case Call::Teardown:
        co_await g.teardown();
        a.result = 1;
        break;
      case Call::Rebind:
        a.result = (co_await g.rebindVcpu(0, a.dest.at(0))) ? 1 : 0;
        break;
      case Call::Migrate:
        a.migrated = co_await ctrl.migrateTo(a.dest);
        a.result = 1;
        break;
    }
}

/** Performs @p actions one after another, each after its delay. */
Proc<void>
performAll(GappedVm& g, MigrationController& ctrl,
           std::vector<Action>& actions)
{
    for (Action& a : actions)
        co_await perform(g, ctrl, a);
}

/**
 * An 8-core core-gapped testbed with one 2-vCPU VM "l" (host core 0,
 * dedicated cores 1 and 2) whose vCPUs compute for @p work and shut
 * down, plus a migration controller for it.
 */
struct Rig {
    Testbed bed;
    VmInstance& vm;
    GappedVm& g;
    MigrationController ctrl;

    explicit Rig(Tick work)
        : bed(config()),
          vm(bed.createVm("l", 3)),
          g(*vm.gapped),
          ctrl(g, nullptr)
    {
        for (int i = 0; i < 2; ++i)
            vm.vcpu(i).startGuest("w",
                                  computeAndShutdown(vm.vcpu(i), work));
    }

    static Testbed::Config
    config()
    {
        Testbed::Config cfg;
        cfg.numCores = 8;
        cfg.mode = RunMode::CoreGapped;
        return cfg;
    }

    /** Start the VM and, concurrently, one process per action. */
    void
    spawn(std::vector<Action>& actions)
    {
        bed.spawnStart();
        for (Action& a : actions)
            bed.sim().spawn("act", perform(g, ctrl, a));
    }

    void runFor(Tick t) { bed.run(bed.sim().now() + t); }

    bool
    coresHandedBack()
    {
        return bed.kernel().isOnline(1) && bed.kernel().isOnline(2) &&
               bed.rmm().dedicatedOwner(1) == -1 &&
               bed.rmm().dedicatedOwner(2) == -1;
    }
};

// ---------------------------------------------- calls during start()

bool
suspendDuringStart()
{
    Rig r(200 * msec);
    std::vector<Action> acts{{Call::Suspend, 3 * msec}};
    r.spawn(acts);
    r.runFor(50 * msec);
    REQUIRE(acts[0].result == 1);
    REQUIRE(r.g.suspended());
    const Tick t0 = r.vm.vcpu(0).guestCpuTime;
    r.runFor(100 * msec);
    REQUIRE(r.vm.vcpu(0).guestCpuTime == t0);
    r.g.resume();
    r.runFor(5 * sim::sec);
    REQUIRE(r.bed.allShutdown());
    return true;
}

bool
terminateDuringStart()
{
    Rig r(200 * msec);
    std::vector<Action> acts{{Call::Terminate, 3 * msec}};
    r.spawn(acts);
    r.runFor(100 * msec);
    REQUIRE(acts[0].result == 1);
    REQUIRE(r.g.shutdownGate().isOpen());
    REQUIRE(r.coresHandedBack());
    return true;
}

bool
rebindDuringStart()
{
    Rig r(200 * msec);
    std::vector<Action> acts{{Call::Rebind, 3 * msec, {3}}};
    r.spawn(acts);
    r.runFor(100 * msec);
    // The rebind ran once start() finished, before vCPU 0's first
    // REC enter bound it to a core: the monitor refuses it, and the
    // rollback keeps core 1 and hands core 3 back.
    REQUIRE(acts[0].result == 0);
    REQUIRE(r.g.coreOf(0) == 1);
    REQUIRE(!r.bed.kernel().isOnline(1));
    REQUIRE(r.bed.kernel().isOnline(3));
    r.runFor(5 * sim::sec);
    REQUIRE(r.bed.allShutdown());
    return true;
}

bool
migrateDuringStart()
{
    Rig r(200 * msec);
    std::vector<Action> acts{{Call::Migrate, 3 * msec, {3, 4}}};
    r.spawn(acts);
    r.runFor(100 * msec);
    REQUIRE(acts[0].migrated == MigrateResult::Committed);
    REQUIRE(r.g.coreOf(0) == 3 && r.g.coreOf(1) == 4);
    REQUIRE(r.coresHandedBack());
    r.runFor(5 * sim::sec);
    REQUIRE(r.bed.allShutdown());
    return true;
}

// ------------------------------------- calls during a migration

bool
suspendDuringMigration()
{
    Rig r(200 * msec);
    std::vector<Action> acts{{Call::Migrate, 30 * msec, {3, 4}},
                             {Call::Suspend, 31 * msec}};
    r.spawn(acts);
    r.runFor(100 * msec);
    REQUIRE(acts[0].migrated == MigrateResult::Committed);
    REQUIRE(acts[1].result == 1);
    REQUIRE(r.g.suspended());
    r.g.resume();
    r.runFor(5 * sim::sec);
    REQUIRE(r.bed.allShutdown());
    REQUIRE(r.g.coreOf(0) == 3 && r.g.coreOf(1) == 4);
    return true;
}

bool
rebindDuringMigration()
{
    Rig r(200 * msec);
    std::vector<Action> acts{{Call::Migrate, 30 * msec, {3, 4}},
                             {Call::Rebind, 31 * msec, {5}}};
    r.spawn(acts);
    // The migration's bind counts as a rebind: the rate limiter holds
    // the waiting rebind back for its 10 s window.
    r.runFor(12 * sim::sec);
    REQUIRE(acts[0].migrated == MigrateResult::Committed);
    REQUIRE(acts[1].result == 1);
    REQUIRE(r.g.coreOf(0) == 5 && r.g.coreOf(1) == 4);
    REQUIRE(r.bed.kernel().isOnline(3));
    REQUIRE(!r.bed.kernel().isOnline(5));
    r.runFor(5 * sim::sec);
    REQUIRE(r.bed.allShutdown());
    return true;
}

// ------------------------------------------ calls once stopped

/** Clean guest shutdown, teardown(), then @p then. */
struct AfterTeardown {
    Rig r{20 * msec};
    std::vector<Action> acts;
    std::uint64_t hotplugOps = 0;
    std::uint64_t rmiCalls = 0;

    explicit AfterTeardown(Action then)
    {
        r.bed.spawnStart();
        r.runFor(1 * sim::sec);
        acts = {{Call::Teardown}, then};
        acts[1].delay = 0;
        r.bed.sim().spawn("act", performTeardown());
        r.runFor(100 * msec);
    }

    /** Run the teardown, then snapshot counters, then the call. */
    Proc<void>
    performTeardown()
    {
        co_await perform(r.g, r.ctrl, acts[0]);
        hotplugOps = r.bed.kernel().stats().hotplugOps.value();
        rmiCalls = r.bed.rmm().stats().rmiCalls.value();
        co_await perform(r.g, r.ctrl, acts[1]);
    }

    bool
    untouched()
    {
        return r.bed.kernel().stats().hotplugOps.value() ==
                   hotplugOps &&
               r.bed.rmm().stats().rmiCalls.value() == rmiCalls &&
               r.coresHandedBack();
    }
};

bool
suspendAfterTeardown()
{
    AfterTeardown t({Call::Suspend});
    REQUIRE(t.r.bed.allShutdown());
    REQUIRE(t.acts[0].result == 1);
    REQUIRE(t.acts[1].result == 0);
    REQUIRE(!t.r.g.suspended());
    REQUIRE(t.untouched());
    return true;
}

bool
rebindAfterTeardown()
{
    AfterTeardown t({Call::Rebind, 0, {3}});
    REQUIRE(t.acts[1].result == 0);
    REQUIRE(t.r.bed.kernel().isOnline(3));
    REQUIRE(t.untouched());
    return true;
}

bool
migrateAfterTeardown()
{
    AfterTeardown t({Call::Migrate, 0, {3, 4}});
    REQUIRE(t.acts[1].result == 1);
    REQUIRE(t.acts[1].migrated == MigrateResult::Refused);
    REQUIRE(t.r.ctrl.refused() == 1);
    REQUIRE(t.untouched());
    return true;
}

bool
secondTeardownIsANoOp()
{
    AfterTeardown t({Call::Teardown});
    REQUIRE(t.acts[1].result == 1);
    REQUIRE(t.untouched());
    return true;
}

bool
teardownAfterTerminateIsANoOp()
{
    Rig r(200 * msec);
    std::vector<Action> acts{{Call::Terminate, 50 * msec},
                             {Call::Teardown, 1 * msec}};
    r.bed.spawnStart();
    r.bed.sim().spawn("act", performAll(r.g, r.ctrl, acts));
    r.runFor(200 * msec);
    REQUIRE(acts[0].result == 1);
    REQUIRE(acts[1].result == 1);
    REQUIRE(r.g.shutdownGate().isOpen());
    REQUIRE(r.coresHandedBack());
    return true;
}

bool
teardownAfterFailedStartIsANoOp()
{
    Testbed bed(Rig::config());
    // Core 1 refuses to offline on the first try and on the retry, so
    // start() rolls back before any core is dedicated.
    bed.sim().faults().arm(1, sim::FaultPlan::parse(
                                  "hotplug-offline-fail:nth=1;"
                                  "hotplug-offline-fail:nth=2"));
    CorePlanner planner(bed.machine(), host::CpuMask::firstN(1));
    const auto cores = planner.reserve(2);
    REQUIRE(cores && (*cores)[0] == 1 && (*cores)[1] == 2);
    VmInstance& vm = bed.createVmOn("l", *cores,
                                    host::CpuMask::single(0), 2,
                                    guest::VmConfig{}, &planner);
    bed.spawnStart();
    bed.run(bed.sim().now() + 100 * msec);
    REQUIRE(bed.startFailures() == 1);
    REQUIRE(planner.reservedCores() == 0);
    const std::uint64_t hotplug_ops =
        bed.kernel().stats().hotplugOps.value();

    MigrationController ctrl(*vm.gapped, nullptr);
    std::vector<Action> acts{{Call::Teardown}, {Call::Terminate}};
    bed.sim().spawn("act", performAll(*vm.gapped, ctrl, acts));
    bed.run(bed.sim().now() + 100 * msec);
    REQUIRE(acts[0].result == 1 && acts[1].result == 1);
    REQUIRE(planner.reservedCores() == 0);
    REQUIRE(bed.kernel().stats().hotplugOps.value() == hotplug_ops);
    REQUIRE(bed.kernel().isOnline(1) && bed.kernel().isOnline(2));
    return true;
}

// ------------------------------------- rebind destination checks

bool
rebindToOwnCoreIsRefused()
{
    Rig r(200 * msec);
    r.bed.spawnStart();
    r.runFor(50 * msec);
    const std::uint64_t hotplug_ops =
        r.bed.kernel().stats().hotplugOps.value();
    // Core 2 is vCPU 1's dedicated core.
    std::vector<Action> acts{{Call::Rebind, 0, {2}}};
    r.bed.sim().spawn("act", perform(r.g, r.ctrl, acts[0]));
    r.runFor(10 * msec);
    REQUIRE(acts[0].result == 0);
    REQUIRE(r.g.coreOf(0) == 1 && r.g.coreOf(1) == 2);
    REQUIRE(r.bed.kernel().stats().hotplugOps.value() == hotplug_ops);
    r.runFor(5 * sim::sec);
    REQUIRE(r.bed.allShutdown());
    return true;
}

bool
rebindToAnotherTenantsCoreIsRefused()
{
    Rig r(200 * msec);
    // A second realm: host core 3, dedicated core 4.
    VmInstance& other = r.bed.createVm("o", 2);
    other.vcpu(0).startGuest(
        "w", computeAndShutdown(other.vcpu(0), 200 * msec));
    r.bed.spawnStart();
    r.runFor(50 * msec);
    REQUIRE(r.bed.rmm().dedicatedOwner(4) == other.kvm->realmId());
    std::vector<Action> acts{{Call::Rebind, 0, {4}}};
    r.bed.sim().spawn("act", perform(r.g, r.ctrl, acts[0]));
    r.runFor(10 * msec);
    REQUIRE(acts[0].result == 0);
    REQUIRE(r.g.coreOf(0) == 1);
    REQUIRE(r.bed.rmm().dedicatedOwner(4) == other.kvm->realmId());
    r.runFor(5 * sim::sec);
    REQUIRE(r.bed.allShutdown());
    return true;
}

bool
rebindKeepsThePlannerInStep()
{
    Testbed bed(Rig::config());
    CorePlanner planner(bed.machine(), host::CpuMask::firstN(1));
    const auto cores = planner.reserve(2);
    REQUIRE(cores && (*cores)[0] == 1 && (*cores)[1] == 2);
    VmInstance& vm = bed.createVmOn("l", *cores,
                                    host::CpuMask::single(0), 2,
                                    guest::VmConfig{}, &planner);
    for (int i = 0; i < 2; ++i)
        vm.vcpu(i).startGuest(
            "w", computeAndShutdown(vm.vcpu(i), 200 * msec));
    bed.spawnStart();
    bed.run(bed.sim().now() + 50 * msec);
    // Core 4 is online but held by the planner for someone else.
    planner.reserveExact({4});
    MigrationController ctrl(*vm.gapped, nullptr);
    std::vector<Action> acts{{Call::Rebind, 0, {4}},
                             {Call::Rebind, 0, {3}}};
    bed.sim().spawn("act", performAll(*vm.gapped, ctrl, acts));
    bed.run(bed.sim().now() + 5 * sim::sec);
    REQUIRE(acts[0].result == 0 && acts[1].result == 1);
    REQUIRE(vm.gapped->coreOf(0) == 3);
    REQUIRE(bed.allShutdown());
    // The reservation moved with vCPU 0: 3 and 2 are held, 1 is free.
    REQUIRE(planner.isReserved(3) && planner.isReserved(2));
    REQUIRE(!planner.isReserved(1));
    std::vector<Action> stop{{Call::Teardown}};
    bed.sim().spawn("stop", performAll(*vm.gapped, ctrl, stop));
    bed.run(bed.sim().now() + 100 * msec);
    REQUIRE(stop[0].result == 1);
    REQUIRE(planner.reservedCores() == 1); // core 4, still held
    return true;
}

} // namespace

#define LIFECYCLE_CASE(name, body)                                    \
    TEST(Lifecycle, name)                                             \
    {                                                                 \
        EXPECT_EXIT(runChild(body), ::testing::ExitedWithCode(0), ""); \
    }

LIFECYCLE_CASE(SuspendDuringStartWaitsForRunning, suspendDuringStart)
LIFECYCLE_CASE(TerminateDuringStartWaitsForRunning, terminateDuringStart)
LIFECYCLE_CASE(RebindDuringStartWaitsForRunning, rebindDuringStart)
LIFECYCLE_CASE(MigrateDuringStartWaitsForRunning, migrateDuringStart)
LIFECYCLE_CASE(SuspendDuringMigrationWaitsForIt, suspendDuringMigration)
LIFECYCLE_CASE(RebindDuringMigrationWaitsForIt, rebindDuringMigration)
LIFECYCLE_CASE(SuspendAfterTeardownIsRefused, suspendAfterTeardown)
LIFECYCLE_CASE(RebindAfterTeardownIsRefused, rebindAfterTeardown)
LIFECYCLE_CASE(MigrateAfterTeardownIsRefused, migrateAfterTeardown)
LIFECYCLE_CASE(SecondTeardownIsANoOp, secondTeardownIsANoOp)
LIFECYCLE_CASE(TeardownAfterTerminateIsANoOp,
               teardownAfterTerminateIsANoOp)
LIFECYCLE_CASE(TeardownAfterFailedStartIsANoOp,
               teardownAfterFailedStartIsANoOp)
LIFECYCLE_CASE(RebindToOwnCoreIsRefused, rebindToOwnCoreIsRefused)
LIFECYCLE_CASE(RebindToAnotherTenantsCoreIsRefused,
               rebindToAnotherTenantsCoreIsRefused)
LIFECYCLE_CASE(RebindKeepsThePlannerInStep, rebindKeepsThePlannerInStep)
