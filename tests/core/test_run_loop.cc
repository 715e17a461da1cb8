/**
 * @file
 * Tick-exact pins of the confidential vCPU run loop: one workload
 * (MMIO reads, stage-2 faults, a virtual IPI into a WFI idler, then
 * shutdown) on a shared-core CVM, a core-gapped VM and the busy-wait
 * ablation, plus the order of the park gate against the run-call
 * arguments: an injection queued while a gapped VM is suspended must
 * reach the guest in the first run call after resume().
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/gapped_vm.hh"
#include "sim/simulation.hh"
#include "workloads/testbed.hh"

namespace sim = cg::sim;
namespace hw = cg::hw;
namespace guest = cg::guest;
namespace vmm = cg::vmm;
using namespace cg::workloads;
using sim::Compute;
using sim::Proc;
using sim::Tick;
using sim::msec;
using sim::usec;

namespace {

constexpr std::uint64_t mmioBase = 0x0a000000ull;
constexpr std::uint64_t faultBase = 0x60000000ull;

/** vCPU 0: MMIO reads and stage-2 faults, then a vIPI to vCPU 1. */
Proc<void>
driver(guest::VCpu& v, std::vector<std::uint64_t>& reads, bool& acked)
{
    for (int i = 0; i < 3; ++i) {
        reads.push_back(co_await v.mmioRead(mmioBase + 8u * i, 8));
        co_await v.pageFault(faultBase +
                             static_cast<std::uint64_t>(i) * 4096);
        co_await Compute{300 * usec};
    }
    co_await v.sendVIpi(1);
    while (!acked)
        co_await Compute{1 * usec};
    co_await Compute{2 * msec};
    co_await v.shutdown();
}

/** vCPU 1: WFI until the vIPI arrives, then a little work. */
Proc<void>
idler(guest::VCpu& v, const bool& acked)
{
    while (!acked)
        co_await v.idle();
    co_await Compute{500 * usec};
    co_await v.shutdown();
}

Proc<void>
recordOpen(sim::Gate& g, sim::Simulation& s, Tick& at)
{
    co_await g.wait();
    at = s.now();
}

struct Outcome {
    std::vector<std::uint64_t> reads;
    Tick shutdownAt = 0;
    std::uint64_t exits = 0;
    std::uint64_t mmioExits = 0;
    std::uint64_t wfiExits = 0;
    std::uint64_t pageFaultExits = 0;
    std::uint64_t irqRelatedExits = 0;
    std::uint64_t injections = 0;
    std::uint64_t kvmRunToRun = 0;
    std::uint64_t runCallRtt = 0;
};

Outcome
runWorkload(RunMode mode)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = mode;
    Testbed bed(cfg);
    // Two vCPUs in every mode: gapped VMs spend one core on the host.
    VmInstance& vm = bed.createVm("pin", isGapped(mode) ? 3 : 2);
    vmm::MmioRange r;
    r.base = mmioBase;
    r.size = 0x100;
    r.onRead = [](std::uint64_t addr, int) {
        return (addr - mmioBase) * 3 + 1;
    };
    vm.kvm->mapMmio(r);

    Outcome out;
    bool acked = false;
    vm.vcpu(1).setVirqHandler(hw::sgiBase + 1, [&acked] { acked = true; });
    vm.vcpu(0).startGuest("driver", driver(vm.vcpu(0), out.reads, acked));
    vm.vcpu(1).startGuest("idler", idler(vm.vcpu(1), acked));
    bed.sim().spawn("watch", recordOpen(vm.kvm->shutdownGate(),
                                        bed.sim(), out.shutdownAt));
    bed.spawnStart();
    bed.run(2 * sim::sec);

    const vmm::KvmStats& s = vm.kvm->stats();
    out.exits = s.exits.value();
    out.mmioExits = s.mmioExits.value();
    out.wfiExits = s.wfiExits.value();
    out.pageFaultExits = s.pageFaultExits.value();
    out.irqRelatedExits = s.irqRelatedExits.value();
    out.injections = s.injections.value();
    out.kvmRunToRun = s.runToRun.count();
    out.runCallRtt = vm.gapped ? vm.gapped->runCallRtt().count() : 0;
    return out;
}

void
expectPinned(const Outcome& o, const Outcome& want)
{
    EXPECT_EQ(o.reads, (std::vector<std::uint64_t>{1, 25, 49}));
    EXPECT_EQ(o.shutdownAt, want.shutdownAt);
    EXPECT_EQ(o.exits, want.exits);
    EXPECT_EQ(o.mmioExits, want.mmioExits);
    EXPECT_EQ(o.wfiExits, want.wfiExits);
    EXPECT_EQ(o.pageFaultExits, want.pageFaultExits);
    EXPECT_EQ(o.irqRelatedExits, want.irqRelatedExits);
    EXPECT_EQ(o.injections, want.injections);
    EXPECT_EQ(o.kvmRunToRun, want.kvmRunToRun);
    EXPECT_EQ(o.runCallRtt, want.runCallRtt);
}

} // namespace

TEST(RunLoopPin, SharedCoreCvm)
{
    Outcome want;
    want.shutdownAt = 3140041972;
    want.exits = 11;
    want.mmioExits = 3;
    want.wfiExits = 2;
    want.pageFaultExits = 3;
    want.irqRelatedExits = 1;
    want.injections = 1;
    want.kvmRunToRun = 9;
    want.runCallRtt = 0;
    expectPinned(runWorkload(RunMode::SharedCoreCvm), want);
}

TEST(RunLoopPin, CoreGapped)
{
    Outcome want;
    want.shutdownAt = 11213139394;
    want.exits = 8;
    want.mmioExits = 3;
    want.wfiExits = 0;
    want.pageFaultExits = 3;
    want.irqRelatedExits = 0;
    want.injections = 0;
    want.kvmRunToRun = 0;
    want.runCallRtt = 8;
    expectPinned(runWorkload(RunMode::CoreGapped), want);
}

TEST(RunLoopPin, CoreGappedBusyWait)
{
    Outcome want;
    want.shutdownAt = 11270192605;
    want.exits = 10;
    want.mmioExits = 3;
    want.wfiExits = 0;
    want.pageFaultExits = 3;
    want.irqRelatedExits = 2;
    want.injections = 1;
    want.kvmRunToRun = 0;
    want.runCallRtt = 10;
    expectPinned(runWorkload(RunMode::CoreGappedBusyWait), want);
}

namespace {

constexpr hw::IntId pinVirq = 44;

struct ParkOutcome {
    bool suspended = false;
    std::uint64_t rttAtResume = 0;
    int handled = 0;
    std::uint64_t rttAtHandle = 0;
    Tick handledAt = 0;
    Tick resumedAt = 0;
};

Proc<void>
computeLoop(guest::VCpu& v, int n)
{
    for (int i = 0; i < n; ++i)
        co_await Compute{100 * usec};
    co_await v.shutdown();
}

/** Suspend, queue an injection while parked, then resume. */
Proc<void>
suspendInjectResume(VmInstance& vm, sim::Simulation& s, ParkOutcome& o)
{
    o.suspended = co_await vm.gapped->suspend();
    vm.kvm->queueInjection(0, pinVirq);
    co_await sim::Delay{1 * msec};
    o.rttAtResume = vm.gapped->runCallRtt().count();
    o.resumedAt = s.now();
    vm.gapped->resume();
}

} // namespace

TEST(RunLoopPin, InjectionQueuedWhileSuspendedEntersWithTheFirstRunCall)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("park", 2); // 1 vCPU
    ParkOutcome o;
    vm.vcpu(0).setVirqHandler(pinVirq, [&] {
        ++o.handled;
        o.rttAtHandle = vm.gapped->runCallRtt().count();
        o.handledAt = bed.sim().now();
    });
    vm.vcpu(0).startGuest("loop", computeLoop(vm.vcpu(0), 200));
    Tick shutdown_at = 0;
    bed.sim().spawn("watch", recordOpen(vm.kvm->shutdownGate(),
                                        bed.sim(), shutdown_at));
    bed.spawnStart();
    bed.run(12 * msec);
    bed.sim().spawn("parker", suspendInjectResume(vm, bed.sim(), o));
    bed.run(2 * sim::sec);

    ASSERT_TRUE(o.suspended);
    EXPECT_EQ(o.handled, 1);
    // Handled while the first run call after resume() was in flight:
    // that call's round trip is not sampled yet.
    EXPECT_EQ(o.rttAtHandle, o.rttAtResume);
    EXPECT_EQ(o.resumedAt, Tick{13023122215});
    EXPECT_EQ(o.handledAt, Tick{13025088968});
    EXPECT_EQ(shutdown_at, Tick{25146069639});
    EXPECT_EQ(vm.gapped->runCallRtt().count(), 3u);
}
