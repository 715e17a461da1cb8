/**
 * @file
 * Integration tests for the KVM/VMM layer: shared-core VMs end to end,
 * virtio and SR-IOV data paths, virtual IPIs, and shared-core CVMs.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/simulation.hh"
#include "vmm/kvm.hh"
#include "vmm/sriov.hh"
#include "vmm/virtio.hh"
#include "vmm/virtio_mq.hh"

namespace hw = cg::hw;
namespace sim = cg::sim;
namespace host = cg::host;
namespace guest = cg::guest;
using namespace cg::vmm;
using guest::VCpu;
using sim::Proc;
using sim::Tick;
using sim::Compute;
using sim::msec;
using sim::usec;

namespace {

Proc<void>
computeAndShutdown(VCpu& v, Tick work)
{
    co_await Compute{work};
    co_await v.shutdown();
}

Proc<void>
blkIoAndShutdown(VCpu& v, VirtioBlk& blk, int n, std::uint64_t bytes,
                 int& completed)
{
    for (int i = 0; i < n; ++i) {
        co_await blk.guestIo(v, bytes, i % 2 == 0);
        ++completed;
    }
    co_await v.shutdown();
}

Proc<void>
netPingAndShutdown(VCpu& v, MqVirtioNet& net, int peer_port, int n,
                   int& echoes, Tick& last_rtt, sim::Simulation& s)
{
    for (int i = 0; i < n; ++i) {
        const Tick t0 = s.now();
        co_await net.guestSend(v, 1500, peer_port,
                               static_cast<std::uint64_t>(i));
        Packet reply = co_await net.guestRecv(v, 0);
        last_rtt = s.now() - t0;
        if (reply.cookie == static_cast<std::uint64_t>(i))
            ++echoes;
    }
    co_await v.shutdown();
}

Proc<void>
sriovPingAndShutdown(VCpu& v, SriovNic& nic, int peer_port, int n,
                     int& echoes, Tick& last_rtt, sim::Simulation& s)
{
    for (int i = 0; i < n; ++i) {
        const Tick t0 = s.now();
        co_await nic.guestSend(v, 1500, peer_port,
                               static_cast<std::uint64_t>(i));
        Packet reply = co_await nic.guestRecv(v);
        last_rtt = s.now() - t0;
        if (reply.cookie == static_cast<std::uint64_t>(i))
            ++echoes;
    }
    co_await v.shutdown();
}

Proc<void>
vipiSender(VCpu& v, int target, int n, bool& peer_acked, int& acks)
{
    for (int i = 0; i < n; ++i) {
        peer_acked = false;
        co_await v.sendVIpi(target);
        // Spin (in guest time) until the peer's handler runs.
        while (!peer_acked)
            co_await Compute{1 * usec};
        ++acks;
    }
    co_await v.shutdown();
}

Proc<void>
idleForever(VCpu& v)
{
    for (;;)
        co_await v.idle();
}

Proc<void>
faultTouchAndShutdown(VCpu& v, int pages)
{
    for (int i = 0; i < pages; ++i) {
        co_await v.pageFault((0x40000000ull) +
                             static_cast<std::uint64_t>(i) * 4096);
        co_await Compute{50 * usec};
    }
    co_await v.shutdown();
}

struct Rig {
    sim::Simulation sim;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<host::Kernel> kernel;
    std::unique_ptr<KickBroker> kicks;
    std::unique_ptr<guest::Vm> vm;
    std::unique_ptr<KvmVm> kvm;
    std::unique_ptr<cg::rmm::Rmm> rmm;

    void
    boot(int cores, guest::VmConfig vcfg, KvmConfig kcfg)
    {
        hw::MachineConfig mcfg;
        mcfg.numCores = cores;
        machine = std::make_unique<hw::Machine>(sim, mcfg);
        kernel = std::make_unique<host::Kernel>(*machine);
        kicks = std::make_unique<KickBroker>(*kernel);
        vm = std::make_unique<guest::Vm>(*machine, vcfg,
                                         sim::firstVmDomain);
        kvm = std::make_unique<KvmVm>(*kernel, *vm, *kicks, kcfg);
    }

    void
    makeCvm()
    {
        rmm = std::make_unique<cg::rmm::Rmm>(*machine,
                                             cg::rmm::RmmConfig{});
        const int realm = createRealmFor(*rmm, *vm);
        kvm->attachRealm(*rmm, realm);
    }
};

struct KvmFixture : ::testing::Test, Rig {};

} // namespace

TEST_F(KvmFixture, SharedVmRunsToShutdown)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 2;
    boot(4, vcfg, KvmConfig{});
    for (int i = 0; i < 2; ++i) {
        vm->vcpu(i).startGuest(
            "w", computeAndShutdown(vm->vcpu(i), 50 * msec));
    }
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_TRUE(kvm->shutdownGate().isOpen());
    // ~12 ticks per vCPU at 250 Hz over 50 ms: 2 exits per tick.
    EXPECT_GT(kvm->stats().exits.value(), 40u);
    EXPECT_GT(vm->vcpu(0).ticksHandled.value(), 8u);
    EXPECT_GE(vm->vcpu(0).guestCpuTime, 50 * msec);
}

TEST_F(KvmFixture, VirtioBlkRoundTrip)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    boot(2, vcfg, KvmConfig{});
    Disk disk(sim, Disk::Config{});
    VirtioBlk blk(*kvm, disk, VirtioBlk::Config{});
    int completed = 0;
    vm->vcpu(0).startGuest(
        "io", blkIoAndShutdown(vm->vcpu(0), blk, 8, 65536, completed));
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_TRUE(kvm->shutdownGate().isOpen());
    EXPECT_EQ(completed, 8);
    EXPECT_EQ(disk.opsCompleted(), 8u);
    EXPECT_GT(kvm->stats().mmioExits.value(), 0u);
}

TEST_F(KvmFixture, VirtioNetEchoThroughRemotePeer)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    boot(2, vcfg, KvmConfig{});
    NetworkFabric fab(sim, NetworkFabric::Config{});
    // The emulated single-queue NIC, as Testbed::addVirtioNet builds it.
    MqVirtioNet::Config ncfg;
    ncfg.numQueues = 1;
    ncfg.kickBatchLimit = 1;
    ncfg.kickOncePerArm = true;
    MqVirtioNet net(*kvm, fab, ncfg);
    // Remote echo endpoint: bounce every packet back.
    struct Echo {
        NetworkFabric* fab;
        int port = -1;
    };
    auto echo = std::make_shared<Echo>();
    echo->fab = &fab;
    echo->port = fab.attach([echo](const Packet& p) {
        Packet r = p;
        r.srcPort = echo->port;
        r.dstPort = p.srcPort;
        echo->fab->send(r);
    });
    int echoes = 0;
    Tick rtt = 0;
    vm->vcpu(0).startGuest(
        "ping", netPingAndShutdown(vm->vcpu(0), net, echo->port, 5,
                                   echoes, rtt, sim));
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_EQ(echoes, 5);
    EXPECT_GT(net.txPackets(), 0u);
    EXPECT_GT(net.rxPackets(), 0u);
    // Emulated path: tens of microseconds round trip.
    EXPECT_GT(rtt, 15 * usec);
    EXPECT_LT(rtt, 500 * usec);
}

TEST_F(KvmFixture, SriovEchoFasterThanVirtio)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    boot(2, vcfg, KvmConfig{});
    NetworkFabric fab(sim, NetworkFabric::Config{});
    SriovNic nic(*kvm, fab, SriovNic::Config{});
    struct Echo {
        NetworkFabric* fab;
        int port = -1;
    };
    auto echo = std::make_shared<Echo>();
    echo->fab = &fab;
    echo->port = fab.attach([echo](const Packet& p) {
        Packet r = p;
        r.srcPort = echo->port;
        r.dstPort = p.srcPort;
        echo->fab->send(r);
    });
    int echoes = 0;
    Tick rtt = 0;
    vm->vcpu(0).startGuest(
        "ping", sriovPingAndShutdown(vm->vcpu(0), nic, echo->port, 5,
                                     echoes, rtt, sim));
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_EQ(echoes, 5);
    // SR-IOV TX causes no MMIO exits at all.
    EXPECT_EQ(kvm->stats().mmioExits.value(), 0u);
    EXPECT_GT(rtt, 10 * usec);
    EXPECT_LT(rtt, 60 * usec);
}

TEST_F(KvmFixture, VirtualIpiBetweenVcpus)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 2;
    vcfg.tickPeriod = 0; // quiet
    boot(4, vcfg, KvmConfig{});
    bool peer_acked = false;
    int acks = 0;
    vm->vcpu(1).setVirqHandler(hw::sgiBase + 1,
                               [&peer_acked] { peer_acked = true; });
    vm->vcpu(0).startGuest(
        "sender", vipiSender(vm->vcpu(0), 1, 3, peer_acked, acks));
    vm->vcpu(1).startGuest("idler", idleForever(vm->vcpu(1)));
    kvm->start();
    sim.run(1 * sim::sec);
    EXPECT_EQ(acks, 3);
    EXPECT_GT(kvm->stats().injections.value(), 0u);
}

TEST_F(KvmFixture, SharedCvmRunsWithRealm)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    KvmConfig kcfg;
    kcfg.mode = VmMode::SharedCoreCvm;
    boot(2, vcfg, kcfg);
    makeCvm();
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 30 * msec));
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_TRUE(kvm->shutdownGate().isOpen());
    EXPECT_GT(rmm->stats().exitsToHost.value(), 10u);
    EXPECT_GT(rmm->stats().rmiCalls.value(), 10u);
}

TEST_F(KvmFixture, SharedCvmSlowerThanSharedVm)
{
    // Identical work; the CVM pays world switches + flushes per exit.
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    boot(2, vcfg, KvmConfig{});
    vm->vcpu(0).startGuest(
        "w", computeAndShutdown(vm->vcpu(0), 100 * msec));
    kvm->start();
    const Tick t_shared = sim.run();

    // Fresh simulation for the CVM variant.
    Rig cvm_fix;
    guest::VmConfig vcfg2;
    vcfg2.numVcpus = 1;
    KvmConfig kcfg;
    kcfg.mode = VmMode::SharedCoreCvm;
    cvm_fix.boot(2, vcfg2, kcfg);
    cvm_fix.makeCvm();
    cvm_fix.vm->vcpu(0).startGuest(
        "w", computeAndShutdown(cvm_fix.vm->vcpu(0), 100 * msec));
    cvm_fix.kvm->start();
    const Tick t_cvm = cvm_fix.sim.run();

    EXPECT_TRUE(kvm->shutdownGate().isOpen());
    EXPECT_TRUE(cvm_fix.kvm->shutdownGate().isOpen());
    EXPECT_GT(t_cvm, t_shared);
}

TEST_F(KvmFixture, CvmPageFaultsPopulateRtt)
{
    guest::VmConfig vcfg;
    vcfg.numVcpus = 1;
    vcfg.tickPeriod = 0;
    KvmConfig kcfg;
    kcfg.mode = VmMode::SharedCoreCvm;
    boot(2, vcfg, kcfg);
    makeCvm();
    vm->vcpu(0).startGuest(
        "toucher", faultTouchAndShutdown(vm->vcpu(0), 10));
    kvm->start();
    sim.run(5 * sim::sec);
    EXPECT_TRUE(kvm->shutdownGate().isOpen());
    EXPECT_EQ(kvm->stats().pageFaultExits.value(), 10u);
    cg::rmm::Realm* r = rmm->realm(kvm->realmId());
    ASSERT_NE(r, nullptr);
    // 64 boot pages + 10 faulted pages.
    EXPECT_EQ(r->rtt.mappedPages(), 74u);
}
