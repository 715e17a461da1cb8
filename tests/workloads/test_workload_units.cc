/**
 * @file
 * Unit tests for workload-support pieces: NetPIPE message framing,
 * the remote host's serialised CPU, redis request/response sizing,
 * and the testbed's configuration guards.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "workloads/netpipe.hh"
#include "workloads/redis.hh"
#include "workloads/remote.hh"

namespace sim = cg::sim;
namespace guest = cg::guest;
namespace vmm = cg::vmm;
using namespace cg::workloads;
using sim::Tick;
using sim::usec;

TEST(NetPipeFraming, CookieRoundTrip)
{
    for (std::uint64_t msg : {1ull, 77ull, 99999ull}) {
        for (std::uint64_t pkts : {1ull, 36ull, 2897ull}) {
            const std::uint64_t c = NetPipe::cookieOf(msg, pkts);
            EXPECT_EQ(NetPipe::msgIdOf(c), msg);
            EXPECT_EQ(NetPipe::packetsOf(c),
                      static_cast<int>(pkts));
        }
    }
}

TEST(NetPipeFraming, PacketCountForMessageSizes)
{
    // ceil(bytes / 1448): the basis of the fig. 8 sweep.
    EXPECT_EQ((64 + NetPipe::mtuPayload - 1) / NetPipe::mtuPayload,
              1u);
    EXPECT_EQ((1448 + NetPipe::mtuPayload - 1) / NetPipe::mtuPayload,
              1u);
    EXPECT_EQ((1449 + NetPipe::mtuPayload - 1) / NetPipe::mtuPayload,
              2u);
    EXPECT_EQ(((4ull << 20) + NetPipe::mtuPayload - 1) /
                  NetPipe::mtuPayload,
              2897u);
}

TEST(RemoteHost, SerialisesPacketsOnItsCpu)
{
    sim::Simulation s;
    vmm::NetworkFabric fab(s, vmm::NetworkFabric::Config{});
    RemoteHost host(s, fab, /*per_packet=*/10 * usec);
    std::vector<Tick> handled;
    host.setHandler([&handled, &s](const vmm::Packet&) {
        handled.push_back(s.now());
    });
    const int src = fab.attach(nullptr);
    for (int i = 0; i < 4; ++i) {
        vmm::Packet p;
        p.bytes = 100;
        p.srcPort = src;
        p.dstPort = host.port();
        fab.send(p);
    }
    s.run();
    ASSERT_EQ(handled.size(), 4u);
    // Back-to-back arrivals are processed ~10us apart (one CPU).
    for (size_t i = 1; i < handled.size(); ++i)
        EXPECT_GE(handled[i] - handled[i - 1], 9 * usec);
    EXPECT_EQ(host.received(), 4u);
}

TEST(RemoteHost, EchoSendsBack)
{
    sim::Simulation s;
    vmm::NetworkFabric fab(s, vmm::NetworkFabric::Config{});
    RemoteHost host(s, fab, 2 * usec);
    host.becomeEcho();
    std::vector<std::uint64_t> got;
    const int me = fab.attach([&got](const vmm::Packet& p) {
        got.push_back(p.cookie);
    });
    vmm::Packet p;
    p.bytes = 500;
    p.srcPort = me;
    p.dstPort = host.port();
    p.cookie = 0xabc;
    fab.send(p);
    s.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 0xabcu);
}

TEST(RedisSizing, OpNamesAndShapes)
{
    EXPECT_STREQ(redisOpName(RedisOp::Set), "SET");
    EXPECT_STREQ(redisOpName(RedisOp::Get), "GET");
    EXPECT_STREQ(redisOpName(RedisOp::Lrange100), "LRANGE 100");
}

TEST(TestbedGuards, RejectsImpossibleConfigs)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    // A gapped VM needs at least 2 physical cores (1 host + 1 guest).
    EXPECT_THROW(bed.createVm("tiny", 1), sim::FatalError);
    // And the machine only has 4 cores.
    EXPECT_THROW(bed.createVm("huge", 5), sim::FatalError);
    // Direct interrupt delivery requires a gapped VM.
    Testbed::Config scfg;
    scfg.numCores = 4;
    scfg.mode = RunMode::SharedCore;
    Testbed sbed(scfg);
    VmInstance& svm = sbed.createVm("s", 2);
    EXPECT_THROW(sbed.addSriovNic(svm, /*direct=*/true),
                 sim::FatalError);
}

TEST(TestbedGuards, CoreAccountingAcrossVms)
{
    Testbed::Config cfg;
    cfg.numCores = 8;
    cfg.mode = RunMode::CoreGapped;
    Testbed bed(cfg);
    VmInstance& a = bed.createVm("a", 4);
    VmInstance& b = bed.createVm("b", 4);
    // Disjoint physical cores, each with its own host core.
    for (sim::CoreId ca : a.physCores)
        for (sim::CoreId cb : b.physCores)
            EXPECT_NE(ca, cb);
    EXPECT_EQ(a.guestCores.size() + b.guestCores.size(), 6u);
    // A ninth core does not exist.
    EXPECT_THROW(bed.createVm("c", 2), sim::FatalError);
}

TEST(TestbedGuards, SpawnStartStartsOnlyTheVmsThatExistAtTheCall)
{
    Testbed::Config cfg;
    cfg.numCores = 4;
    cfg.mode = RunMode::SharedCore;
    Testbed bed(cfg);
    bed.createVm("early", 1);
    bed.spawnStart();
    VmInstance& late = bed.createVm("late", 1);
    bed.run(bed.sim().now()); // the start process runs
    EXPECT_TRUE(bed.started().isOpen());
    late.kvm->start(); // a VM added after spawnStart() is ours to start
    const auto threads = [&bed](const std::string& name) {
        int n = 0;
        for (const auto& p : bed.sim().processes())
            n += p->name() == name ? 1 : 0;
        return n;
    };
    EXPECT_EQ(threads("early/vcpu0-thread"), 1);
    EXPECT_EQ(threads("late/vcpu0-thread"), 1);
}
