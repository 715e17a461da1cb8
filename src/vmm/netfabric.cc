#include "vmm/netfabric.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace cg::vmm {

NetworkFabric::NetworkFabric(sim::Simulation& sim, Config cfg)
    : sim_(sim), cfg_(cfg)
{
    CG_ASSERT(cfg_.bytesPerSec > 0, "fabric needs positive bandwidth");
}

int
NetworkFabric::attach(RxHandler rx)
{
    ports_.push_back(Port{std::move(rx), 0});
    return static_cast<int>(ports_.size()) - 1;
}

void
NetworkFabric::send(Packet pkt)
{
    CG_ASSERT(pkt.srcPort >= 0 &&
                  pkt.srcPort < static_cast<int>(ports_.size()),
              "bad source port %d", pkt.srcPort);
    CG_ASSERT(pkt.dstPort >= 0 &&
                  pkt.dstPort < static_cast<int>(ports_.size()),
              "bad destination port %d", pkt.dstPort);
    Port& src = ports_[static_cast<size_t>(pkt.srcPort)];
    const Tick now = sim_.now();
    const Tick ser = static_cast<Tick>(
        static_cast<double>(pkt.bytes) / cfg_.bytesPerSec * 1e12);
    const Tick tx_start = std::max(now, src.txFreeAt);
    src.txFreeAt = tx_start + ser;
    const Tick arrive =
        src.txFreeAt + sim_.rng().jittered(cfg_.latency, 0.05);
    sim_.queue().schedule(arrive, [this, pkt] {
        bytes_ += pkt.bytes;
        Port& dst = ports_[static_cast<size_t>(pkt.dstPort)];
        if (dst.rx)
            dst.rx(pkt);
    });
}

} // namespace cg::vmm
