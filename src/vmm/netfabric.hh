/**
 * @file
 * The network fabric: a latency/bandwidth model connecting NIC ports
 * (guest virtio backends, SR-IOV virtual functions, and the remote
 * client machine used by NetPIPE/Redis). Stands in for the paper's
 * 200 GbE IPU and switch (section 5.3).
 */

#ifndef CG_VMM_NETFABRIC_HH
#define CG_VMM_NETFABRIC_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace cg::sim {
class Simulation;
}

namespace cg::vmm {

using sim::Tick;

/** A network packet (sizes matter; contents are a cookie). */
struct Packet {
    std::uint64_t bytes = 0;
    int srcPort = -1;
    int dstPort = -1;
    std::uint64_t cookie = 0; ///< opaque, threaded through to receiver
};

class NetworkFabric
{
  public:
    struct Config {
        /** One-way wire + switch latency. */
        Tick latency = 5 * sim::usec;
        /** Link bandwidth in bytes/second (200 GbE = 25e9). */
        double bytesPerSec = 25e9;
    };

    using RxHandler = std::function<void(const Packet&)>;

    NetworkFabric(sim::Simulation& sim, Config cfg);

    /** Attach a port; @p rx is called on packet arrival. */
    int attach(RxHandler rx);

    /** Transmit; serialises on the source port's link. */
    void send(Packet pkt);

    std::uint64_t bytesDelivered() const { return bytes_; }

  private:
    struct Port {
        RxHandler rx;
        Tick txFreeAt = 0; ///< link serialisation
    };

    sim::Simulation& sim_;
    Config cfg_;
    std::vector<Port> ports_;
    std::uint64_t bytes_ = 0;
};

} // namespace cg::vmm

#endif // CG_VMM_NETFABRIC_HH
