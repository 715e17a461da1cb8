/**
 * @file
 * An NVMe-class block device model: fixed access latency plus
 * bandwidth-limited transfer, serialised on the device. Backs the
 * virtio-blk emulation for IOzone (fig. 9) and the kernel-build
 * workload (fig. 10).
 */

#ifndef CG_VMM_DISK_HH
#define CG_VMM_DISK_HH

#include <cstdint>

#include "sim/proc.hh"
#include "sim/types.hh"

namespace cg::sim {
class Simulation;
}

namespace cg::vmm {

using sim::Tick;

class Disk
{
  public:
    struct Config {
        Tick readLatency = 75 * sim::usec;
        Tick writeLatency = 25 * sim::usec; // write cache absorbs
        double bytesPerSec = 2.8e9;
    };

    Disk(sim::Simulation& sim, Config cfg);

    /** Perform an I/O; completes after queueing + latency + transfer. */
    sim::Proc<void> io(std::uint64_t bytes, bool write);

    std::uint64_t opsCompleted() const { return ops_; }

  private:
    sim::Simulation& sim_;
    Config cfg_;
    Tick busyUntil_ = 0;
    std::uint64_t ops_ = 0;
};

} // namespace cg::vmm

#endif // CG_VMM_DISK_HH
