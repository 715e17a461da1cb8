#include "vmm/disk.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace cg::vmm {

Disk::Disk(sim::Simulation& sim, Config cfg) : sim_(sim), cfg_(cfg)
{
    CG_ASSERT(cfg_.bytesPerSec > 0, "disk needs positive bandwidth");
}

sim::Proc<void>
Disk::io(std::uint64_t bytes, bool write)
{
    const Tick now = sim_.now();
    const Tick latency = sim_.rng().jittered(
        write ? cfg_.writeLatency : cfg_.readLatency, 0.1);
    const Tick transfer = static_cast<Tick>(
        static_cast<double>(bytes) / cfg_.bytesPerSec * 1e12);
    const Tick start = std::max(now, busyUntil_);
    // The device pipelines access latency but serialises transfers.
    busyUntil_ = start + transfer;
    const Tick done = start + latency + transfer;
    ++ops_;
    co_await sim::Delay{done - now};
}

} // namespace cg::vmm
