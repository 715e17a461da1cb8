/**
 * @file
 * A guest virtual machine: a set of vCPUs sharing a security domain,
 * working-set footprint, and guest-kernel configuration. The Vm object
 * is the guest *software* model; whether it runs as a confidential
 * realm VM or a normal shared-core VM is decided by the runner that
 * drives its vCPUs (src/vmm and src/core).
 */

#ifndef CG_GUEST_VM_HH
#define CG_GUEST_VM_HH

#include <memory>
#include <string>
#include <vector>

#include "guest/vcpu.hh"
#include "hw/machine.hh"
#include "sim/stat_registry.hh"

namespace cg::guest {

struct VmConfig {
    std::string name = "vm";
    int numVcpus = 1;
    /** Guest kernel tick: Linux arm64 defaults to 250 Hz. */
    Tick tickPeriod = 4 * sim::msec;
    /** Per-vCPU working set, in cache lines (for warm-up accounting). */
    std::size_t footprint = 768;
};

class Vm
{
  public:
    Vm(hw::Machine& machine, VmConfig cfg, sim::DomainId domain);

    hw::Machine& machine() { return machine_; }
    const VmConfig& config() const { return cfg_; }
    sim::DomainId domain() const { return domain_; }
    const std::string& name() const { return cfg_.name; }

    int numVcpus() const { return static_cast<int>(vcpus_.size()); }
    VCpu& vcpu(int i) { return *vcpus_.at(static_cast<size_t>(i)); }

    /** Marked when the VM is bound to a realm (by createRealmFor). */
    bool confidential() const { return confidential_; }
    void setConfidential(bool c) { confidential_ = c; }

    /** Register per-vCPU stats under "guest.<name>.vcpuN." in @p reg. */
    void registerStats(sim::StatRegistry& reg);

  private:
    hw::Machine& machine_;
    VmConfig cfg_;
    sim::DomainId domain_;
    bool confidential_ = false;
    std::vector<std::unique_ptr<VCpu>> vcpus_;
    sim::StatGroup statGroup_;
};

} // namespace cg::guest

#endif // CG_GUEST_VM_HH
