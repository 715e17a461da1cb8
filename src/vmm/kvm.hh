/**
 * @file
 * The KVM + userspace-VMM model: thread-per-vCPU run loops, VM-exit
 * dispatch, MMIO emulation routing, virtual-GIC interrupt injection,
 * and (for confidential VMs) the RMI transport into the RMM.
 *
 * Two shared-core modes live here:
 *  - SharedCore: a normal non-confidential VM — the baseline the
 *    paper's evaluation compares against (section 5.1);
 *  - SharedCoreCvm: a confidential VM run the baseline CCA way, with a
 *    world switch + mitigation flush on every exit (the configuration
 *    the paper could not measure on real hardware; section 5.5 argues
 *    core gapping beats it — our EXPERIMENTS.md checks that claim).
 *
 * Every confidential VM is driven by one run loop (vcpuThreadCvm):
 * the RmiTransport picks how REC enter reaches the monitor — a
 * same-core SMC here, or the core-gapped cross-core run call that
 * core::GappedVm implements.
 */

#ifndef CG_VMM_KVM_HH
#define CG_VMM_KVM_HH

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "guest/vm.hh"
#include "host/kernel.hh"
#include "rmm/rmm.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "vmm/kick.hh"

namespace cg::vmm {

using sim::Proc;
using sim::Tick;

/** Execution mode for a VM's vCPUs. */
enum class VmMode {
    SharedCore,    ///< normal VM (non-confidential baseline)
    SharedCoreCvm, ///< confidential VM, baseline CCA (same-core RMM)
};

struct KvmConfig {
    VmMode mode = VmMode::SharedCore;
    host::SchedClass vcpuClass = host::SchedClass::Fair;
    host::CpuMask vcpuAffinity = host::CpuMask::all();
    std::size_t vcpuThreadFootprint = 96;
    /**
     * Intel-TDX-style address-space management (section 6.1): the
     * host manipulates the untrusted page-table levels directly and
     * only the final private-page acceptance goes through the
     * monitor, so stage-2 faults need fewer monitor calls than Arm
     * CCA, where every RTT update is an RMI.
     */
    bool tdxStylePageTables = false;
};

/** An emulated MMIO register range (backed by a userspace device). */
struct MmioRange {
    std::uint64_t base = 0;
    std::uint64_t size = 0;
    /** Write handler (e.g. a virtqueue kick doorbell). */
    std::function<void(const rmm::ExitInfo&)> onWrite;
    /** Read handler; returns the register value. */
    std::function<std::uint64_t(std::uint64_t addr, int len)> onRead;
};

class KvmVm;

/**
 * How host-side RMI calls reach the security monitor: a same-core SMC
 * (baseline CCA: world switch + mitigation flushes, > 12.8 us in
 * table 2) or a cross-core RPC (core-gapped: 257.7 ns for a short
 * call, 2757.6 ns for the asynchronous run call).
 */
class RmiTransport
{
  public:
    virtual ~RmiTransport() = default;

    /** Execute @p op on the monitor, charging transport costs. */
    virtual Proc<rmm::RmiStatus>
    call(std::function<rmm::RmiStatus()> op) = 0;

    /**
     * REC enter (the run call) for vCPU @p vcpu of @p vm, issued from
     * that vCPU's thread: enter the REC with @p args and return once
     * it exits, charging transport costs.
     */
    virtual Proc<rmm::RecRunResult> run(KvmVm& vm, int vcpu,
                                        rmm::RecEnterArgs args) = 0;
};

/**
 * Same-core SMC transport: EL3 round trip plus mitigation flushes.
 * Its run call executes the guest on the calling vCPU thread, and
 * samples the VM's host-side run-to-run latency.
 */
class LocalSmcTransport : public RmiTransport
{
  public:
    explicit LocalSmcTransport(hw::Machine& m) : machine_(m) {}

    Proc<rmm::RmiStatus>
    call(std::function<rmm::RmiStatus()> op) override;

    Proc<rmm::RecRunResult> run(KvmVm& vm, int vcpu,
                                rmm::RecEnterArgs args) override;

  private:
    hw::Machine& machine_;
    /** Per vCPU: when its last run call returned (0 = never). */
    std::vector<Tick> lastExit_;
};

struct KvmStats {
    sim::Counter exits;
    sim::Counter irqRelatedExits;
    sim::Counter mmioExits;
    sim::Counter wfiExits;
    sim::Counter pageFaultExits;
    sim::Counter injections;
    /** RMI calls re-issued after a transient Busy/Timeout status. */
    sim::Counter rmiRetries;
    /** RMI calls abandoned after maxRmiRetries transient failures. */
    sim::Counter rmiGiveUps;
    /** Time from a vCPU exit to its next (re-)entry. */
    sim::LatencyStat runToRun;
};

/**
 * One VM as the host manages it: vCPU threads, exit handling, device
 * routing. For confidential VMs, also the RMI client state.
 */
class KvmVm
{
  public:
    KvmVm(host::Kernel& kernel, guest::Vm& vm, KickBroker& kicks,
          KvmConfig cfg);
    ~KvmVm();

    host::Kernel& kernel() { return kernel_; }
    guest::Vm& guestVm() { return vm_; }
    const KvmConfig& config() const { return cfg_; }
    KvmStats& stats() { return stats_; }

    /** Register this VM's counters under "kvm.<vm name>." in @p reg. */
    void registerStats(sim::StatRegistry& reg);

    /**
     * Bind this VM to a realm (required for SharedCoreCvm). Use
     * createRealmFor() to build the realm through the RMI first.
     */
    void attachRealm(rmm::Rmm& rmm, int realm_id,
                     RmiTransport* transport = nullptr);

    rmm::Rmm* rmm() { return rmm_; }
    int realmId() const { return realmId_; }

    /** Toggle section 6.1's TDX-style address-space management. */
    void setTdxStylePageTables(bool on) { cfg_.tdxStylePageTables = on; }

    /** Register an emulated MMIO range. */
    void mapMmio(MmioRange range);

    /**
     * Queue a virtual interrupt for @p vcpu (virtual GIC / irqfd). If
     * the vCPU is in guest code it is kicked; if its runner thread is
     * blocked it is woken; injection happens at the next entry.
     */
    void queueInjection(int vcpu, hw::IntId virq);

    /**
     * Run the vCPU threads in scheduling class @p cls on @p affinity
     * (a core-gapped runner keeps them on its host cores).
     */
    void setVcpuPlacement(host::SchedClass cls, host::CpuMask affinity);

    /** Create and start the vCPU threads. */
    void start();

    /** The thread of vCPU @p vcpu (after start()). */
    host::Thread& vcpuThread(int vcpu)
    {
        return *threads_.at(static_cast<size_t>(vcpu));
    }

    /** Opens once every vCPU has taken a Shutdown exit. */
    sim::Gate& shutdownGate() { return shutdownGate_; }

    /** Kill the vCPU threads (teardown without guest shutdown). */
    void stop();

    /**
     * Replace the default vCPU-interruption path (KickBroker) — the
     * core-gapped runner targets the REC's dedicated core instead.
     */
    void setKickOverride(std::function<void(int vcpu)> fn);

    /** @{ The park gate of the confidential run loop: a parked vCPU
     * thread holds before building its next run call's arguments. */
    /** Ask vCPU @p vcpu to park; kicks it out of the guest. */
    void requestPark(int vcpu);
    /** Wait until it parked (or shut down): unbounded for @p deadline
     * 0, else false once @p deadline passes first. */
    Proc<bool> awaitPark(int vcpu, Tick deadline);
    /** Let a (requested or parked) vCPU run again. */
    void unpark(int vcpu);
    /** @} */

    /** @{ Transient-RMI retry policy. */
    /** Re-issues of one RMI call before giving up on it. */
    static constexpr int maxRmiRetries = 4;
    /** Backoff before the first re-issue; doubles per retry. */
    static constexpr Tick rmiRetryDelay = 2 * sim::usec;
    /** @} */

  private:
    struct Park {
        bool requested = false;
        bool parked = false;
        sim::Notify parkedNotify;
        sim::Gate resume;
    };

    Proc<void> vcpuThreadShared(int idx);
    /** The one REC-enter loop, whatever the transport. */
    Proc<void> vcpuThreadCvm(int idx);

    /**
     * Apply the host-side effect of exit @p e for @p vcpu and charge
     * KVM costs. MMIO read results and future injections are left in
     * the per-vCPU queues that the next entry consumes.
     */
    Proc<void> applyExit(int vcpu, rmm::ExitInfo e);
    /** Block until the vCPU is worth re-entering (WFI semantics). */
    Proc<void> waitRunnable(int vcpu);
    /** Drain queued injections for args/LR installation. */
    std::vector<hw::IntId> drainInjections(int vcpu);
    Proc<void> handleMmio(int idx, rmm::ExitInfo e);
    Proc<void> cvmMapPage(std::uint64_t ipa);

    /**
     * Issue an RMI through the transport with transient-failure
     * handling: Busy and Timeout statuses are retried with
     * exponential backoff up to maxRmiRetries times (both mean the
     * operation did not run, so a re-issue is safe), then surfaced to
     * the caller. Fault injection (RmiTransientError) produces the
     * Busy responses in testing.
     */
    Proc<rmm::RmiStatus> rmiCall(std::function<rmm::RmiStatus()> op);
    MmioRange* findMmio(std::uint64_t addr);
    void onVcpuShutdown();
    Tick cost(Tick nominal);

    host::Kernel& kernel_;
    guest::Vm& vm_;
    KickBroker& kicks_;
    KvmConfig cfg_;
    rmm::Rmm* rmm_ = nullptr;
    int realmId_ = -1;
    RmiTransport* transport_ = nullptr;
    std::unique_ptr<LocalSmcTransport> ownedTransport_;
    std::vector<MmioRange> mmio_;
    std::vector<std::deque<hw::IntId>> injQueue_;
    std::vector<std::optional<std::uint64_t>> mmioResp_;
    std::vector<host::Thread*> threads_;
    std::vector<std::unique_ptr<Park>> parks_;
    std::function<void(int)> kickOverride_;
    sim::Gate shutdownGate_;
    int aliveVcpus_ = 0;
    std::uint64_t nextGranule_;
    KvmStats stats_;
    sim::StatGroup statGroup_;
};

/**
 * Build a realm for @p vm through the RMI: delegate granules, create
 * the realm and one REC per vCPU, populate initial data (measured),
 * attach guest contexts, and activate.
 * @return the realm id.
 */
int createRealmFor(rmm::Rmm& rmm, guest::Vm& vm);

} // namespace cg::vmm

#endif // CG_VMM_KVM_HH
