/**
 * @file
 * The core-gapped confidential VM runner — the paper's primary
 * contribution assembled: dedicated cores taken from the host via
 * hotplug and handed to the security monitor, and the cross-core RMI
 * transport that KvmVm's run loop drives: vCPU run calls as
 * asynchronous cross-core RPCs with IPI-notified wake-up (fig. 4),
 * short RMM calls as busy-wait synchronous RPCs, and a kick path that
 * targets the REC's bound core.
 *
 * The Quarantine-style ablation (busyWaitRun) replaces the blocking
 * run call with yield-polling, reproducing the scalability collapse of
 * fig. 6's "busy waiting" lines.
 */

#ifndef CG_CORE_GAPPED_VM_HH
#define CG_CORE_GAPPED_VM_HH

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/doorbell.hh"
#include "core/rpc.hh"
#include "vmm/kvm.hh"

namespace cg::core {

class CorePlanner;

struct GappedVmConfig {
    /** Dedicated guest cores, one per vCPU (from the CorePlanner). */
    std::vector<sim::CoreId> guestCores;
    /** Host cores for the vCPU threads, wake-up thread, and VMM. */
    host::CpuMask hostCores = host::CpuMask::single(0);
    /** Quarantine-style yield-polling instead of blocking run calls. */
    bool busyWaitRun = false;
    /**
     * Adaptive spin-then-sleep in the wake-up thread: before blocking
     * on the doorbell, spin up to this long polling for it. The spin
     * budget doubles after a hit (the doorbell arrived while spinning
     * — the workload is in a request burst, stay hot) and halves
     * after a miss, so idle VMs decay back to pure blocking. 0
     * disables the spin entirely; runs with 0 are byte-identical to
     * builds without this knob.
     */
    sim::Tick wakeSpinMax = 0;
    /**
     * The planner that reserved guestCores, if any. The runner then
     * owns the reservations' release: exactly once, on entering
     * Stopped, with cores lost to hotplug failures quarantined (kept
     * reserved) so they are never handed out again (I7). A rebind
     * moves the reservation to the new core.
     */
    CorePlanner* planner = nullptr;
};

class GappedVm : public vmm::RmiTransport
{
  public:
    /**
     * @p kvm must be a SharedCoreCvm-mode KvmVm with a realm attached
     * via createRealmFor(); this runner becomes its RMI transport and
     * kick path, and pins its vCPU threads to the host cores.
     */
    GappedVm(vmm::KvmVm& kvm, ExitDoorbell& doorbell,
             GappedVmConfig cfg);
    ~GappedVm() override;

    /** @{ vmm::RmiTransport: short calls by synchronous RPC, REC
     * enter by the asynchronous run call (fig. 4). */
    sim::Proc<rmm::RmiStatus>
    call(std::function<rmm::RmiStatus()> op) override;
    sim::Proc<rmm::RecRunResult> run(vmm::KvmVm& vm, int vcpu,
                                     rmm::RecEnterArgs args) override;
    /** @} */

    /** The runner's lifecycle (DESIGN.md section 12). An entry point
     * called in a transitional state (Starting, Migrating: a migration
     * or rebind in flight, Stopping) waits until it settles, then
     * follows the transition table. Stopped is final. */
    enum class Lifecycle {
        Created, Starting, Running, Suspended, Migrating, Stopping, Stopped
    };

    /**
     * Bring the CVM up: offline the dedicated cores (hotplug), hand
     * them to the monitor, and start the host-side threads (the
     * wake-up thread, then KvmVm's vCPU threads). Await from
     * a process not running on the dedicated cores.
     * Created -> Starting -> Running; any other state is a
     * programming error (asserts).
     * @return false if a dedicated core could not be offlined (after
     * one retry): every core taken so far is handed back, planner
     * reservations are released, and the VM ends Stopped.
     */
    sim::Proc<bool> start();

    /**
     * After guest shutdown: destroy RECs (releasing the core binding),
     * scrub the dedicated cores of guest residue, stop monitor loops,
     * and hotplug the cores back online. Running or Suspended ->
     * Stopping -> Stopped; Created -> Stopped (only the planner
     * reservations are released); a no-op once Stopped.
     */
    sim::Proc<void> teardown();

    /**
     * Host-initiated termination of a possibly-running CVM (the
     * "terminated by the host" case of section 4.2): force every vCPU
     * out of guest execution, stop its run loop, then tear down. The
     * guest gets no say; its state is scrubbed before the cores return
     * to the host. Same transitions as teardown().
     */
    sim::Proc<void> terminate();

    sim::Gate& shutdownGate() { return kvm_.shutdownGate(); }
    SyncRpcQueue& syncRpc() { return syncRpc_; }

    /**
     * Move a vCPU to a fresh dedicated core at runtime (the paper's
     * deferred coarse-timescale rebinding, section 3): park the vCPU
     * thread after its next exit, retire the old monitor loop,
     * dedicate @p new_core via hotplug, have the monitor rebind (and
     * scrub the old core), then resume on the new placement and hand
     * the old core back to the host. Running -> Migrating -> Running.
     * @return false untouched in any other settled state or if
     * @p new_core is out of range, in this VM's pool, planner-reserved
     * or offline; false after rollback if hotplug or the monitor
     * refused.
     */
    sim::Proc<bool> rebindVcpu(int idx, sim::CoreId new_core);

    /** Current dedicated core of a vCPU. */
    sim::CoreId coreOf(int idx) const
    {
        return cfg_.guestCores.at(static_cast<size_t>(idx));
    }

    /**
     * Direct interrupt delivery (section 5.3's anticipated extension):
     * route physical interrupt @p spi to @p vcpu_idx's dedicated core
     * and have the monitor inject @p virq there without any VM exit.
     * Routes follow the vCPU across rebinds.
     */
    void mapDirectIrq(hw::IntId spi, hw::IntId virq, int vcpu_idx);

    /** Virtual interrupts delivered directly by the monitor (stat). */
    std::uint64_t directInjections() const
    {
        return directInjections_.value();
    }

    /** Register this runner's stats under "gapped.<vm>." in @p reg. */
    void registerStats(sim::StatRegistry& reg);

    /**
     * Host-initiated suspend (section 7 lists it among the VM
     * lifecycle operations core gapping keeps, unlike Core Slicing):
     * every vCPU is forced out of guest execution and its run loop is
     * parked. The cores stay dedicated; guest state stays in place.
     *
     * With a nonzero @p deadline the wait per vCPU is bounded: if a
     * run loop fails to park in time (a hung monitor never publishes
     * the exit), every park is rolled back and false is returned —
     * the VM keeps running and the caller escalates (terminate()).
     * The migration controller parks this way (parkAll), since it
     * must never wedge on a fault. With 0 the wait is unbounded and
     * schedules no timer.
     *
     * Running -> Suspended; false in any other settled state.
     */
    sim::Proc<bool> suspend(sim::Tick deadline = 0);

    /** Resume a suspended VM: run loops repost their run calls.
     * Suspended -> Running; any other state asserts. */
    void resume();

    bool suspended() const { return state_ == Lifecycle::Suspended; }

    const GappedVmConfig& config() const { return cfg_; }

    /** Rebind retries after a rate-limit refusal (satellite: refused
     * rebinds are backed off and retried, not dropped). */
    std::uint64_t rebindRetries() const { return rebindRetries_.value(); }

    /** Monitor-side run-to-run latency (exit to next run call). */
    sim::LatencyStat& runToRun() { return runToRun_; }

    /** Host-side async run-call round trip (post to response taken). */
    sim::LatencyStat& runCallRtt() { return runCallRtt_; }

    /** @{ Adaptive-spin outcome counts (wakeSpinMax > 0 only). */
    std::uint64_t wakeSpinHits() const { return wakeSpinHits_.value(); }
    std::uint64_t wakeSpinSleeps() const
    {
        return wakeSpinSleeps_.value();
    }
    /** @} */

    /** Hung monitor loops reclaimed by terminate(). */
    std::uint64_t hangReclaims() const { return hangReclaims_.value(); }

    /** Cores lost to double hotplug failures (quarantined). */
    std::uint64_t coresLost() const { return coresLost_.value(); }

    /** Skipped scrubs caught and redone by verifyScrubs audits. */
    std::uint64_t scrubRepairs() const { return scrubRepairs_.value(); }

    /** @{ Recovery policy (effective only with faults armed). */
    /** Wake-up thread watchdog sweep period (lost-doorbell rescue). */
    static constexpr sim::Tick watchdogPeriod = 250 * sim::usec;
    /** terminate() wait per vCPU before declaring the monitor hung. */
    static constexpr sim::Tick parkDeadline = 3 * sim::msec;
    /** Rate-limited rebinds are retried at most this many times. */
    static constexpr int maxRebindRetries = 3;
    /** @} */

  private:
    /** Drives migrations through this runner's lifecycle helpers
     * below; see core/migration.hh. */
    friend class MigrationController;

    sim::Proc<void> monitorCoreLoop(int idx, sim::CoreId core,
                                    std::uint64_t gen);
    sim::Proc<void> wakeupThreadBody();

    /** @{ The lifecycle state machine. */
    /** The transition table's rows. Move is rebindVcpu() and
     * migrateTo(); Stop is teardown() and terminate(). */
    enum class Op { Start, Suspend, Resume, Move, Stop };
    /** The state @p op moves a VM in @p s to; nullopt = refused. */
    static std::optional<Lifecycle> next(Op op, Lifecycle s);
    /** Wait out a transitional state, then next(@p op, settled). */
    sim::Proc<std::optional<Lifecycle>> settle(Op op);
    /** Move to @p s and wake every settle(). Entering Stopped (final,
     * so once) releases the planner reservations. */
    void enter(Lifecycle s);
    /** teardown()'s work: Stopping -> Stopped. */
    sim::Proc<void> reclaimCores();
    /** @} */

    /** Why @p dest cannot take this VM's vCPUs (nullptr: every core is
     * in range, not ours, not reserved by @p planner, and online). */
    const char* destinationRefusal(const std::vector<sim::CoreId>& dest,
                                   const CorePlanner* planner) const;

    /** @{ The dedicated-core lifecycle (section 4.2), shared by
     * start/teardown/terminate/suspend/rebind and migration. */
    /** Hotplug @p core out (one retry) and hand it to the monitor in
     * realm world; false = it refused to offline. */
    sim::Proc<bool> dedicateCore(sim::CoreId core);
    /** Switch a scrubbed @p core to normal world and online it (one
     * retry); false = core lost (quarantined). */
    sim::Proc<bool> returnCore(sim::CoreId core);
    /** Start vCPU @p idx's monitor loop on its current core. */
    void spawnMonitor(int idx);
    /** Retire and join the monitor loops of vCPUs [first, last). */
    sim::Proc<void> retireMonitors(int first, int last);
    /** Point every direct-delivery SPI at its vCPU's current core. */
    void routeDirectIrqs();
    /** Kill the vCPU threads, then the wake-up thread. */
    void killHostThreads();
    /** KvmVm's park gate, for every vCPU. */
    void requestParkAll();
    void unparkAll();
    /** Park every vCPU run loop (each wait bounded by a nonzero
     * @p deadline); on a miss roll every park back, return false. */
    sim::Proc<bool> parkAll(sim::Tick deadline);
    /** Release @p cores to @p planner (if any), minus lost cores. */
    void releaseCores(CorePlanner* planner,
                      const std::vector<sim::CoreId>& cores) const;
    /** @} */

    bool isLostCore(sim::CoreId c) const;

    vmm::KvmVm& kvm_;
    rmm::Rmm& rmm_;
    int realm_;
    ExitDoorbell& doorbell_;
    GappedVmConfig cfg_;
    sim::Notify monitorWork_;
    SyncRpcQueue syncRpc_;
    std::vector<std::unique_ptr<RunSlot>> slots_;
    host::Thread* wakeupThread_ = nullptr;
    sim::Notify wakeupNotify_;
    bool doorbellPending_ = false;
    std::uint64_t doorbellSub_ = 0;
    std::vector<sim::Process*> monitorProcs_;
    std::vector<std::uint64_t> monGen_;
    Lifecycle state_ = Lifecycle::Created;
    /** Fired on every transition; settle() waits on it. */
    sim::Notify settled_;
    sim::CoreId doorbellTarget_ = 0;
    sim::LatencyStat runToRun_;
    sim::LatencyStat runCallRtt_;
    sim::LatencyStat wakeLatency_; ///< response visible -> vCPU woken
    sim::Counter wakeSpinHits_;
    sim::Counter wakeSpinSleeps_;
    /** Current adaptive spin budget (0 until first doorbell wait). */
    sim::Tick wakeSpinBudget_ = 0;
    /** spi -> (vcpu index, virq) for direct delivery. */
    std::map<hw::IntId, std::pair<int, hw::IntId>> directIrqs_;
    sim::Counter directInjections_;
    sim::StatGroup statGroup_;
    /** A hung monitor loop blocks here forever (fault injection). */
    sim::Notify hangNotify_;
    /** Armed watchdog timer of the wake-up thread (see destructor). */
    sim::EventId watchdogEvent_ = sim::invalidEventId;
    /** A rering went out; the next delivery confirms the recovery. */
    bool reringOutstanding_ = false;
    std::vector<sim::CoreId> lostCores_;
    sim::Counter hangReclaims_;
    sim::Counter coresLost_;
    sim::Counter hotplugRetries_;
    sim::Counter rebindRetries_;
    /** Skipped scrubs caught and re-flushed (verifyScrubs). */
    sim::Counter scrubRepairs_;
};

} // namespace cg::core

#endif // CG_CORE_GAPPED_VM_HH
