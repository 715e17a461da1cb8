/**
 * @file
 * The guest vCPU model.
 *
 * A VCpu executes guest software — workload coroutines spawned with
 * startGuest() — but only while it is *entered* on a physical core by a
 * runner (the RMM for confidential VMs, KVM directly for normal VMs).
 * The VCpu is both:
 *
 *  - a rmm::GuestContext: runUntilExit()/injectVirq()/forceExit(), the
 *    interface runners drive; and
 *  - a sim::Dispatcher for its guest processes: their Compute time
 *    advances only while entered, pausing across VM exits.
 *
 * Guest-visible events are modelled faithfully enough to reproduce the
 * paper's exit accounting (table 4): each virtual-timer tick costs an
 * interrupt exit plus a trapped timer reprogram (two exits without
 * delegation, zero with); sending a virtual IPI traps on the ICC_SGI1R
 * write; MMIO accesses trap for device emulation.
 */

#ifndef CG_GUEST_VCPU_HH
#define CG_GUEST_VCPU_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "host/kernel.hh"
#include "hw/machine.hh"
#include "hw/timer.hh"
#include "rmm/guest_context.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"

namespace cg::guest {

using rmm::ExitInfo;
using rmm::ExitReason;
using sim::CoreId;
using sim::Proc;
using sim::Tick;

class Vm;

class VCpu : public rmm::GuestContext,
             public host::GuestExecutor,
             public sim::Dispatcher
{
  public:
    VCpu(Vm& vm, int index);
    ~VCpu() override;

    Vm& vm() { return vm_; }
    int index() const { return index_; }
    sim::DomainId domain() const;
    const std::string& name() const { return name_; }

    /** @{ rmm::GuestContext — the runner-facing interface. */
    Proc<ExitInfo> runUntilExit(CoreId core) override;
    bool injectVirq(hw::IntId vintid) override;
    void forceExit(ExitReason reason) override;
    void completeMmio(std::uint64_t data) override;
    void completeAttest(const rmm::AttestationToken& token) override;
    bool entered() const override { return entered_; }
    hw::ListRegFile& listRegs() override { return lrs_; }
    /** @} */

    /** @{ host::GuestExecutor — the scheduler-coupled interface. */
    void enterOn(CoreId core) override;
    void pause() override;
    bool exitReady() const override { return !pendingEvents_.empty(); }
    void setExitReadyHook(std::function<void()> fn) override;
    void setAbandonHook(std::function<void()> fn) override;
    sim::DomainId executorDomain() const override { return domain(); }
    bool confidential() const override;
    /** @} */

    /** Pop the oldest pending exit (requires exitReady()). */
    ExitInfo takeExit();

    /** Core this vCPU is currently entered on (invalidCore if not). */
    CoreId currentCore() const { return curCore_; }

    /**
     * Block the runner until the vCPU has a pending exit-worthy event
     * (used by runners after a WFI exit, instead of spinning).
     */
    Proc<void> waitForEvent();

    /** True if an exit-worthy event is already queued. */
    bool hasPendingEvent() const { return !pendingEvents_.empty(); }

    /** A guest process is runnable (re-entering would make progress). */
    bool
    hasRunnableGuestWork() const
    {
        return currentProc_ != nullptr || !readyQueue_.empty();
    }

    /**
     * Notified whenever this vCPU becomes worth re-entering; external
     * producers (e.g. KVM's injection queue) may poke it too.
     */
    sim::Notify& runnerNotify() { return hostWait_; }

    /** @{ Guest-code API (use from processes started via startGuest). */
    /** Spawn a guest process whose CPU time this vCPU dispatches. */
    sim::Process& startGuest(std::string name, Proc<void> body);

    /** Access emulated MMIO: traps to the host for device emulation. */
    Proc<void> mmioWrite(std::uint64_t addr, std::uint64_t data, int len);
    Proc<std::uint64_t> mmioRead(std::uint64_t addr, int len);

    /** WFI: wait until a virtual interrupt is delivered. */
    Proc<void> idle();

    /** Send a virtual IPI to another vCPU of this VM (ICC_SGI1R). */
    Proc<void> sendVIpi(int target_vcpu);

    /** Take a stage-2 fault at @p ipa (first touch of new memory). */
    Proc<void> pageFault(std::uint64_t ipa);

    /** Issue a hypercall (a null exit to the host; benchmarks use it
     * to measure the bare run-call path of table 2). */
    Proc<void> hypercall(std::uint64_t code);

    /**
     * RSI_ATTESTATION_TOKEN: request an attestation token from the
     * monitor (confidential VMs only). Serviced inside the monitor;
     * the host never observes the call.
     */
    Proc<rmm::AttestationToken> rsiAttest(std::uint64_t challenge);

    /** PSCI SYSTEM_OFF: the vCPU stops after this exit. */
    Proc<void> shutdown();
    /** @} */

    /**
     * Register the guest driver handler for a virtual interrupt.
     * Handler logic runs when the interrupt is handled by the guest;
     * its CPU cost is charged to the guest automatically.
     */
    void setVirqHandler(hw::IntId vintid, std::function<void()> fn);

    /**
     * Configure the guest kernel periodic tick (0 disables). Each tick
     * fires the virtual timer, and the handler reprograms it through a
     * trapped register write.
     */
    void setTickPeriod(Tick period);
    Tick tickPeriod() const { return tickPeriod_; }

    /** @{ sim::Dispatcher for guest processes. */
    void compute(sim::Process& p, Tick amount) override;
    void blocked(sim::Process& p) override;
    void wake(sim::Process& p) override;
    void detach(sim::Process& p) override;
    /** @} */

    /** @{ Statistics. */
    sim::Counter ticksHandled;
    sim::Counter virqsHandled;
    sim::Counter exitsGenerated;
    /** Accumulated guest CPU time actually executed. */
    Tick guestCpuTime = 0;
    /** @} */

  private:
    struct GuestProcState {
        bool ready = false;
        Tick remaining = 0;
        bool wantsCpu = false;
    };

    hw::Machine& machine();
    void pushEvent(ExitInfo info);
    void maybeIdle();
    void onIdleCheck();
    void onVTimerFire();
    void handlePendingVirqs();
    void handleVirq(hw::IntId vintid);
    void stealGuestCpu(Tick t);
    void pauseExecution();
    void resumeExecution();
    void scheduleGuestRun();
    void onGuestRunEvent();
    GuestProcState& stateOf(sim::Process& p);
    void pickNextGuestProc();
    Proc<void> trapAndWait(ExitInfo info);

    Vm& vm_;
    int index_;
    std::string name_;

    // Entry state.
    bool entered_ = false;
    CoreId curCore_ = sim::invalidCore;
    bool stopped_ = false;
    /** A guest instruction is stalled at a trap: nothing else runs. */
    bool stalled_ = false;

    // Exit-worthy events and runner signalling.
    std::deque<ExitInfo> pendingEvents_;
    sim::Notify exitNotify_;  ///< wakes an active runUntilExit
    sim::Notify hostWait_;    ///< wakes waitForEvent()
    std::function<void()> exitReadyHook_;
    std::function<void()> abandonHook_;
    sim::Notify trapResume_;  ///< releases a guest proc stopped at a trap
    std::optional<std::uint64_t> mmioData_;
    std::optional<rmm::AttestationToken> attestResult_;

    // Virtual interrupt state.
    hw::ListRegFile lrs_;
    std::map<hw::IntId, std::function<void()>> virqHandlers_;
    sim::Notify idleNotify_; ///< wakes a guest proc waiting in idle()

    // Virtual timer / guest tick.
    std::unique_ptr<hw::Timer> vtimer_;
    Tick tickPeriod_ = 0;

    /** The guest idle loop executed WFI and nothing woke it since. */
    bool idleReported_ = false;
    sim::EventId idleCheckEvent_ = sim::invalidEventId;

    // Guest process dispatching.
    std::vector<sim::Process*> guestProcs_;
    /** Keyed by Process::serial(): spawn order is replay-stable,
     * pointer order is not (det-pointer-key). */
    std::map<std::uint64_t, GuestProcState> procState_;
    sim::Process* currentProc_ = nullptr;
    std::deque<sim::Process*> readyQueue_;
    sim::EventId guestRunEvent_ = sim::invalidEventId;
    Tick chargeStart_ = 0;
    Tick pendingSteal_ = 0;
};

} // namespace cg::guest

#endif // CG_GUEST_VCPU_HH
