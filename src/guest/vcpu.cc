#include "guest/vcpu.hh"

#include <algorithm>

#include "guest/vm.hh"
#include "sim/simulation.hh"

namespace cg::guest {

using sim::Process;

VCpu::VCpu(Vm& vm, int index)
    : vm_(vm),
      index_(index),
      name_(sim::strFormat("%s/vcpu%d", vm.name().c_str(), index))
{
    vtimer_ = std::make_unique<hw::Timer>(machine().sim(),
                                          [this] { onVTimerFire(); });
}

VCpu::~VCpu()
{
    // A host thread may be mid-runGuest on us: tell its kernel to drop
    // the reference before our state goes away.
    if (abandonHook_)
        abandonHook_();
    // Guest processes reference this dispatcher; they must not outlive
    // it. Kill them now (idempotent for finished processes).
    std::vector<Process*> procs = guestProcs_;
    for (Process* p : procs)
        p->kill();
}

hw::Machine&
VCpu::machine()
{
    return vm_.machine();
}

sim::DomainId
VCpu::domain() const
{
    return vm_.domain();
}

bool
VCpu::confidential() const
{
    return vm_.confidential();
}

// ----------------------------------------------------------------- runner

void
VCpu::enterOn(CoreId core)
{
    CG_ASSERT(!entered_, "vCPU %s entered twice", name_.c_str());
    entered_ = true;
    curCore_ = core;
    if (stopped_)
        return;

    // Cold microarchitectural state: the guest pays to refill whatever
    // other domains evicted from this core since it last ran here,
    // charged as a delay before its next instruction completes.
    hw::Core& hw_core = machine().core(core);
    // Record who is executing so a probe on this core has a correct
    // observer identity (shared modes enter guests without the RMM).
    hw_core.setOccupant(domain());
    stealGuestCpu(
        hw_core.uarch().warmupCost(domain(), vm_.config().footprint));
    hw_core.uarch().run(domain(), vm_.config().footprint);
    // Shared structures fill too: the LLC holds a multiple of the
    // per-core working set, and instructions like RDRAND leave residue
    // in the cross-core staging buffer (the CrossTalk channel).
    machine().shared().llc.touch(domain(), vm_.config().footprint * 4);
    machine().shared().stagingBuffer.touch(domain(), 4);

    // A guest instruction stalled at a trap retires now.
    if (trapResume_.notifyOne())
        stalled_ = false;
    // Deliver interrupts injected while we were exited.
    handlePendingVirqs();
    resumeExecution();
}

void
VCpu::pause()
{
    CG_ASSERT(entered_, "pausing vCPU %s while exited", name_.c_str());
    pauseExecution();
    entered_ = false;
    curCore_ = sim::invalidCore;
}

void
VCpu::setExitReadyHook(std::function<void()> fn)
{
    exitReadyHook_ = std::move(fn);
}

void
VCpu::setAbandonHook(std::function<void()> fn)
{
    abandonHook_ = std::move(fn);
}

ExitInfo
VCpu::takeExit()
{
    CG_ASSERT(!pendingEvents_.empty(), "takeExit on %s with no exit",
              name_.c_str());
    ExitInfo exit = pendingEvents_.front();
    pendingEvents_.pop_front();
    exitsGenerated.inc();
    return exit;
}

Proc<ExitInfo>
VCpu::runUntilExit(CoreId core)
{
    if (stopped_ && pendingEvents_.empty()) {
        ExitInfo off;
        off.reason = ExitReason::Shutdown;
        co_return off;
    }
    enterOn(core);
    while (pendingEvents_.empty())
        co_await exitNotify_.wait();
    pause();
    co_return takeExit();
}

bool
VCpu::injectVirq(hw::IntId vintid)
{
    if (!lrs_.inject(vintid))
        return false;
    if (entered_)
        handlePendingVirqs();
    else
        hostWait_.notifyAll(); // a blocked runner should re-enter
    return true;
}

void
VCpu::forceExit(ExitReason reason)
{
    ExitInfo info;
    info.reason = reason;
    pushEvent(info);
}

void
VCpu::completeMmio(std::uint64_t data)
{
    mmioData_ = data;
}

void
VCpu::completeAttest(const rmm::AttestationToken& token)
{
    attestResult_ = token;
}

Proc<void>
VCpu::waitForEvent()
{
    while (pendingEvents_.empty())
        co_await hostWait_.wait();
}

void
VCpu::maybeIdle()
{
    // A guest with no runnable work executes its idle loop and ends up
    // in WFI. Detect that a little after the last activity so
    // transient gaps (deferred interrupt handlers, trap retirement)
    // don't produce spurious WFIs.
    if (idleReported_ || stopped_ ||
        idleCheckEvent_ != sim::invalidEventId) {
        return;
    }
    idleCheckEvent_ = machine().sim().queue().scheduleIn(
        2 * sim::usec, [this] { onIdleCheck(); });
}

void
VCpu::onIdleCheck()
{
    idleCheckEvent_ = sim::invalidEventId;
    if (stopped_ || idleReported_ || stalled_ || currentProc_ ||
        !readyQueue_.empty() || !pendingEvents_.empty()) {
        return;
    }
    idleReported_ = true;
    ExitInfo info;
    info.reason = ExitReason::Wfi;
    pushEvent(info);
}

void
VCpu::pushEvent(ExitInfo info)
{
    pendingEvents_.push_back(info);
    if (entered_)
        exitNotify_.notifyAll();
    else
        hostWait_.notifyAll();
    if (exitReadyHook_)
        exitReadyHook_();
}

// ------------------------------------------------------- virtual interrupts

void
VCpu::setVirqHandler(hw::IntId vintid, std::function<void()> fn)
{
    virqHandlers_[vintid] = std::move(fn);
}

void
VCpu::setTickPeriod(Tick period)
{
    tickPeriod_ = period;
    if (period > 0)
        vtimer_->armIn(period);
    else
        vtimer_->disarm();
}

void
VCpu::onVTimerFire()
{
    if (stopped_)
        return;
    // The guest's virtual timer condition is met: the hardware raises
    // it as a physical interrupt that the monitor intercepts.
    ExitInfo info;
    info.reason = ExitReason::TimerIrq;
    pushEvent(info);
}

void
VCpu::handlePendingVirqs()
{
    for (int i = 0; i < hw::ListRegFile::numRegs; ++i) {
        hw::ListReg& lr = lrs_.reg(i);
        if (lr.state == hw::ListReg::State::Pending ||
            lr.state == hw::ListReg::State::PendingActive) {
            const hw::IntId id = lr.vintid;
            lr = hw::ListReg{}; // guest acks and EOIs
            handleVirq(id);
        }
    }
}

void
VCpu::handleVirq(hw::IntId vintid)
{
    virqsHandled.inc();
    idleReported_ = false;
    // The handler's CPU time both delays the interrupted guest code
    // (steal) and gates the handler's own side effects.
    const Tick cost =
        machine().cost(machine().costs().guestIrqHandler);
    stealGuestCpu(cost);
    machine().sim().queue().scheduleIn(cost, [this, vintid] {
        if (stopped_)
            return;
        if (vintid == hw::vtimerPpi) {
            ticksHandled.inc();
            // The tick handler reprograms CNTV_CVAL: a trapped register
            // write (the second exit of the pair in section 4.4).
            if (tickPeriod_ > 0) {
                vtimer_->armIn(tickPeriod_);
                ExitInfo info;
                info.reason = ExitReason::TimerWrite;
                info.data = machine().sim().now() + tickPeriod_;
                pushEvent(info);
            }
        }
        auto it = virqHandlers_.find(vintid);
        if (it != virqHandlers_.end())
            it->second();
        idleNotify_.notifyAll();
    });
}

// -------------------------------------------------------- guest-code API

Process&
VCpu::startGuest(std::string name, Proc<void> body)
{
    Process& p =
        machine().sim().spawnOn(std::move(name), *this, std::move(body),
                                false);
    guestProcs_.push_back(&p);
    procState_[p.serial()] = GuestProcState{};
    idleReported_ = false;
    // First resume happens when the vCPU is entered.
    GuestProcState& st = procState_[p.serial()];
    st.ready = true;
    readyQueue_.push_back(&p);
    if (entered_ && !currentProc_ && !stalled_)
        pickNextGuestProc();
    return p;
}

Proc<void>
VCpu::trapAndWait(ExitInfo info)
{
    stalled_ = true;
    pushEvent(info);
    co_await trapResume_.wait();
}

Proc<void>
VCpu::mmioWrite(std::uint64_t addr, std::uint64_t data, int len)
{
    ExitInfo info;
    info.reason = ExitReason::Mmio;
    info.addr = addr;
    info.data = data;
    info.len = len;
    info.isWrite = true;
    co_await trapAndWait(info);
}

Proc<std::uint64_t>
VCpu::mmioRead(std::uint64_t addr, int len)
{
    ExitInfo info;
    info.reason = ExitReason::Mmio;
    info.addr = addr;
    info.len = len;
    info.isWrite = false;
    co_await trapAndWait(info);
    CG_ASSERT(mmioData_.has_value(),
              "MMIO read on %s resumed without a response",
              name_.c_str());
    const std::uint64_t v = *mmioData_;
    mmioData_.reset();
    co_return v;
}

Proc<void>
VCpu::idle()
{
    ExitInfo info;
    info.reason = ExitReason::Wfi;
    pushEvent(info);
    co_await idleNotify_.wait();
}

Proc<void>
VCpu::sendVIpi(int target_vcpu)
{
    ExitInfo info;
    info.reason = ExitReason::SgiWrite;
    info.target = target_vcpu;
    co_await trapAndWait(info);
}

Proc<void>
VCpu::pageFault(std::uint64_t ipa)
{
    ExitInfo info;
    info.reason = ExitReason::PageFault;
    info.addr = ipa;
    co_await trapAndWait(info);
}

Proc<void>
VCpu::hypercall(std::uint64_t code)
{
    ExitInfo info;
    info.reason = ExitReason::Hypercall;
    info.code = code;
    co_await trapAndWait(info);
}

Proc<rmm::AttestationToken>
VCpu::rsiAttest(std::uint64_t challenge)
{
    CG_ASSERT(vm_.confidential(),
              "%s: RSI calls need a confidential VM", name_.c_str());
    ExitInfo info;
    info.reason = ExitReason::Hypercall;
    info.code = rmm::rsiAttestCall;
    info.data = challenge;
    co_await trapAndWait(info);
    CG_ASSERT(attestResult_.has_value(),
              "%s: RSI attest resumed without a token", name_.c_str());
    rmm::AttestationToken t = *attestResult_;
    attestResult_.reset();
    co_return t;
}

Proc<void>
VCpu::shutdown()
{
    stopped_ = true;
    vtimer_->disarm();
    ExitInfo info;
    info.reason = ExitReason::Shutdown;
    pushEvent(info);
    co_return;
}

// ------------------------------------------------------ guest dispatching

VCpu::GuestProcState&
VCpu::stateOf(Process& p)
{
    auto it = procState_.find(p.serial());
    CG_ASSERT(it != procState_.end(),
              "process '%s' is not a guest of %s", p.name().c_str(),
              name_.c_str());
    return it->second;
}

void
VCpu::stealGuestCpu(Tick t)
{
    pendingSteal_ += t;
}

void
VCpu::compute(Process& p, Tick amount)
{
    GuestProcState& st = stateOf(p);
    CG_ASSERT(currentProc_ == &p,
              "guest compute from a non-current process '%s'",
              p.name().c_str());
    st.wantsCpu = true;
    st.remaining = amount;
    if (entered_)
        scheduleGuestRun();
}

void
VCpu::blocked(Process& p)
{
    GuestProcState& st = stateOf(p);
    st.ready = false;
    if (currentProc_ == &p) {
        if (guestRunEvent_ != sim::invalidEventId) {
            machine().sim().queue().cancel(guestRunEvent_);
            guestRunEvent_ = sim::invalidEventId;
        }
        currentProc_ = nullptr;
        if (entered_ && !stalled_)
            pickNextGuestProc();
        if (!currentProc_ && !stalled_)
            maybeIdle();
    }
}

void
VCpu::wake(Process& p)
{
    idleReported_ = false;
    if (currentProc_ == &p) {
        CG_ASSERT(entered_, "completion wake for %s while exited",
                  name_.c_str());
        p.resumeNow();
        return;
    }
    GuestProcState& st = stateOf(p);
    if (st.ready)
        return; // already queued
    st.ready = true;
    readyQueue_.push_back(&p);
    if (entered_ && !currentProc_ && !stalled_) {
        pickNextGuestProc();
    } else if (!entered_) {
        // A task became runnable on a WFI'd vCPU: the guest scheduler
        // would raise a resched IPI; tell a blocked runner to
        // re-enter.
        hostWait_.notifyAll();
    }
}

void
VCpu::detach(Process& p)
{
    auto it = procState_.find(p.serial());
    if (it == procState_.end())
        return;
    if (currentProc_ == &p) {
        if (guestRunEvent_ != sim::invalidEventId) {
            machine().sim().queue().cancel(guestRunEvent_);
            guestRunEvent_ = sim::invalidEventId;
        }
        currentProc_ = nullptr;
    }
    readyQueue_.erase(
        std::remove(readyQueue_.begin(), readyQueue_.end(), &p),
        readyQueue_.end());
    guestProcs_.erase(
        std::remove(guestProcs_.begin(), guestProcs_.end(), &p),
        guestProcs_.end());
    procState_.erase(it);
    if (entered_ && !currentProc_ && !stalled_)
        pickNextGuestProc();
}

void
VCpu::pickNextGuestProc()
{
    CG_ASSERT(!currentProc_, "pickNext with a current guest process");
    if (readyQueue_.empty())
        return;
    Process* p = readyQueue_.front();
    readyQueue_.pop_front();
    stateOf(*p).ready = false;
    currentProc_ = p;
    scheduleGuestRun();
}

void
VCpu::scheduleGuestRun()
{
    CG_ASSERT(entered_ && currentProc_, "scheduleGuestRun while paused");
    GuestProcState& st = stateOf(*currentProc_);
    if (guestRunEvent_ != sim::invalidEventId) {
        machine().sim().queue().cancel(guestRunEvent_);
        guestRunEvent_ = sim::invalidEventId;
    }
    const Tick steal = pendingSteal_;
    pendingSteal_ = 0;
    const Tick work = st.wantsCpu ? st.remaining : 0;
    chargeStart_ = machine().sim().now() + steal;
    guestRunEvent_ = machine().sim().queue().scheduleIn(
        steal + work, [this] { onGuestRunEvent(); });
}

void
VCpu::onGuestRunEvent()
{
    guestRunEvent_ = sim::invalidEventId;
    CG_ASSERT(currentProc_, "guest run event with no current process");
    // Interrupt handlers stole time mid-run: extend.
    if (pendingSteal_ > 0) {
        const Tick steal = pendingSteal_;
        pendingSteal_ = 0;
        guestRunEvent_ = machine().sim().queue().scheduleIn(
            steal, [this] { onGuestRunEvent(); });
        return;
    }
    Process& p = *currentProc_;
    GuestProcState& st = stateOf(p);
    if (st.wantsCpu) {
        guestCpuTime += st.remaining;
        st.wantsCpu = false;
        st.remaining = 0;
    }
    if (p.state() == Process::State::Blocked)
        p.wake(); // routes back into our wake() -> resumeNow
    else if (p.state() == Process::State::Ready)
        p.resumeNow();
    else
        sim::panic("guest run event for '%s' in unexpected state",
                   p.name().c_str());
}

void
VCpu::pauseExecution()
{
    if (guestRunEvent_ != sim::invalidEventId) {
        machine().sim().queue().cancel(guestRunEvent_);
        guestRunEvent_ = sim::invalidEventId;
        if (currentProc_) {
            GuestProcState& st = stateOf(*currentProc_);
            if (st.wantsCpu) {
                const Tick now = machine().sim().now();
                const Tick consumed =
                    now > chargeStart_ ? now - chargeStart_ : 0;
                const Tick used = std::min(consumed, st.remaining);
                st.remaining -= used;
                guestCpuTime += used;
            }
        }
    }
}

void
VCpu::resumeExecution()
{
    if (currentProc_) {
        scheduleGuestRun();
    } else if (!stalled_) {
        pickNextGuestProc();
    }
    if (!currentProc_ && !stalled_)
        maybeIdle();
}

} // namespace cg::guest
