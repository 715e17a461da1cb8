#include "host/kernel.hh"

#include <algorithm>

#include "check/checker.hh"
#include "sim/simulation.hh"

namespace cg::host {

using sim::Process;

Thread::Thread(Kernel& k, SchedClass cls, CpuMask affinity)
    : kernel_(k), cls_(cls), affinity_(affinity)
{}

const std::string&
Thread::name() const
{
    return proc_->name();
}

bool
Thread::done() const
{
    return proc_->done();
}

Kernel::Kernel(hw::Machine& machine)
    : machine_(machine),
      cores_(static_cast<size_t>(machine.numCores()))
{
    for (CoreId c = 0; c < machine_.numCores(); ++c) {
        machine_.gic().setSink(
            c, [this, c](hw::IntId id) { onInterrupt(c, id); });
    }
}

Kernel::~Kernel()
{
    // Threads reference this dispatcher; kill any that are still alive
    // so the Simulation's later cleanup never touches a freed Kernel.
    for (auto& t : threads_) {
        if (t->proc_)
            t->proc_->kill();
    }
}

sim::Simulation&
Kernel::sim()
{
    return machine_.sim();
}

void
Kernel::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, "host");
    statGroup_.add("contextSwitches", stats_.contextSwitches);
    statGroup_.add("migrations", stats_.migrations);
    statGroup_.add("ipis", stats_.ipis);
    statGroup_.add("irqs", stats_.irqs);
    statGroup_.add("hotplugOps", stats_.hotplugOps);
    statGroup_.add("hotplugFailures", stats_.hotplugFailures);
}

// ---------------------------------------------------------------- threads

Thread&
Kernel::createThread(std::string name, Proc<void> body, SchedClass cls,
                     CpuMask affinity)
{
    affinity = affinity & CpuMask::firstN(machine_.numCores());
    if (affinity.empty())
        sim::fatal("thread '%s' has empty affinity", name.c_str());
    auto owned =
        std::unique_ptr<Thread>(new Thread(*this, cls, affinity));
    Thread& t = *owned;
    threads_.push_back(std::move(owned));
    // Attach the cookie before the first wake so wake() can find us.
    Process& p =
        sim().spawnOn(std::move(name), *this, std::move(body), false);
    p.schedCookie = &t;
    t.proc_ = &p;
    enqueue(t);
    return t;
}

Thread&
Kernel::threadOf(Process& p)
{
    CG_ASSERT(p.schedCookie, "process '%s' is not a kernel thread",
              p.name().c_str());
    return *static_cast<Thread*>(p.schedCookie);
}

// ------------------------------------------------------------ dispatcher

void
Kernel::compute(Process& p, Tick amount)
{
    Thread& t = threadOf(p);
    t.wantsCpu_ = true;
    t.remaining_ = amount;
    if (t.onCpu_) {
        // The thread is current and just asked for more CPU: keep
        // running with no context-switch cost.
        scheduleRun(t.lastCore_, 0);
    } else {
        enqueue(t);
    }
}

void
Kernel::blocked(Process& p)
{
    Thread& t = threadOf(p);
    if (t.onCpu_)
        stopRunning(t.lastCore_, false);
    // A queued-but-not-running thread that blocks (can't happen today:
    // only the running thread executes code) would just stay dequeued.
}

void
Kernel::wake(Process& p)
{
    Thread& t = threadOf(p);
    if (t.onCpu_) {
        // Our own run event completed this thread's compute; resume the
        // coroutine in place (still current on its core).
        p.resumeNow();
        return;
    }
    if (t.queued_)
        return; // redundant wake
    enqueue(t);
}

void
Kernel::detach(Process& p)
{
    Thread& t = threadOf(p);
    if (t.onCpu_)
        stopRunning(t.lastCore_, false);
    removeFromQueues(t);
    if (t.guestRun_) {
        t.guestRun_->setExitReadyHook(nullptr);
        t.guestRun_->setAbandonHook(nullptr);
        t.guestRun_ = nullptr;
    }
    t.wantsCpu_ = false;
}

void
Kernel::abandonGuestRun(Thread& t)
{
    // The guest executor died while this thread was mid-runGuest.
    // Drop the reference; the thread stays suspended until killed.
    t.guestRun_ = nullptr;
    t.guestEndPending_ = false;
    t.wantsCpu_ = false;
    t.remaining_ = 0;
}

void
Kernel::yieldCurrent(Process& p)
{
    Thread& t = threadOf(p);
    CG_ASSERT(t.onCpu_, "yield from a thread that is not running");
    const CoreId c = t.lastCore_;
    stopRunning(c, true);
    scheduleDispatch(c);
}

Kernel::YieldAwaiter
Kernel::yield()
{
    return YieldAwaiter{*this};
}

// ------------------------------------------------------------- guest mode

Kernel::GuestRunAwaiter
Kernel::runGuest(GuestExecutor& g)
{
    return GuestRunAwaiter{*this, g};
}

void
Kernel::beginGuestRun(Process& p, GuestExecutor& g)
{
    Thread& t = threadOf(p);
    CG_ASSERT(t.onCpu_, "runGuest from a thread that is not running");
    CG_ASSERT(!t.guestRun_, "nested runGuest on thread '%s'",
              t.name().c_str());
    t.guestRun_ = &g;
    // The guest run looks like a (very long) compute to the scheduler,
    // so preemption and timeslicing apply normally.
    t.wantsCpu_ = true;
    t.remaining_ = 3600 * sim::sec;
    g.setExitReadyHook([this, &t] { onGuestExitReady(t); });
    g.setAbandonHook([this, &t] { abandonGuestRun(t); });
    machine_.core(t.lastCore_).setOccupant(g.executorDomain());
    Tick enter_cost = 0;
    if (g.confidential()) {
        enter_cost =
            machine_.switchWorld(t.lastCore_, hw::World::Realm);
    }
    scheduleRun(t.lastCore_, enter_cost);
    g.enterOn(t.lastCore_);
    if (g.exitReady())
        onGuestExitReady(t);
}

void
Kernel::onGuestExitReady(Thread& t)
{
    if (!t.guestRun_ || t.guestEndPending_)
        return;
    t.guestEndPending_ = true;
    // Complete from event context, never from inside the notifier.
    sim().queue().scheduleIn(0, [this, &t] { finishGuestRun(t); });
}

void
Kernel::finishGuestRun(Thread& t)
{
    t.guestEndPending_ = false;
    if (!t.guestRun_)
        return;
    GuestExecutor& g = *t.guestRun_;
    g.setExitReadyHook(nullptr);
    g.setAbandonHook(nullptr);
    t.guestRun_ = nullptr;
    t.wantsCpu_ = false;
    t.remaining_ = 0;
    if (t.onCpu_) {
        const CoreId c = t.lastCore_;
        CoreSched& cs = cores_[static_cast<size_t>(c)];
        if (cs.runEvent != sim::invalidEventId) {
            sim().queue().cancel(cs.runEvent);
            cs.runEvent = sim::invalidEventId;
        }
        g.pause();
        if (g.confidential()) {
            // Exit back to normal world: the flush cost delays this
            // thread's subsequent exit handling.
            cs.pendingSwitchCost +=
                machine_.switchWorld(c, hw::World::Normal);
        }
        machine_.core(c).setOccupant(sim::hostDomain);
        Process& p = t.process();
        CG_ASSERT(p.state() == Process::State::Blocked,
                  "guest-mode thread '%s' in unexpected state",
                  t.name().c_str());
        p.wake(); // routes via Kernel::wake -> resumeNow (on CPU)
    } else {
        // The thread was preempted; the guest is already paused. Just
        // arrange for the coroutine to resume at its next dispatch.
        if (!t.queued_)
            enqueue(t);
    }
}

// ------------------------------------------------------------ scheduling

CoreId
Kernel::pickCore(const Thread& t) const
{
    CoreId best = sim::invalidCore;
    std::size_t best_load = ~0ull;
    // Prefer the cache-warm last core when it is eligible and no more
    // loaded than the alternatives.
    for (CoreId c = 0; c < machine_.numCores(); ++c) {
        const CoreSched& cs = cores_[static_cast<size_t>(c)];
        if (!cs.online || !t.affinity().test(c))
            continue;
        std::size_t load = cs.fifoQueue.size() + cs.fairQueue.size() +
                           (cs.current ? 1 : 0);
        if (c == t.lastCore() && load <= best_load) {
            best = c;
            best_load = load;
            continue;
        }
        if (load < best_load) {
            best = c;
            best_load = load;
        }
    }
    return best;
}

void
Kernel::enqueue(Thread& t)
{
    CG_ASSERT(!t.queued_ && !t.onCpu_, "enqueue of running thread '%s'",
              t.name().c_str());
    CoreId c = pickCore(t);
    if (c == sim::invalidCore) {
        // All affine cores are offline; Linux breaks affinity rather
        // than lose the thread.
        sim::warn("thread '%s': affinity broken, no online core",
                  t.name().c_str());
        for (CoreId i = 0; i < machine_.numCores(); ++i) {
            if (cores_[static_cast<size_t>(i)].online) {
                c = i;
                break;
            }
        }
        CG_ASSERT(c != sim::invalidCore, "no online cores at all");
    }
    if (t.lastCore_ != sim::invalidCore && t.lastCore_ != c)
        stats_.migrations.inc();
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    if (t.schedClass() == SchedClass::Fifo)
        cs.fifoQueue.push_back(&t);
    else
        cs.fairQueue.push_back(&t);
    t.queued_ = true;
    t.lastCore_ = c;
    maybePreempt(c);
}

void
Kernel::requeueTail(Thread& t)
{
    CoreSched& cs = cores_[static_cast<size_t>(t.lastCore_)];
    if (cs.online) {
        if (t.schedClass() == SchedClass::Fifo)
            cs.fifoQueue.push_back(&t);
        else
            cs.fairQueue.push_back(&t);
        t.queued_ = true;
    } else {
        enqueue(t);
    }
}

void
Kernel::maybePreempt(CoreId c)
{
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    if (!cs.online)
        return;
    if (!cs.current) {
        scheduleDispatch(c);
        return;
    }
    // A FIFO-class arrival preempts a fair-class current immediately.
    if (!cs.fifoQueue.empty() &&
        cs.current->schedClass() == SchedClass::Fair) {
        stopRunning(c, true);
        scheduleDispatch(c);
        return;
    }
    // Fair-vs-fair contention: ensure a timeslice is armed.
    if (cs.current->schedClass() == SchedClass::Fair &&
        !cs.fairQueue.empty() &&
        cs.timesliceEvent == sim::invalidEventId) {
        cs.timesliceEvent = sim().queue().scheduleIn(
            quantum, [this, c] { onTimeslice(c); });
    }
}

void
Kernel::scheduleDispatch(CoreId c)
{
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    if (cs.dispatchPending)
        return;
    cs.dispatchPending = true;
    sim().queue().scheduleIn(0, [this, c] {
        cores_[static_cast<size_t>(c)].dispatchPending = false;
        dispatch(c);
    });
}

void
Kernel::dispatch(CoreId c)
{
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    if (!cs.online || cs.current)
        return;
    Thread* next = nullptr;
    if (!cs.fifoQueue.empty()) {
        next = cs.fifoQueue.front();
        cs.fifoQueue.pop_front();
    } else if (!cs.fairQueue.empty()) {
        next = cs.fairQueue.front();
        cs.fairQueue.pop_front();
    }
    if (!next)
        return; // idle
    next->queued_ = false;
    startRunning(c, *next);
}

void
Kernel::startRunning(CoreId c, Thread& t)
{
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    CG_ASSERT(!cs.current, "startRunning on busy core %d", c);
    cs.current = &t;
    t.onCpu_ = true;
    t.lastCore_ = c;

    hw::Core& core = machine_.core(c);

    Tick overhead = 0;
    if (cs.lastRan != &t) {
        stats_.contextSwitches.inc();
        overhead += machine_.cost(machine_.costs().hostContextSwitch);
        overhead += core.uarch().warmupCost(sim::hostDomain, t.footprint);
    }
    cs.lastRan = &t;

    if (t.guestRun_) {
        // Rescheduled mid-KVM_RUN: resume guest execution here. The
        // guest pays its own warm-up internally; confidential guests
        // pay the world switch into realm mode.
        if (t.guestRun_->confidential())
            overhead += machine_.switchWorld(c, hw::World::Realm);
        core.setOccupant(t.guestRun_->executorDomain());
        scheduleRun(c, overhead);
        t.guestRun_->enterOn(c);
        if (t.guestRun_->exitReady())
            onGuestExitReady(t);
        return;
    }

    core.setOccupant(sim::hostDomain);
    core.uarch().run(sim::hostDomain, t.footprint);
    scheduleRun(c, overhead);
}

void
Kernel::scheduleRun(CoreId c, Tick overhead)
{
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    overhead += cs.pendingSwitchCost;
    cs.pendingSwitchCost = 0;
    Thread& t = *cs.current;
    if (cs.runEvent != sim::invalidEventId) {
        sim().queue().cancel(cs.runEvent);
        cs.runEvent = sim::invalidEventId;
    }
    cs.runChargeStart = sim().now() + overhead;
    const Tick work = t.wantsCpu_ ? t.remaining_ : 0;
    cs.runEvent = sim().queue().scheduleIn(
        overhead + work, [this, c] { onRunEvent(c); });
    // Arm a timeslice for fair-vs-fair contention.
    if (t.schedClass() == SchedClass::Fair && !cs.fairQueue.empty() &&
        cs.timesliceEvent == sim::invalidEventId &&
        overhead + work > quantum) {
        cs.timesliceEvent = sim().queue().scheduleIn(
            quantum, [this, c] { onTimeslice(c); });
    }
}

void
Kernel::stopRunning(CoreId c, bool requeue)
{
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    CG_ASSERT(cs.current, "stopRunning on idle core %d", c);
    Thread& t = *cs.current;
    if (t.guestRun_) {
        // Preempting a KVM_RUN: the guest stops making progress. For a
        // confidential guest this is a realm exit through the monitor,
        // whose flush cost lands on whoever runs next on this core.
        t.guestRun_->pause();
        if (t.guestRun_->confidential()) {
            cs.pendingSwitchCost +=
                machine_.switchWorld(c, hw::World::Normal);
        }
        machine_.core(c).setOccupant(sim::hostDomain);
    }
    // Account partially completed compute.
    if (t.wantsCpu_) {
        const Tick now = sim().now();
        const Tick consumed =
            now > cs.runChargeStart ? now - cs.runChargeStart : 0;
        t.remaining_ = t.remaining_ > consumed ? t.remaining_ - consumed
                                               : 0;
    }
    cancelCoreEvents(cs);
    cs.current = nullptr;
    t.onCpu_ = false;
    if (requeue)
        requeueTail(t);
}

void
Kernel::cancelCoreEvents(CoreSched& cs)
{
    if (cs.runEvent != sim::invalidEventId) {
        sim().queue().cancel(cs.runEvent);
        cs.runEvent = sim::invalidEventId;
    }
    if (cs.timesliceEvent != sim::invalidEventId) {
        sim().queue().cancel(cs.timesliceEvent);
        cs.timesliceEvent = sim::invalidEventId;
    }
    cs.pendingSteal = 0;
}

void
Kernel::onRunEvent(CoreId c)
{
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    cs.runEvent = sim::invalidEventId;
    Thread* t = cs.current;
    CG_ASSERT(t, "run event on idle core %d", c);
    // IRQ handlers stole CPU from this thread: extend its run.
    if (cs.pendingSteal > 0) {
        const Tick steal = cs.pendingSteal;
        cs.pendingSteal = 0;
        cs.runEvent =
            sim().queue().scheduleIn(steal, [this, c] { onRunEvent(c); });
        return;
    }
    if (cs.timesliceEvent != sim::invalidEventId) {
        sim().queue().cancel(cs.timesliceEvent);
        cs.timesliceEvent = sim::invalidEventId;
    }
    t->wantsCpu_ = false;
    t->remaining_ = 0;
    Process& p = t->process();
    // Resume the coroutine: it may ask for more CPU (stays current),
    // block (core goes idle / redispatches), or finish (detach).
    if (p.state() == Process::State::Blocked)
        p.wake(); // routes back to Kernel::wake -> resumeNow
    else if (p.state() == Process::State::Ready)
        p.resumeNow();
    else
        sim::panic("run event for thread '%s' in unexpected state",
                   t->name().c_str());
    // If the thread gave up the CPU during the resume, find new work.
    if (!cs.current)
        scheduleDispatch(c);
}

void
Kernel::onTimeslice(CoreId c)
{
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    cs.timesliceEvent = sim::invalidEventId;
    if (!cs.current || cs.fairQueue.empty())
        return;
    stopRunning(c, true);
    dispatch(c);
}

void
Kernel::removeFromQueues(Thread& t)
{
    if (!t.queued_)
        return;
    for (auto& cs : cores_) {
        auto drop = [&t](std::deque<Thread*>& q) {
            q.erase(std::remove(q.begin(), q.end(), &t), q.end());
        };
        drop(cs.fifoQueue);
        drop(cs.fairQueue);
    }
    t.queued_ = false;
}

// --------------------------------------------------------------- hotplug

bool
Kernel::isOnline(CoreId c) const
{
    return cores_.at(static_cast<size_t>(c)).online;
}

int
Kernel::onlineCount() const
{
    int n = 0;
    for (const auto& cs : cores_)
        n += cs.online ? 1 : 0;
    return n;
}

void
Kernel::migrateThreadsAway(CoreId c)
{
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    if (cs.current) {
        Thread& t = *cs.current;
        stopRunning(c, false);
        enqueue(t); // offline core is excluded by pickCore
    }
    std::vector<Thread*> displaced;
    for (Thread* t : cs.fifoQueue)
        displaced.push_back(t);
    for (Thread* t : cs.fairQueue)
        displaced.push_back(t);
    cs.fifoQueue.clear();
    cs.fairQueue.clear();
    for (Thread* t : displaced) {
        t->queued_ = false;
        enqueue(*t);
    }
}

Proc<bool>
Kernel::offlineCore(CoreId c)
{
    // Validate eagerly: coroutine bodies only run when awaited, but
    // configuration errors should throw at the call site.
    if (!isOnline(c))
        sim::fatal("core %d is already offline", c);
    if (onlineCount() == 1)
        sim::fatal("cannot offline the last online core");
    {
        CoreSched& cs = cores_[static_cast<size_t>(c)];
        if (cs.current &&
            cs.current->process().state() == Process::State::Running) {
            // The currently executing coroutine on this core is the
            // caller itself.
            sim::fatal("a thread cannot offline the core it is running "
                       "on");
        }
    }
    return offlineCoreImpl(c);
}

Proc<bool>
Kernel::offlineCoreImpl(CoreId c)
{
    sim::FaultPlan& faults = sim().faults();
    if (faults.armed() &&
        faults.query(sim::FaultSite::HotplugOfflineFail)) {
        // The offline attempt fails before any state is torn down
        // (e.g. a CPUHP callback vetoed it): the core stays online
        // with its threads and IRQ routes untouched; only the failed
        // attempt's latency is paid.
        stats_.hotplugFailures.inc();
        faults.noteDetected(sim::FaultSite::HotplugOfflineFail);
        sim().tracer().instant("hotplug-offline-fail",
                               sim::Tracer::coresPid, c);
        co_await sim::Delay{
            machine_.cost(machine_.costs().hotplugOffline)};
        co_return false;
    }
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    cs.online = false;
    stats_.hotplugOps.inc();
    if (auto* chk = machine_.checker())
        chk->onHotplug(c, /*offline=*/true);
    sim().tracer().instant("hotplug-offline", sim::Tracer::coresPid, c);
    migrateThreadsAway(c);
    // Retarget device interrupts at the first remaining online core.
    CoreId fallback = 0;
    for (CoreId i = 0; i < machine_.numCores(); ++i) {
        if (cores_[static_cast<size_t>(i)].online) {
            fallback = i;
            break;
        }
    }
    machine_.gic().migrateSpisAway(c, fallback);
    // The kernel stops handling this core's interrupts; they pend until
    // the next owner (the security monitor) installs its sink.
    machine_.gic().clearSink(c);
    co_await sim::Delay{
        machine_.cost(machine_.costs().hotplugOffline)};
    // Paper modification (section 4.2): skip the frequency-scaling
    // teardown and do not halt; the core stays hot for handover.
    co_return true;
}

Proc<bool>
Kernel::onlineCore(CoreId c)
{
    if (isOnline(c))
        sim::fatal("core %d is already online", c);
    return onlineCoreImpl(c);
}

Proc<bool>
Kernel::onlineCoreImpl(CoreId c)
{
    sim::FaultPlan& faults = sim().faults();
    if (faults.armed() &&
        faults.query(sim::FaultSite::HotplugOnlineFail)) {
        // The bring-up fails after paying its latency; the core is
        // left offline and the caller decides whether to retry.
        stats_.hotplugFailures.inc();
        faults.noteDetected(sim::FaultSite::HotplugOnlineFail);
        sim().tracer().instant("hotplug-online-fail",
                               sim::Tracer::coresPid, c);
        co_await sim::Delay{
            machine_.cost(machine_.costs().hotplugOnline)};
        co_return false;
    }
    stats_.hotplugOps.inc();
    // Reclaim audit: the host is about to own this core again; any
    // confidential residue still here is a dirty handback.
    if (auto* chk = machine_.checker())
        chk->onHotplug(c, /*offline=*/false);
    sim().tracer().instant("hotplug-online", sim::Tracer::coresPid, c);
    co_await sim::Delay{machine_.cost(machine_.costs().hotplugOnline)};
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    cs.online = true;
    cs.lastRan = nullptr;
    machine_.gic().setSink(
        c, [this, c](hw::IntId id) { onInterrupt(c, id); });
    machine_.core(c).setWorld(hw::World::Normal);
    machine_.core(c).setOccupant(sim::hostDomain);
    scheduleDispatch(c);
    co_return true;
}

// ------------------------------------------------------------ interrupts

int
Kernel::allocateIpi()
{
    if (nextIpi_ >= 16)
        sim::fatal("out of SGI numbers (Linux reserves 0-7)");
    return nextIpi_++;
}

void
Kernel::sendIpi(CoreId target, int ipi)
{
    stats_.ipis.inc();
    sim().tracer().instant("ipi-send", sim::Tracer::coresPid, target,
                           "ipi", static_cast<std::uint64_t>(ipi));
    machine_.gic().sendSgi(target, ipi);
}

void
Kernel::setIpiHandler(int ipi, std::function<void(CoreId)> fn)
{
    ipiHandlers_[ipi] = std::move(fn);
}

void
Kernel::clearIpiHandler(int ipi)
{
    ipiHandlers_.erase(ipi);
}

void
Kernel::setIrqHandler(hw::IntId spi, std::function<void(CoreId)> fn)
{
    irqHandlers_[spi] = std::move(fn);
}

void
Kernel::routeIrq(hw::IntId spi, CoreId target)
{
    machine_.gic().routeSpi(spi, target);
}

void
Kernel::onInterrupt(CoreId c, hw::IntId id)
{
    stats_.irqs.inc();
    // Charge the interrupted thread for the handler's CPU time.
    CoreSched& cs = cores_[static_cast<size_t>(c)];
    if (cs.current && cs.runEvent != sim::invalidEventId)
        cs.pendingSteal += machine_.cost(machine_.costs().irqEntry);
    if (hw::isSgi(id)) {
        auto it = ipiHandlers_.find(id);
        if (it != ipiHandlers_.end())
            it->second(c);
        return;
    }
    auto it = irqHandlers_.find(id);
    if (it != irqHandlers_.end())
        it->second(c);
}

} // namespace cg::host
