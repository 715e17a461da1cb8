#include "core/gapped_vm.hh"

#include <algorithm>

#include "core/planner.hh"
#include "core/scrub.hh"
#include "sim/simulation.hh"

namespace cg::core {

using guest::VCpu;
using rmm::ExitReason;
using sim::Compute;
using sim::Tick;

namespace {

/** Any SGI works as a kick: the monitor exits the REC on all of them. */
constexpr hw::IntId kickSgi = 15;

/** Each Lifecycle's column in GappedVm::next()'s table; -1 marks the
 * transitional states, which refuse every entry point. */
constexpr int lifecycleColumn[] = {0, -1, 1, 2, -1, -1, 3};

} // namespace

GappedVm::GappedVm(vmm::KvmVm& kvm, ExitDoorbell& doorbell,
                   GappedVmConfig cfg)
    : kvm_(kvm),
      rmm_(*kvm.rmm()),
      realm_(kvm.realmId()),
      doorbell_(doorbell),
      cfg_(std::move(cfg)),
      syncRpc_(kvm.kernel().machine(), monitorWork_)
{
    if (!kvm_.rmm() || realm_ < 0 ||
        kvm_.config().mode != vmm::VmMode::SharedCoreCvm)
        sim::fatal("GappedVm needs a realm-attached SharedCoreCvm KvmVm");
    const int n = kvm_.guestVm().numVcpus();
    if (static_cast<int>(cfg_.guestCores.size()) != n) {
        sim::fatal("GappedVm: %d dedicated cores for %d vCPUs",
                   static_cast<int>(cfg_.guestCores.size()), n);
    }
    if (cfg_.hostCores.empty())
        sim::fatal("GappedVm needs at least one host core");
    syncRpc_.setTraceDomain(kvm_.guestVm().domain());
    for (int i = 0; i < n; ++i) {
        slots_.push_back(std::make_unique<RunSlot>(
            kvm_.kernel().machine(), monitorWork_));
        monGen_.push_back(0);
    }
    monitorProcs_.resize(static_cast<size_t>(n), nullptr);
    // RMI calls, REC enter included, now travel by cross-core RPC; the
    // vCPU threads stay on the host cores, FIFO unless they poll.
    kvm_.attachRealm(rmm_, realm_, this);
    kvm_.setVcpuPlacement(cfg_.busyWaitRun ? host::SchedClass::Fair
                                           : host::SchedClass::Fifo,
                          cfg_.hostCores);
    // Host-initiated exits target the REC's dedicated core directly.
    kvm_.setKickOverride([this](int idx) {
        kvm_.kernel().machine().gic().sendSgi(
            cfg_.guestCores[static_cast<size_t>(idx)], kickSgi);
    });
    for (sim::CoreId c = 0; c < 64; ++c) {
        if (cfg_.hostCores.test(c)) {
            doorbellTarget_ = c;
            break;
        }
    }
}

GappedVm::~GappedVm()
{
    kvm_.kernel().machine().sim().queue().cancel(watchdogEvent_);
    if (doorbellSub_ != 0)
        doorbell_.unsubscribe(doorbellTarget_, doorbellSub_);
    killHostThreads();
    for (sim::Process* p : monitorProcs_) {
        if (p)
            p->kill();
    }
}

void
GappedVm::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, "gapped." + kvm_.guestVm().name());
    statGroup_.add("runToRun", runToRun_);
    statGroup_.add("runCallRtt", runCallRtt_);
    statGroup_.add("wakeLatency", wakeLatency_);
    statGroup_.add("wakeSpinHits", wakeSpinHits_);
    statGroup_.add("wakeSpinSleeps", wakeSpinSleeps_);
    statGroup_.add("directInjections", directInjections_);
    statGroup_.add("syncRpcServed", syncRpc_.servedStat());
    statGroup_.add("rpcTimeouts", syncRpc_.timeoutStat());
    statGroup_.add("rpcRepokes", syncRpc_.repokeStat());
    statGroup_.add("hangReclaims", hangReclaims_);
    statGroup_.add("coresLost", coresLost_);
    statGroup_.add("hotplugRetries", hotplugRetries_);
    statGroup_.add("rebindRetries", rebindRetries_);
    statGroup_.add("scrubRepairs", scrubRepairs_);
}

bool
GappedVm::isLostCore(sim::CoreId c) const
{
    return std::find(lostCores_.begin(), lostCores_.end(), c) !=
           lostCores_.end();
}

void
GappedVm::releaseCores(CorePlanner* planner,
                       const std::vector<sim::CoreId>& cores) const
{
    if (!planner)
        return;
    // A quarantined core stays reserved forever: releasing it would
    // let the planner hand an offline core to the next VM (I7).
    std::vector<sim::CoreId> back;
    for (sim::CoreId c : cores) {
        if (!isLostCore(c))
            back.push_back(c);
    }
    if (!back.empty())
        planner->release(back);
}

const char*
GappedVm::destinationRefusal(const std::vector<sim::CoreId>& dest,
                             const CorePlanner* planner) const
{
    host::Kernel& kernel = kvm_.kernel();
    for (sim::CoreId c : dest) {
        if (c < 0 || c >= kernel.machine().numCores())
            return "destination core out of range";
        if (std::find(cfg_.guestCores.begin(), cfg_.guestCores.end(),
                      c) != cfg_.guestCores.end())
            return "destination overlaps current pool";
        if (planner && (planner->isReserved(c) ||
                        planner->hostReserved().test(c)))
            return "destination core not free";
        if (!kernel.isOnline(c))
            return "destination core offline";
    }
    return nullptr;
}

// ------------------------------------------------------------ lifecycle

std::optional<GappedVm::Lifecycle>
GappedVm::next(Op op, Lifecycle s)
{
    using L = Lifecycle;
    // DESIGN.md section 12.
    static constexpr std::optional<L> table[][4] = {
        //            Created      Running       Suspended    Stopped
        /* Start   */ {L::Starting, {},           {},          {}},
        /* Suspend */ {{},          L::Suspended, {},          {}},
        /* Resume  */ {{},          {},           L::Running,  {}},
        /* Move    */ {{},          L::Migrating, {},          {}},
        /* Stop    */ {L::Stopped,  L::Stopping,  L::Stopping, {}},
    };
    const int col = lifecycleColumn[static_cast<int>(s)];
    return col < 0 ? std::nullopt : table[static_cast<int>(op)][col];
}

sim::Proc<std::optional<GappedVm::Lifecycle>>
GappedVm::settle(Op op)
{
    while (lifecycleColumn[static_cast<int>(state_)] < 0)
        co_await settled_.wait();
    co_return next(op, state_);
}

void
GappedVm::enter(Lifecycle s)
{
    state_ = s;
    if (s == Lifecycle::Stopped)
        releaseCores(cfg_.planner, cfg_.guestCores);
    settled_.notifyAll();
}

sim::Proc<bool>
GappedVm::dedicateCore(sim::CoreId core)
{
    host::Kernel& kernel = kvm_.kernel();
    hw::Machine& machine = kernel.machine();
    bool ok = co_await kernel.offlineCore(core);
    if (!ok) {
        hotplugRetries_.inc();
        ok = co_await kernel.offlineCore(core);
        if (ok) {
            machine.sim().faults().noteRecovered(
                sim::FaultSite::HotplugOfflineFail);
        }
    }
    if (!ok)
        co_return false;
    co_await sim::Delay{machine.switchWorld(core, hw::World::Realm)};
    machine.core(core).setOccupant(sim::monitorDomain);
    co_return true;
}

sim::Proc<bool>
GappedVm::returnCore(sim::CoreId core)
{
    host::Kernel& kernel = kvm_.kernel();
    co_await sim::Delay{
        kernel.machine().switchWorld(core, hw::World::Normal)};
    if (co_await kernel.onlineCore(core))
        co_return true;
    hotplugRetries_.inc();
    if (co_await kernel.onlineCore(core)) {
        kernel.sim().faults().noteRecovered(
            sim::FaultSite::HotplugOnlineFail);
        co_return true;
    }
    coresLost_.inc();
    lostCores_.push_back(core);
    sim::warn("%s: core %d failed to come back online twice; "
              "quarantining it (stays reserved, never reused)",
              kvm_.guestVm().name().c_str(), core);
    co_return false;
}

void
GappedVm::spawnMonitor(int idx)
{
    const auto i = static_cast<size_t>(idx);
    const sim::CoreId core = cfg_.guestCores[i];
    monitorProcs_[i] = &kvm_.kernel().machine().sim().spawn(
        sim::strFormat("%s/rmm-core%d", kvm_.guestVm().name().c_str(),
                       core),
        monitorCoreLoop(idx, core, monGen_[i]));
}

sim::Proc<void>
GappedVm::retireMonitors(int first, int last)
{
    // Bumping the generation retires a loop at its next wake-up; the
    // loops are idle (their run loops are parked), so each exits.
    for (int i = first; i < last; ++i)
        ++monGen_[static_cast<size_t>(i)];
    monitorWork_.notifyAll();
    for (int i = first; i < last; ++i) {
        if (sim::Process* p = monitorProcs_[static_cast<size_t>(i)])
            co_await sim::join(*p);
    }
}

void
GappedVm::routeDirectIrqs()
{
    // Directly-delivered interrupts belong ON the dedicated cores:
    // hotplug migrated every SPI away from the cores it offlined.
    for (const auto& [spi, target] : directIrqs_) {
        kvm_.kernel().machine().gic().routeSpi(
            spi, cfg_.guestCores[static_cast<size_t>(target.first)]);
    }
}

void
GappedVm::killHostThreads()
{
    kvm_.stop();
    if (wakeupThread_ && !wakeupThread_->done())
        wakeupThread_->process().kill();
}

void
GappedVm::requestParkAll()
{
    for (int i = 0; i < kvm_.guestVm().numVcpus(); ++i)
        kvm_.requestPark(i);
}

void
GappedVm::unparkAll()
{
    for (int i = 0; i < kvm_.guestVm().numVcpus(); ++i)
        kvm_.unpark(i);
}

sim::Proc<bool>
GappedVm::parkAll(Tick deadline)
{
    requestParkAll();
    for (int i = 0; i < kvm_.guestVm().numVcpus(); ++i) {
        if (!co_await kvm_.awaitPark(i, deadline)) {
            unparkAll();
            co_return false;
        }
    }
    co_return true;
}

sim::Proc<bool>
GappedVm::start()
{
    const std::optional<Lifecycle> to = co_await settle(Op::Start);
    CG_ASSERT(to, "GappedVm started twice");
    enter(*to);
    host::Kernel& kernel = kvm_.kernel();
    hw::Machine& machine = kernel.machine();

    // Dedicate the guest cores: hotplug them out of the host and hand
    // them to the monitor in realm world (section 4.2). A core that
    // refuses to offline gets one retry; if it still refuses, the
    // whole bring-up rolls back — no half-dedicated VM, and a failed
    // start leaks no planner reservation (I7).
    std::vector<sim::CoreId> dedicated;
    for (sim::CoreId core : cfg_.guestCores) {
        if (!co_await dedicateCore(core)) {
            sim::warn("%s: could not dedicate core %d; rolling back",
                      kvm_.guestVm().name().c_str(), core);
            break;
        }
        dedicated.push_back(core);
    }
    if (dedicated.size() != cfg_.guestCores.size()) {
        // Hand back everything taken so far. The monitor never ran a
        // guest here, but it did own the cores: scrub its residue
        // before normal world returns (I10).
        for (sim::CoreId core : dedicated) {
            scrubForHandback(machine, core, sim::invalidDomain, false,
                             nullptr);
            co_await returnCore(core);
        }
        enter(Lifecycle::Stopped);
        co_return false;
    }
    for (int i = 0; i < kvm_.guestVm().numVcpus(); ++i)
        spawnMonitor(i);
    routeDirectIrqs();

    // Host side: wake-up thread plus KvmVm's vCPU threads. The
    // doorbell sets a level-triggered flag: rings can coalesce while
    // the wake-up thread is mid-sweep.
    doorbellSub_ = doorbell_.subscribe(doorbellTarget_, [this] {
        doorbellPending_ = true;
        wakeupNotify_.notifyAll();
    });
    wakeupThread_ = &kernel.createThread(
        sim::strFormat("%s/wakeup", kvm_.guestVm().name().c_str()),
        wakeupThreadBody(), host::SchedClass::Fifo, cfg_.hostCores);
    wakeupThread_->footprint = 32;
    kvm_.start();
    enter(Lifecycle::Running);
    co_return true;
}

sim::Proc<void>
GappedVm::teardown()
{
    const std::optional<Lifecycle> to = co_await settle(Op::Stop);
    if (to)
        enter(*to);
    if (to == Lifecycle::Stopping)
        co_await reclaimCores();
}

sim::Proc<void>
GappedVm::reclaimCores()
{
    hw::Machine& machine = kvm_.kernel().machine();
    const sim::DomainId guest_domain = kvm_.guestVm().domain();
    // Destroy RECs: this is what releases the dedicated-core binding.
    for (int i = 0; i < kvm_.guestVm().numVcpus(); ++i)
        rmm_.recDestroy(realm_, i);
    // Retire every monitor loop. Not on entry to Stopping: terminate()
    // needs them to serve the exits of the vCPUs it parks.
    for (std::uint64_t& gen : monGen_)
        ++gen;
    monitorWork_.notifyAll();
    // Reclaim the cores: the monitor scrubs the guest's (and its own)
    // microarchitectural residue before normal world ever runs here
    // again — without this, the cores would hand the host exactly the
    // per-core side channel core gapping exists to close.
    for (sim::CoreId core : cfg_.guestCores) {
        scrubForHandback(machine, core, guest_domain,
                         rmm_.config().verifyScrubs, &scrubRepairs_);
        co_await returnCore(core);
    }
    rmm_.realmDestroy(realm_);
    enter(Lifecycle::Stopped);
}

sim::Proc<void>
GappedVm::terminate()
{
    const std::optional<Lifecycle> to = co_await settle(Op::Stop);
    if (to)
        enter(*to);
    if (to != Lifecycle::Stopping)
        co_return;
    hw::Machine& machine = kvm_.kernel().machine();
    const int n = kvm_.guestVm().numVcpus();
    // Force every live vCPU out of guest execution and park its run
    // loop. With faults armed the wait is bounded: a hung monitor
    // never publishes the exit, so its vCPU thread never parks —
    // after parkDeadline the host stops cooperating and reclaims the
    // core by force.
    requestParkAll();
    const Tick deadline =
        machine.sim().faults().armed() ? parkDeadline : 0;
    for (int i = 0; i < n; ++i) {
        if (co_await kvm_.awaitPark(i, deadline))
            continue;
        machine.sim().faults().noteDetected(
            sim::FaultSite::MonitorHang);
        sim::warn("%s/vcpu%d: monitor on core %d unresponsive; "
                  "force-stopping its REC and reclaiming the core",
                  kvm_.guestVm().name().c_str(), i,
                  cfg_.guestCores[static_cast<size_t>(i)]);
        // Kill the wedged monitor loop, force the REC out of Running
        // so teardown()'s recDestroy succeeds, and drop the vCPU
        // thread (its run call can never complete). teardown() then
        // scrubs the core like any other before the host gets it
        // back (I10).
        if (monitorProcs_[static_cast<size_t>(i)]) {
            monitorProcs_[static_cast<size_t>(i)]->kill();
            monitorProcs_[static_cast<size_t>(i)] = nullptr;
        }
        rmm_.recForceStop(realm_, i);
        kvm_.vcpuThread(i).process().kill();
        hangReclaims_.inc();
        machine.sim().faults().noteRecovered(
            sim::FaultSite::MonitorHang);
    }
    // The host kills the VMM's threads outright.
    killHostThreads();
    co_await reclaimCores();
    kvm_.shutdownGate().open();
}

// --------------------------------------------------------- monitor side

sim::Proc<void>
GappedVm::monitorCoreLoop(int idx, sim::CoreId core, std::uint64_t gen)
{
    RunSlot& slot = *slots_[static_cast<size_t>(idx)];
    VCpu& v = kvm_.guestVm().vcpu(idx);
    hw::Machine& machine = kvm_.kernel().machine();

    // Physical interrupts on a dedicated core are delivered to the
    // monitor: device MSIs mapped for direct delivery are injected
    // straight into the guest (no exit); anything else is a host kick
    // that must force the REC to exit so the host regains service.
    machine.gic().setSink(core, [this, &v, idx](hw::IntId id) {
        if (hw::isSpi(id)) {
            auto it = directIrqs_.find(id);
            if (it != directIrqs_.end() && it->second.first == idx) {
                directInjections_.inc();
                v.injectVirq(it->second.second);
                return;
            }
        }
        v.forceExit(ExitReason::HostKick);
    });

    Tick last_exit = 0;
    const auto retired = [this, idx, gen] {
        return monGen_[static_cast<size_t>(idx)] != gen;
    };
    for (;;) {
        while (!slot.posted() && !syncRpc_.pending()) {
            if (retired())
                co_return;
            co_await monitorWork_.wait();
        }
        if (retired())
            co_return;
        if (machine.sim().faults().armed() &&
            machine.sim().faults().query(
                sim::FaultSite::MonitorHang)) {
            // The monitor wedges (modelling a monitor bug): it keeps
            // the core but never services work again. Nothing on the
            // cooperative path can wake it; only terminate()'s
            // escalation reclaims the core.
            co_await hangNotify_.wait();
            co_return;
        }
        if (syncRpc_.pending()) {
            co_await syncRpc_.serviceOne();
            continue;
        }
        rmm::RecEnterArgs args = co_await slot.takeArgs();
        if (last_exit != 0)
            runToRun_.sample(machine.sim().now() - last_exit);
        rmm::RecRunResult res =
            co_await rmm_.recEnter(realm_, idx, std::move(args), core);
        last_exit = machine.sim().now();
        slot.publish(std::move(res));
        doorbell_.ring(doorbellTarget_);
    }
}

// ------------------------------------------------------------ host side

sim::Proc<void>
GappedVm::wakeupThreadBody()
{
    const hw::Costs& costs = kvm_.kernel().machine().costs();
    hw::Machine& machine = kvm_.kernel().machine();
    sim::Simulation& sim = machine.sim();
    // With faults armed the doorbell wait is bounded by a watchdog: a
    // sweep finding an undelivered response without a pending doorbell
    // means the ring was lost in flight — re-ring it. Delivery is
    // at-least-once; the per-slot delivered_ flag dedups extra rings.
    const bool watchdog = sim.faults().armed();
    for (;;) {
        if (cfg_.wakeSpinMax > 0 && !doorbellPending_) {
            // Adaptive spin-then-sleep: burn the spin budget polling
            // the doorbell flag before paying the blocking-wait wake
            // path. A hit means the workload is bursting — double the
            // budget (up to the cap) to stay hot for the next
            // response; a miss halves it so idle VMs decay back to
            // pure blocking and stop wasting the host core.
            if (wakeSpinBudget_ == 0) {
                wakeSpinBudget_ = std::max<Tick>(
                    cfg_.wakeSpinMax / 2, costs.pollReaction);
            }
            const Tick spin_start = sim.now();
            while (!doorbellPending_ &&
                   sim.now() - spin_start < wakeSpinBudget_)
                co_await Compute{machine.cost(costs.pollReaction)};
            if (doorbellPending_) {
                wakeSpinHits_.inc();
                sim.tracer().instant("wake-spin-hit",
                                     sim::Tracer::domainsPid,
                                     kvm_.guestVm().domain());
                wakeSpinBudget_ = std::min(wakeSpinBudget_ * 2,
                                           cfg_.wakeSpinMax);
            } else {
                wakeSpinSleeps_.inc();
                wakeSpinBudget_ = std::max<Tick>(
                    wakeSpinBudget_ / 2, costs.pollReaction);
            }
        }
        while (!doorbellPending_) {
            if (!watchdog) {
                co_await wakeupNotify_.wait();
                continue;
            }
            watchdogEvent_ = sim.queue().scheduleIn(
                watchdogPeriod, [this] { wakeupNotify_.notifyAll(); });
            co_await wakeupNotify_.wait();
            sim.queue().cancel(watchdogEvent_);
            watchdogEvent_ = sim::invalidEventId;
            if (doorbellPending_)
                break;
            bool missed = false;
            for (auto& slot : slots_) {
                if (slot->needsDelivery()) {
                    missed = true;
                    break;
                }
            }
            if (missed) {
                sim.faults().noteDetected(sim::FaultSite::DoorbellLost);
                reringOutstanding_ = true;
                doorbell_.rering(doorbellTarget_);
            }
        }
        doorbellPending_ = false;
        // Sweep the channels until a pass finds nothing, then suspend
        // until the next doorbell (fig. 4, steps 3-6).
        bool found = true;
        while (found) {
            found = false;
            for (auto& slot : slots_) {
                co_await Compute{machine.cost(costs.pollReaction)};
                if (slot->needsDelivery()) {
                    slot->markDelivered();
                    // The wake-up thread's own contribution to the
                    // serving tail: response visible -> vCPU woken.
                    wakeLatency_.sample(sim.now() - slot->readyAt());
                    slot->hostNotify().notifyAll();
                    found = true;
                    if (reringOutstanding_) {
                        reringOutstanding_ = false;
                        sim.faults().noteRecovered(
                            sim::FaultSite::DoorbellLost);
                    }
                }
            }
        }
    }
}

sim::Proc<rmm::RmiStatus>
GappedVm::call(std::function<rmm::RmiStatus()> op)
{
    return syncRpc_.call(std::move(op));
}

sim::Proc<rmm::RecRunResult>
GappedVm::run(vmm::KvmVm&, int idx, rmm::RecEnterArgs args)
{
    RunSlot& slot = *slots_[static_cast<size_t>(idx)];
    host::Kernel& kernel = kvm_.kernel();
    hw::Machine& machine = kernel.machine();
    const hw::Costs& costs = machine.costs();
    const Tick posted_at = machine.sim().now();
    slot.post(std::move(args));
    if (cfg_.busyWaitRun) {
        // Quarantine-style: stay runnable, poll, yield. With many
        // vCPU threads this saturates the host core (fig. 6).
        while (!slot.responseReady()) {
            co_await Compute{machine.cost(costs.pollReaction)};
            co_await kernel.yield();
        }
    } else {
        while (!slot.responseReady())
            co_await slot.hostNotify().wait();
        // Futex-style block/unblock cost of the blocking design.
        co_await Compute{machine.cost(costs.threadBlockUnblock)};
    }
    rmm::RecRunResult res = co_await slot.takeResponse();
    runCallRtt_.sample(machine.sim().now() - posted_at);
    // The run call returns to the userspace VMM, which decides how
    // to handle the exit before issuing the next call.
    co_await Compute{machine.cost(costs.vmmRunLoop)};
    co_return res;
}

sim::Proc<bool>
GappedVm::suspend(Tick deadline)
{
    const std::optional<Lifecycle> to = co_await settle(Op::Suspend);
    if (!to)
        co_return false;
    enter(*to);
    if (co_await parkAll(deadline))
        co_return true;
    // Rolled back: the VM runs on (unless a terminate() took over).
    if (state_ == Lifecycle::Suspended)
        enter(Lifecycle::Running);
    co_return false;
}

void
GappedVm::resume()
{
    const std::optional<Lifecycle> to = next(Op::Resume, state_);
    CG_ASSERT(to, "resume without suspend");
    enter(*to);
    unparkAll();
}

void
GappedVm::mapDirectIrq(hw::IntId spi, hw::IntId virq, int vcpu_idx)
{
    CG_ASSERT(hw::isSpi(spi), "direct delivery needs an SPI");
    CG_ASSERT(vcpu_idx >= 0 && vcpu_idx < kvm_.guestVm().numVcpus(),
              "bad vCPU index %d", vcpu_idx);
    directIrqs_[spi] = {vcpu_idx, virq};
    kvm_.kernel().machine().gic().routeSpi(
        spi, cfg_.guestCores[static_cast<size_t>(vcpu_idx)]);
}

sim::Proc<bool>
GappedVm::rebindVcpu(int idx, sim::CoreId new_core)
{
    CG_ASSERT(idx >= 0 && idx < kvm_.guestVm().numVcpus(),
              "bad vCPU index %d", idx);
    const std::optional<Lifecycle> to = co_await settle(Op::Move);
    const char* why = to ? destinationRefusal({new_core}, cfg_.planner)
                         : "VM is not running";
    if (why) {
        sim::warn("%s/vcpu%d: rebind to core %d refused: %s",
                  kvm_.guestVm().name().c_str(), idx, new_core, why);
        co_return false;
    }
    enter(*to);
    if (cfg_.planner)
        cfg_.planner->reserveExact({new_core});
    hw::Machine& machine = kvm_.kernel().machine();
    const sim::CoreId old_core = coreOf(idx);

    // 1. Park the host-side run loop: ask, kick the guest out of its
    //    current run call, and wait for the thread to reach the gate.
    kvm_.requestPark(idx);
    co_await kvm_.awaitPark(idx, 0);

    // 2. Retire the old monitor loop.
    co_await retireMonitors(idx, idx + 1);

    // 3. Dedicate the new core: hotplug it away from the host and
    //    switch it into realm world. On failure (after one retry)
    //    restart the old monitor loop and report the rebind refused.
    bool ok = co_await dedicateCore(new_core);
    if (!ok) {
        sim::warn("%s/vcpu%d: rebind: could not dedicate core %d",
                  kvm_.guestVm().name().c_str(), idx, new_core);
    } else {
        // 4. The monitor validates and performs the rebind, scrubbing
        //    the old core's guest residue. A rate-limit refusal (Busy
        //    with a known allowed-at tick) is not dropped: the control
        //    plane holds the dedicated new core, backs off until the
        //    limiter window opens, and retries — bounded so a Busy of
        //    any other cause still rolls back.
        rmm::RmiStatus s = rmm_.recRebind(realm_, idx, new_core);
        for (int attempt = 0;
             s == rmm::RmiStatus::Busy && attempt < maxRebindRetries;
             ++attempt) {
            const Tick allowed = rmm_.rebindAllowedAt(realm_, idx);
            const Tick now = machine.sim().now();
            if (allowed <= now)
                break; // Busy for a non-rate-limit reason
            rebindRetries_.inc();
            co_await sim::Delay{allowed - now};
            s = rmm_.recRebind(realm_, idx, new_core);
        }
        if (s != rmm::RmiStatus::Success) {
            // Roll back: return the new core to the host.
            sim::warn("%s/vcpu%d: rebind to core %d refused: %s",
                      kvm_.guestVm().name().c_str(), idx, new_core,
                      rmm::rmiStatusName(s));
            co_await returnCore(new_core);
            ok = false;
        }
    }

    // 5. A monitor loop on the vCPU's core — the new one, or the old
    //    one again after a refusal — and directly-delivered
    //    interrupts follow the vCPU; unpark the run loop.
    if (ok) {
        cfg_.guestCores[static_cast<size_t>(idx)] = new_core;
        routeDirectIrqs();
    }
    spawnMonitor(idx);
    kvm_.unpark(idx);

    // 6. Hand the old core back to the host; the planner (if any)
    //    gets back whichever core the VM no longer holds.
    if (ok)
        co_await returnCore(old_core);
    releaseCores(cfg_.planner, {ok ? old_core : new_core});
    enter(Lifecycle::Running);
    co_return ok;
}

} // namespace cg::core
