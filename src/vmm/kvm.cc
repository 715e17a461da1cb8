#include "vmm/kvm.hh"

#include <utility>

#include "sim/simulation.hh"

namespace cg::vmm {

using guest::VCpu;
using rmm::ExitInfo;
using rmm::ExitReason;
using sim::Compute;

KvmVm::KvmVm(host::Kernel& kernel, guest::Vm& vm, KickBroker& kicks,
             KvmConfig cfg)
    : kernel_(kernel),
      vm_(vm),
      kicks_(kicks),
      cfg_(cfg),
      injQueue_(static_cast<size_t>(vm.numVcpus())),
      mmioResp_(static_cast<size_t>(vm.numVcpus())),
      nextGranule_((static_cast<std::uint64_t>(vm.domain()) + 1) << 32)
{
    for (int i = 0; i < vm.numVcpus(); ++i)
        parks_.push_back(std::make_unique<Park>());
}

KvmVm::~KvmVm()
{
    stop();
}

void
KvmVm::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, "kvm." + vm_.name());
    statGroup_.add("exits", stats_.exits);
    statGroup_.add("irqRelatedExits", stats_.irqRelatedExits);
    statGroup_.add("mmioExits", stats_.mmioExits);
    statGroup_.add("wfiExits", stats_.wfiExits);
    statGroup_.add("pageFaultExits", stats_.pageFaultExits);
    statGroup_.add("injections", stats_.injections);
    statGroup_.add("rmiRetries", stats_.rmiRetries);
    statGroup_.add("rmiGiveUps", stats_.rmiGiveUps);
    statGroup_.add("runToRun", stats_.runToRun);
}

void
KvmVm::stop()
{
    for (host::Thread* t : threads_)
        t->process().kill();
}

Tick
KvmVm::cost(Tick nominal)
{
    return kernel_.machine().cost(nominal);
}

void
KvmVm::attachRealm(rmm::Rmm& rmm, int realm_id, RmiTransport* transport)
{
    rmm_ = &rmm;
    realmId_ = realm_id;
    transport_ = transport;
    if (!transport_) {
        // Baseline CCA: RMI calls are same-core SMCs.
        ownedTransport_ =
            std::make_unique<LocalSmcTransport>(kernel_.machine());
        transport_ = ownedTransport_.get();
    }
}

void
KvmVm::setKickOverride(std::function<void(int)> fn)
{
    kickOverride_ = std::move(fn);
}

void
KvmVm::setVcpuPlacement(host::SchedClass cls, host::CpuMask affinity)
{
    cfg_.vcpuClass = cls;
    cfg_.vcpuAffinity = affinity;
}

Proc<rmm::RmiStatus>
LocalSmcTransport::call(std::function<rmm::RmiStatus()> op)
{
    const hw::Costs& costs = machine_.costs();
    // SMC to EL3, world switch into realm, mitigation flush on each
    // boundary crossing, and the handler itself.
    co_await Compute{machine_.cost(costs.smcRoundTrip) +
                     2 * machine_.cost(costs.worldSwitchHalf) +
                     2 * machine_.cost(costs.mitigationFlush) +
                     machine_.cost(costs.rmiShortCall)};
    co_return op();
}

/** Guest-run strategy for shared-core CVMs: consume vCPU-thread CPU. */
static Proc<ExitInfo>
sharedCvmGuestRun(host::Kernel& k, rmm::GuestContext& g)
{
    auto& v = dynamic_cast<VCpu&>(g);
    co_await k.runGuest(v);
    co_return v.takeExit();
}

Proc<rmm::RecRunResult>
LocalSmcTransport::run(KvmVm& vm, int vcpu, rmm::RecEnterArgs args)
{
    const hw::Costs& costs = machine_.costs();
    sim::Simulation& sim = machine_.sim();
    const auto i = static_cast<size_t>(vcpu);
    if (lastExit_.size() <= i)
        lastExit_.resize(i + 1, 0);
    if (lastExit_[i] != 0)
        vm.stats().runToRun.sample(sim.now() - lastExit_[i]);
    // Guest execution must consume the vCPU thread's CPU time, so the
    // RMM runs the guest through the scheduler-coupled strategy.
    host::Kernel& k = vm.kernel();
    rmm::GuestRunFn run_fn = [&k](rmm::GuestContext& g,
                                  sim::CoreId) -> Proc<ExitInfo> {
        return sharedCvmGuestRun(k, g);
    };
    // SMC into the RMM (the world switch + mitigation flush is
    // charged by the kernel when the guest goes on/off the core).
    const sim::CoreId c0 = vm.vcpuThread(vcpu).lastCore();
    co_await Compute{machine_.cost(costs.smcRoundTrip) / 2};
    rmm::RecRunResult res = co_await vm.rmm()->recEnter(
        vm.realmId(), vcpu, std::move(args), c0, run_fn);
    co_await Compute{machine_.cost(costs.smcRoundTrip) / 2};
    lastExit_[i] = sim.now();
    co_return res;
}

void
KvmVm::mapMmio(MmioRange range)
{
    if (range.size == 0)
        sim::fatal("empty MMIO range");
    mmio_.push_back(std::move(range));
}

MmioRange*
KvmVm::findMmio(std::uint64_t addr)
{
    for (MmioRange& r : mmio_) {
        if (addr >= r.base && addr < r.base + r.size)
            return &r;
    }
    return nullptr;
}

void
KvmVm::queueInjection(int vcpu, hw::IntId virq)
{
    VCpu& v = vm_.vcpu(vcpu);
    stats_.injections.inc();
    if (cfg_.mode == VmMode::SharedCore && !v.entered()) {
        // Normal VM: the vGIC writes the list register directly; the
        // interrupt is delivered at the next entry.
        v.injectVirq(virq);
        return;
    }
    // Defer to the next entry's argument list; kick if in guest.
    injQueue_[static_cast<size_t>(vcpu)].push_back(virq);
    if (kickOverride_) {
        kickOverride_(vcpu);
        return;
    }
    if (v.entered())
        kicks_.kick(v);
    else
        v.runnerNotify().notifyAll();
}

void
KvmVm::requestPark(int vcpu)
{
    Park& park = *parks_[static_cast<size_t>(vcpu)];
    park.requested = true;
    park.resume.reset();
    VCpu& v = vm_.vcpu(vcpu);
    if (!v.entered())
        return;
    if (kickOverride_)
        kickOverride_(vcpu);
    else
        kicks_.kick(v);
}

Proc<bool>
KvmVm::awaitPark(int vcpu, Tick deadline)
{
    Park& park = *parks_[static_cast<size_t>(vcpu)];
    if (vcpuThread(vcpu).done())
        co_return true; // shut down: no run loop left to park
    if (deadline == 0) {
        while (!park.parked)
            co_await park.parkedNotify.wait();
        co_return true;
    }
    sim::Simulation& sim = kernel_.sim();
    while (!park.parked) {
        const Tick limit = sim.now() + deadline;
        const sim::EventId timer = sim.queue().scheduleIn(
            deadline, [&park] { park.parkedNotify.notifyAll(); });
        co_await park.parkedNotify.wait();
        sim.queue().cancel(timer);
        if (!park.parked && sim.now() >= limit)
            co_return false;
    }
    co_return true;
}

void
KvmVm::unpark(int vcpu)
{
    Park& park = *parks_[static_cast<size_t>(vcpu)];
    park.requested = false;
    park.resume.open();
}

std::vector<hw::IntId>
KvmVm::drainInjections(int vcpu)
{
    auto& q = injQueue_[static_cast<size_t>(vcpu)];
    std::vector<hw::IntId> out(q.begin(), q.end());
    q.clear();
    return out;
}

Proc<void>
KvmVm::waitRunnable(int vcpu)
{
    VCpu& v = vm_.vcpu(vcpu);
    while (injQueue_[static_cast<size_t>(vcpu)].empty() &&
           !v.hasPendingEvent() && v.listRegs().pendingIds().empty() &&
           !v.hasRunnableGuestWork()) {
        co_await v.runnerNotify().wait();
    }
}

void
KvmVm::start()
{
    if (cfg_.mode == VmMode::SharedCoreCvm && !rmm_)
        sim::fatal("SharedCoreCvm VM '%s' has no realm attached",
                   vm_.name().c_str());
    aliveVcpus_ = vm_.numVcpus();
    for (int i = 0; i < vm_.numVcpus(); ++i) {
        VCpu& v = vm_.vcpu(i);
        v.setTickPeriod(vm_.config().tickPeriod);
        Proc<void> body = cfg_.mode == VmMode::SharedCore
                              ? vcpuThreadShared(i)
                              : vcpuThreadCvm(i);
        host::Thread& t = kernel_.createThread(
            sim::strFormat("%s/vcpu%d-thread", vm_.name().c_str(), i),
            std::move(body), cfg_.vcpuClass, cfg_.vcpuAffinity);
        t.footprint = cfg_.vcpuThreadFootprint;
        threads_.push_back(&t);
    }
}

void
KvmVm::onVcpuShutdown()
{
    if (--aliveVcpus_ == 0)
        shutdownGate_.open();
}

// ----------------------------------------------------- exit-side policy

Proc<void>
KvmVm::applyExit(int idx, ExitInfo e)
{
    VCpu& v = vm_.vcpu(idx);
    stats_.exits.inc();
    if (e.interruptRelated())
        stats_.irqRelatedExits.inc();
    co_await Compute{cost(kernel_.machine().costs().kvmExitDispatch)};
    switch (e.reason) {
      case ExitReason::TimerIrq:
        // KVM's arch timer handler forwards the virtual timer IRQ.
        injQueue_[static_cast<size_t>(idx)].push_back(hw::vtimerPpi);
        break;
      case ExitReason::TimerWrite:
        break; // emulate CNTV write: dispatch cost only
      case ExitReason::SgiWrite:
        // vGIC: route the virtual IPI to the target vCPU.
        if (e.target >= 0 && e.target < vm_.numVcpus())
            queueInjection(e.target, hw::sgiBase + 1);
        break;
      case ExitReason::Wfi:
        stats_.wfiExits.inc();
        break; // the run loop blocks via waitRunnable()
      case ExitReason::Mmio:
        co_await handleMmio(idx, e);
        break;
      case ExitReason::PageFault:
        stats_.pageFaultExits.inc();
        if (rmm_)
            co_await cvmMapPage(e.addr);
        else
            co_await Compute{cost(2500 * sim::nsec)};
        break;
      case ExitReason::HostKick:
      case ExitReason::Hypercall:
      case ExitReason::Shutdown:
      case ExitReason::None:
        break;
    }
    // Normal VMs install deferred injections straight into the vGIC.
    if (cfg_.mode == VmMode::SharedCore) {
        for (hw::IntId id : drainInjections(idx))
            v.injectVirq(id);
    }
}

Proc<void>
KvmVm::handleMmio(int idx, ExitInfo e)
{
    stats_.mmioExits.inc();
    // kvmtool handles MMIO in userspace: syscall return + decode.
    co_await Compute{cost(1800 * sim::nsec)};
    MmioRange* r = findMmio(e.addr);
    if (!r) {
        sim::warn("%s: MMIO %s at unmapped address 0x%llx",
                  vm_.name().c_str(), e.isWrite ? "write" : "read",
                  static_cast<unsigned long long>(e.addr));
        if (!e.isWrite)
            mmioResp_[static_cast<size_t>(idx)] = 0;
        co_return;
    }
    if (e.isWrite) {
        if (r->onWrite)
            r->onWrite(e);
    } else {
        const std::uint64_t val = r->onRead ? r->onRead(e.addr, e.len)
                                            : 0;
        mmioResp_[static_cast<size_t>(idx)] = val;
    }
}

Proc<rmm::RmiStatus>
KvmVm::rmiCall(std::function<rmm::RmiStatus()> op)
{
    sim::Simulation& sim = kernel_.sim();
    Tick backoff = rmiRetryDelay;
    bool injected = false;
    for (int attempt = 0;; ++attempt) {
        rmm::RmiStatus s;
        if (sim.faults().armed() &&
            sim.faults().query(sim::FaultSite::RmiTransientError)) {
            // The call reached the monitor but bounced off a transient
            // resource shortage: a short round trip, no effect.
            sim.faults().noteDetected(
                sim::FaultSite::RmiTransientError);
            injected = true;
            co_await Compute{
                cost(kernel_.machine().costs().pollReaction)};
            s = rmm::RmiStatus::Busy;
        } else {
            s = co_await transport_->call(op);
        }
        const bool transient = s == rmm::RmiStatus::Busy ||
                               s == rmm::RmiStatus::Timeout;
        if (!transient) {
            if (injected && s == rmm::RmiStatus::Success) {
                sim.faults().noteRecovered(
                    sim::FaultSite::RmiTransientError);
            }
            co_return s;
        }
        if (attempt >= maxRmiRetries) {
            stats_.rmiGiveUps.inc();
            co_return s;
        }
        stats_.rmiRetries.inc();
        co_await sim::Delay{backoff};
        backoff *= 2;
    }
}

Proc<void>
KvmVm::cvmMapPage(std::uint64_t ipa)
{
    CG_ASSERT(rmm_ && transport_, "CVM page fault without a realm");
    // Delegate a fresh granule and walk the RTT down to the leaf, one
    // RMI call per missing level, each going through the transport.
    const std::uint64_t page = ipa & ~(rmm::granuleSize - 1);
    rmm::Realm* r = rmm_->realm(realmId_);
    CG_ASSERT(r, "realm %d vanished", realmId_);
    // Create missing intermediate tables. On Arm CCA every level is
    // an RMI (granule delegate + RTT create); TDX-style management
    // edits the untrusted levels host-side without monitor calls
    // (section 6.1), so only the leaf acceptance pays the transport.
    for (;;) {
        if (r->rtt.translate(page).has_value())
            co_return; // already mapped (benign refault)
        if (r->rtt.tablesComplete(page))
            break; // only the leaf mapping is missing
        const int level = r->rtt.walkLevel(page);
        const std::uint64_t g = nextGranule_;
        nextGranule_ += rmm::granuleSize;
        rmm::Rmm* rmm = rmm_;
        const int realm = realmId_;
        if (cfg_.tdxStylePageTables) {
            co_await Compute{cost(400 * sim::nsec)};
            rmm->granuleDelegate(g);
            const rmm::RmiStatus s = rmm->rttCreate(realm, page,
                                                    level, g);
            CG_ASSERT(s == rmm::RmiStatus::Success, "rttCreate: %s",
                      rmm::rmiStatusName(s));
            continue;
        }
        const rmm::RmiStatus dg = co_await rmiCall(
            [rmm, g] { return rmm->granuleDelegate(g); });
        if (dg != rmm::RmiStatus::Success) {
            sim::warn("%s: granuleDelegate gave up: %s (page fault "
                      "unserviced; the guest refaults)",
                      vm_.name().c_str(), rmm::rmiStatusName(dg));
            co_return;
        }
        const rmm::RmiStatus s = co_await rmiCall(
            [rmm, realm, page, level, g] {
                return rmm->rttCreate(realm, page, level, g);
            });
        if (s == rmm::RmiStatus::Busy ||
            s == rmm::RmiStatus::Timeout) {
            sim::warn("%s: rttCreate gave up: %s (page fault "
                      "unserviced; the guest refaults)",
                      vm_.name().c_str(), rmm::rmiStatusName(s));
            co_return;
        }
        if (s == rmm::RmiStatus::BadState) {
            // Lost a benign race: another vCPU's fault handler created
            // this level between our walk and the monitor running the
            // call. Hand the granule back and re-walk.
            rmm->granuleUndelegate(g);
            continue;
        }
        CG_ASSERT(s == rmm::RmiStatus::Success, "rttCreate: %s",
                  rmm::rmiStatusName(s));
    }
    const std::uint64_t g = nextGranule_;
    nextGranule_ += rmm::granuleSize;
    rmm::Rmm* rmm = rmm_;
    const rmm::RmiStatus dg = co_await rmiCall(
        [rmm, g] { return rmm->granuleDelegate(g); });
    if (dg != rmm::RmiStatus::Success) {
        sim::warn("%s: granuleDelegate gave up: %s (page fault "
                  "unserviced; the guest refaults)",
                  vm_.name().c_str(), rmm::rmiStatusName(dg));
        co_return;
    }
    const int realm = realmId_;
    const rmm::RmiStatus s = co_await rmiCall(
        [rmm, realm, page, g] {
            return rmm->dataCreateUnknown(realm, page, g);
        });
    if (s == rmm::RmiStatus::Busy || s == rmm::RmiStatus::Timeout) {
        sim::warn("%s: dataCreateUnknown gave up: %s (page fault "
                  "unserviced; the guest refaults)",
                  vm_.name().c_str(), rmm::rmiStatusName(s));
        co_return;
    }
    if (s == rmm::RmiStatus::BadState &&
        r->rtt.translate(page).has_value()) {
        // Same benign race on the leaf: the page got mapped while our
        // call was in flight.
        rmm->granuleUndelegate(g);
        co_return;
    }
    CG_ASSERT(s == rmm::RmiStatus::Success, "dataCreateUnknown: %s",
              rmm::rmiStatusName(s));
}

// -------------------------------------------------------- vCPU threads

Proc<void>
KvmVm::vcpuThreadShared(int idx)
{
    VCpu& v = vm_.vcpu(idx);
    Tick last_exit = 0;
    for (;;) {
        for (hw::IntId id : drainInjections(idx))
            v.injectVirq(id);
        if (last_exit != 0)
            stats_.runToRun.sample(kernel_.sim().now() - last_exit);
        co_await kernel_.runGuest(v);
        ExitInfo e = v.takeExit();
        last_exit = kernel_.sim().now();
        co_await applyExit(idx, e);
        if (e.reason == ExitReason::Shutdown)
            break;
        if (e.reason == ExitReason::Wfi) {
            co_await waitRunnable(idx);
            co_await Compute{
                cost(kernel_.machine().costs().threadBlockUnblock)};
        }
    }
    onVcpuShutdown();
}

Proc<void>
KvmVm::vcpuThreadCvm(int idx)
{
    Park& park = *parks_[static_cast<size_t>(idx)];
    for (;;) {
        // The gate comes before the arguments: injections queued while
        // parked must ride on the first run call after unpark.
        if (park.requested) {
            park.parked = true;
            park.parkedNotify.notifyAll();
            co_await park.resume.wait();
            park.parked = false;
        }
        rmm::RecEnterArgs args;
        args.injectVirqs = drainInjections(idx);
        args.mmioResponse = std::exchange(
            mmioResp_[static_cast<size_t>(idx)], std::nullopt);
        rmm::RecRunResult res =
            co_await transport_->run(*this, idx, std::move(args));
        if (res.status != rmm::RmiStatus::Success) {
            sim::warn("%s/vcpu%d: run call failed: %s",
                      vm_.name().c_str(), idx,
                      rmm::rmiStatusName(res.status));
            break;
        }
        co_await applyExit(idx, res.exit);
        if (res.exit.reason == ExitReason::Shutdown)
            break;
        if (res.exit.reason == ExitReason::Wfi)
            co_await waitRunnable(idx);
    }
    onVcpuShutdown();
}

// ---------------------------------------------------------- realm setup

int
createRealmFor(rmm::Rmm& rmm, guest::Vm& vm)
{
    // Granule addresses for this realm come from a private window.
    std::uint64_t next =
        (static_cast<std::uint64_t>(vm.domain()) + 0x100) << 32;
    auto granule = [&next, &rmm]() {
        const std::uint64_t g = next;
        next += rmm::granuleSize;
        const rmm::RmiStatus s = rmm.granuleDelegate(g);
        CG_ASSERT(s == rmm::RmiStatus::Success, "delegate failed: %s",
                  rmm::rmiStatusName(s));
        return g;
    };

    int realm = -1;
    rmm::RealmParams params;
    params.name = vm.name();
    rmm::RmiStatus s = rmm.realmCreate(granule(), params, realm);
    if (s != rmm::RmiStatus::Success)
        sim::fatal("realmCreate failed: %s", rmm::rmiStatusName(s));

    // Populate the initial (measured) image: boot pages at IPA 0.
    for (int level = 1; level <= rmm::rttLeafLevel; ++level) {
        s = rmm.rttCreate(realm, 0, level, granule());
        CG_ASSERT(s == rmm::RmiStatus::Success, "rttCreate: %s",
                  rmm::rmiStatusName(s));
    }
    for (int page = 0; page < 64; ++page) {
        s = rmm.dataCreate(realm,
                           static_cast<std::uint64_t>(page) *
                               rmm::granuleSize,
                           granule(), 0xb007ull + page);
        CG_ASSERT(s == rmm::RmiStatus::Success, "dataCreate: %s",
                  rmm::rmiStatusName(s));
    }

    for (int i = 0; i < vm.numVcpus(); ++i) {
        int rec = -1;
        s = rmm.recCreate(realm, granule(), rec);
        CG_ASSERT(s == rmm::RmiStatus::Success, "recCreate: %s",
                  rmm::rmiStatusName(s));
        CG_ASSERT(rec == i, "REC index mismatch");
        rmm.setGuestContext(realm, rec, &vm.vcpu(i));
    }

    s = rmm.realmActivate(realm);
    CG_ASSERT(s == rmm::RmiStatus::Success, "realmActivate: %s",
              rmm::rmiStatusName(s));
    vm.setConfidential(true);
    return realm;
}

} // namespace cg::vmm
