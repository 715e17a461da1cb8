#include "rmm/rmm.hh"

#include <algorithm>

#include "check/checker.hh"
#include "sim/simulation.hh"

namespace cg::rmm {

using sim::Compute;

Rmm::Rmm(hw::Machine& machine, RmmConfig cfg)
    : machine_(machine), cfg_(cfg), authority_(0x9a7f01c3b5d2e4f6ULL)
{}

Tick
Rmm::cost(Tick nominal)
{
    return machine_.cost(nominal);
}

void
Rmm::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, "rmm");
    statGroup_.add("exitsToHost", stats_.exitsToHost);
    statGroup_.add("irqRelatedExitsToHost", stats_.irqRelatedExitsToHost);
    statGroup_.add("delegatedTimerEvents", stats_.delegatedTimerEvents);
    statGroup_.add("delegatedIpis", stats_.delegatedIpis);
    statGroup_.add("localWfiWaits", stats_.localWfiWaits);
    statGroup_.add("rmiCalls", stats_.rmiCalls);
    statGroup_.add("wrongCoreRejections", stats_.wrongCoreRejections);
    statGroup_.add("rebinds", stats_.rebinds);
    statGroup_.add("rebindsRefused", stats_.rebindsRefused);
    statGroup_.add("forcedStops", stats_.forcedStops);
    statGroup_.add("rsiCalls", stats_.rsiCalls);
    statGroup_.add("filteredInjections", stats_.filteredInjections);
    statGroup_.add("migrationsStarted", stats_.migrationsStarted);
    statGroup_.add("migrationsCommitted", stats_.migrationsCommitted);
    statGroup_.add("migrationsAborted", stats_.migrationsAborted);
    statGroup_.add("migrationGranulesCopied",
                   stats_.migrationGranulesCopied);
    statGroup_.add("migrationStalls", stats_.migrationStalls);
    statGroup_.add("scrubRepairs", stats_.scrubRepairs);
}

// --------------------------------------------------------------- granules

RmiStatus
Rmm::granuleDelegate(PhysAddr addr)
{
    stats_.rmiCalls.inc();
    return granules_.delegate(addr);
}

RmiStatus
Rmm::granuleUndelegate(PhysAddr addr)
{
    stats_.rmiCalls.inc();
    return granules_.undelegate(addr);
}

// ----------------------------------------------------------------- realms

RmiStatus
Rmm::realmCreate(PhysAddr rd, const RealmParams& params, int& realm_out)
{
    stats_.rmiCalls.inc();
    const RmiStatus s =
        granules_.assign(rd, GranuleState::Rd,
                         static_cast<int>(realms_.size()));
    if (s != RmiStatus::Success)
        return s;
    auto r = std::make_unique<Realm>();
    r->id = static_cast<int>(realms_.size());
    r->state = RealmState::New;
    r->domain = nextDomain_++;
    r->params = params;
    r->rdGranule = rd;
    r->measurement.extendRim(digestOf(params.name));
    r->measurement.extendRim(params.personalization);
    realm_out = r->id;
    realms_.push_back(std::move(r));
    return RmiStatus::Success;
}

Realm*
Rmm::realm(int id)
{
    if (id < 0 || id >= static_cast<int>(realms_.size()))
        return nullptr;
    Realm* r = realms_[static_cast<size_t>(id)].get();
    return r->state == RealmState::Destroyed ? nullptr : r;
}

RmiStatus
Rmm::realmActivate(int realm_id)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (!r || r->state != RealmState::New)
        return RmiStatus::BadState;
    r->state = RealmState::Active;
    return RmiStatus::Success;
}

RmiStatus
Rmm::realmDestroy(int realm_id)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (!r)
        return RmiStatus::BadState;
    for (const Rec& rec : r->recs) {
        if (rec.state != RecState::Destroyed)
            return RmiStatus::BadState; // destroy RECs first
    }
    // Scrub and release every granule the realm owns (data, RTT, RD)
    // back to the Delegated state, ready for host undelegation.
    granules_.releaseOwned(r->id);
    r->state = RealmState::Destroyed;
    return RmiStatus::Success;
}

// --------------------------------------------------------------- rtt/data

RmiStatus
Rmm::rttCreate(int realm_id, Ipa ipa, int level, PhysAddr table)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (!r)
        return RmiStatus::BadState;
    RmiStatus s = granules_.assign(table, GranuleState::Rtt, realm_id);
    if (s != RmiStatus::Success)
        return s;
    s = r->rtt.createTable(ipa, level, table);
    if (s != RmiStatus::Success) {
        granules_.release(table, GranuleState::Rtt, realm_id);
        return s;
    }
    return RmiStatus::Success;
}

RmiStatus
Rmm::dataCreate(int realm_id, Ipa ipa, PhysAddr data,
                std::uint64_t content)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (!r || r->state != RealmState::New)
        return RmiStatus::BadState;
    RmiStatus s = granules_.assign(data, GranuleState::Data, realm_id);
    if (s != RmiStatus::Success)
        return s;
    s = r->rtt.mapPage(ipa, data);
    if (s != RmiStatus::Success) {
        granules_.release(data, GranuleState::Data, realm_id);
        return s;
    }
    r->measurement.extendRim(ipa);
    r->measurement.extendRim(content);
    return RmiStatus::Success;
}

RmiStatus
Rmm::dataCreateUnknown(int realm_id, Ipa ipa, PhysAddr data)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (!r || r->state != RealmState::Active)
        return RmiStatus::BadState;
    RmiStatus s = granules_.assign(data, GranuleState::Data, realm_id);
    if (s != RmiStatus::Success)
        return s;
    s = r->rtt.mapPage(ipa, data);
    if (s != RmiStatus::Success) {
        granules_.release(data, GranuleState::Data, realm_id);
        return s;
    }
    return RmiStatus::Success;
}

RmiStatus
Rmm::dataDestroy(int realm_id, Ipa ipa)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (!r)
        return RmiStatus::BadState;
    auto pa = r->rtt.translate(ipa);
    if (!pa)
        return RmiStatus::BadState;
    const RmiStatus s = r->rtt.unmapPage(ipa);
    if (s != RmiStatus::Success)
        return s;
    return granules_.release(*pa & ~(granuleSize - 1),
                             GranuleState::Data, realm_id);
}

// ------------------------------------------------------------------- recs

RmiStatus
Rmm::recCreate(int realm_id, PhysAddr granule, int& rec_out)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (!r || r->state != RealmState::New)
        return RmiStatus::BadState;
    const RmiStatus s =
        granules_.assign(granule, GranuleState::Rec, realm_id);
    if (s != RmiStatus::Success)
        return s;
    Rec rec;
    rec.index = static_cast<int>(r->recs.size());
    rec.state = RecState::Ready;
    rec.granule = granule;
    r->recs.push_back(rec);
    r->measurement.extendRim(static_cast<std::uint64_t>(rec.index));
    rec_out = rec.index;
    return RmiStatus::Success;
}

Rec*
Rmm::findRec(int realm_id, int rec_id)
{
    Realm* r = realm(realm_id);
    if (!r || rec_id < 0 || rec_id >= static_cast<int>(r->recs.size()))
        return nullptr;
    Rec* rec = &r->recs[static_cast<size_t>(rec_id)];
    return rec->state == RecState::Destroyed ? nullptr : rec;
}

const Rec*
Rmm::findRec(int realm_id, int rec_id) const
{
    return const_cast<Rmm*>(this)->findRec(realm_id, rec_id);
}

RmiStatus
Rmm::recDestroy(int realm_id, int rec_id)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (r && r->mig.phase != MigrationPhase::Idle)
        return RmiStatus::Busy; // abort or commit the migration first
    Rec* rec = findRec(realm_id, rec_id);
    if (!rec || rec->state == RecState::Running)
        return rec ? RmiStatus::Busy : RmiStatus::BadState;
    // Core-gapping: only REC destruction releases the dedicated core
    // (section 4.2) — until then no other CVM may be scheduled there.
    if (rec->boundCore != sim::invalidCore) {
        dedicated_.erase(rec->boundCore);
        rec->boundCore = sim::invalidCore;
    }
    granules_.release(rec->granule, GranuleState::Rec, realm_id);
    rec->state = RecState::Destroyed;
    rec->guest = nullptr;
    return RmiStatus::Success;
}

RmiStatus
Rmm::recForceStop(int realm_id, int rec_id)
{
    stats_.rmiCalls.inc();
    Rec* rec = findRec(realm_id, rec_id);
    if (!rec || rec->state == RecState::Destroyed)
        return RmiStatus::BadState;
    if (rec->state == RecState::Running) {
        // The monitor context that was running this REC is discarded,
        // not resumed: only valid when the caller has already taken the
        // core away from the hung monitor loop.
        rec->state = RecState::Stopped;
        stats_.forcedStops.inc();
    }
    return RmiStatus::Success;
}

void
Rmm::setGuestContext(int realm_id, int rec_id, GuestContext* guest)
{
    Rec* rec = findRec(realm_id, rec_id);
    CG_ASSERT(rec, "setGuestContext on missing REC %d/%d", realm_id,
              rec_id);
    rec->guest = guest;
}

CoreId
Rmm::recBinding(int realm_id, int rec_id) const
{
    const Rec* rec = findRec(realm_id, rec_id);
    return rec ? rec->boundCore : sim::invalidCore;
}

int
Rmm::dedicatedOwner(CoreId core) const
{
    auto it = dedicated_.find(core);
    return it == dedicated_.end() ? -1 : it->second.first;
}

RmiStatus
Rmm::recRebind(int realm_id, int rec_id, CoreId new_core)
{
    stats_.rmiCalls.inc();
    if (!cfg_.coreGapped) {
        stats_.rebindsRefused.inc();
        return RmiStatus::BadState;
    }
    Realm* r = realm(realm_id);
    Rec* rec = findRec(realm_id, rec_id);
    if (!r || !rec || rec->boundCore == sim::invalidCore) {
        stats_.rebindsRefused.inc();
        return RmiStatus::BadState;
    }
    if (new_core < 0 || new_core >= machine_.numCores() ||
        new_core == rec->boundCore) {
        stats_.rebindsRefused.inc();
        return RmiStatus::BadArgs;
    }
    if (r->mig.phase != MigrationPhase::Idle) {
        // Migration owns the realm's bindings until commit/abort.
        stats_.rebindsRefused.inc();
        return RmiStatus::Busy;
    }
    if (dedicated_.count(new_core)) {
        stats_.rebindsRefused.inc();
        return RmiStatus::WrongCore; // someone else's dedicated core
    }
    if (rec->state == RecState::Running) {
        // The runner must park the vCPU (exit and hold the run call)
        // before the binding can change.
        stats_.rebindsRefused.inc();
        return RmiStatus::Busy;
    }
    const Tick now = machine_.sim().now();
    if (rec->lastRebind != 0 &&
        now - rec->lastRebind < cfg_.minRebindInterval) {
        // Coarse time scales only: refuse rapid re-placement, which
        // would hand the host a scheduling-control channel back.
        stats_.rebindsRefused.inc();
        return RmiStatus::Busy;
    }
    // Scrub the guest's microarchitectural residue from the old core
    // before anyone else can run there. The scrub-skip fault site
    // models a buggy monitor that forgets; the isolation checker must
    // catch the residue at the next handback or dispatch — unless
    // verifyScrubs audits and repairs the skip on the spot.
    if (!machine_.sim().faults().query(sim::FaultSite::ScrubSkip))
        scrubCore(rec->boundCore, r->domain);
    else if (cfg_.verifyScrubs)
        repairSkippedScrub(rec->boundCore, r->domain);
    dedicated_.erase(rec->boundCore);
    dedicated_[new_core] = {realm_id, rec_id};
    rec->boundCore = new_core;
    rec->lastRebind = now;
    stats_.rebinds.inc();
    machine_.sim().tracer().instant(
        "vcpu-rebind", sim::Tracer::coresPid, new_core, "realm",
        static_cast<std::uint64_t>(realm_id));
    return RmiStatus::Success;
}

Tick
Rmm::rebindAllowedAt(int realm_id, int rec_id) const
{
    const Rec* rec = findRec(realm_id, rec_id);
    if (!rec || rec->lastRebind == 0)
        return 0;
    return rec->lastRebind + cfg_.minRebindInterval;
}

void
Rmm::scrubCore(CoreId core, sim::DomainId d)
{
    // Choke point: scrubs target realm/monitor residue. Flushing
    // host entries would hide exactly the residue the census exists
    // to expose (and invalidDomain would corrupt the share census).
    CG_ASSERT(d != sim::hostDomain && d != sim::invalidDomain,
              "scrubCore: invalid scrub target domain %d", d);
    hw::CoreUarch& uarch = machine_.core(core).uarch();
    for (hw::TaggedStructure* s : uarch.all())
        s->flushDomain(d);
}

bool
Rmm::repairSkippedScrub(CoreId core, sim::DomainId d)
{
    // Audit the census without probe events: the monitor inspecting
    // its own scrub work is not an attacker observation.
    bool residue = false;
    hw::CoreUarch& uarch = machine_.core(core).uarch();
    for (hw::TaggedStructure* s : uarch.all()) {
        if (s->auditEntriesOf(d) != 0) {
            residue = true;
            break;
        }
    }
    if (!residue)
        return false;
    machine_.sim().faults().noteDetected(sim::FaultSite::ScrubSkip);
    scrubCore(core, d);
    machine_.sim().faults().noteRecovered(sim::FaultSite::ScrubSkip);
    stats_.scrubRepairs.inc();
    return true;
}

// -------------------------------------------------------------- migration

RmiStatus
Rmm::migratePrepare(int realm_id)
{
    stats_.rmiCalls.inc();
    if (!cfg_.coreGapped)
        return RmiStatus::BadState; // nothing to migrate off
    Realm* r = realm(realm_id);
    if (!r || r->state != RealmState::Active)
        return RmiStatus::BadState;
    if (r->mig.phase != MigrationPhase::Idle)
        return RmiStatus::BadState;
    for (const Rec& rec : r->recs) {
        if (rec.state == RecState::Running)
            return RmiStatus::Busy; // pause every REC first
    }
    r->mig = RealmMigration{};
    r->mig.srcGranules = granules_.owned(realm_id);
    if (r->mig.srcGranules.empty())
        return RmiStatus::BadState; // a realm always owns its RD
    for (const Rec& rec : r->recs) {
        if (rec.state != RecState::Destroyed &&
            rec.boundCore != sim::invalidCore) {
            r->mig.savedBindings.push_back(RealmMigration::SavedBinding{
                rec.index, rec.boundCore, rec.lastRebind});
        }
    }
    r->mig.phase = MigrationPhase::Prepared;
    stats_.migrationsStarted.inc();
    return RmiStatus::Success;
}

RmiStatus
Rmm::migrateCopy(int realm_id, PhysAddr dest_base,
                 std::size_t max_granules, std::size_t& copied_out)
{
    stats_.rmiCalls.inc();
    copied_out = 0;
    Realm* r = realm(realm_id);
    if (!r)
        return RmiStatus::BadState;
    RealmMigration& m = r->mig;
    if (m.phase != MigrationPhase::Prepared &&
        m.phase != MigrationPhase::Copying) {
        return RmiStatus::BadState;
    }
    if (!granuleAligned(dest_base))
        return RmiStatus::BadAddress;
    if (m.phase == MigrationPhase::Prepared) {
        m.destBase = dest_base;
        m.phase = MigrationPhase::Copying;
    } else if (dest_base != m.destBase) {
        return RmiStatus::BadArgs; // one window per migration
    }
    if (machine_.sim().faults().query(sim::FaultSite::RttCopyStall)) {
        // The copy engine stalled: no progress this batch. The control
        // plane backs off and retries from the same cursor.
        stats_.migrationStalls.inc();
        return RmiStatus::Busy;
    }
    const std::size_t end =
        max_granules == 0
            ? m.srcGranules.size()
            : std::min(m.srcGranules.size(), m.copied + max_granules);
    while (m.copied < end) {
        const auto& [src, state] = m.srcGranules[m.copied];
        const PhysAddr dst =
            m.destBase + m.copied * granuleSize;
        // The host must have delegated the whole destination window.
        const RmiStatus s = granules_.assign(dst, state, realm_id);
        if (s != RmiStatus::Success)
            return s;
        ++m.copied;
        ++copied_out;
        stats_.migrationGranulesCopied.inc();
        (void)src;
    }
    if (m.copied == m.srcGranules.size())
        m.phase = MigrationPhase::Copied;
    return RmiStatus::Success;
}

RmiStatus
Rmm::migrateBindRec(int realm_id, int rec_id, CoreId new_core)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (!r || r->mig.phase != MigrationPhase::Copied)
        return RmiStatus::BadState;
    Rec* rec = findRec(realm_id, rec_id);
    if (!rec || rec->boundCore == sim::invalidCore)
        return RmiStatus::BadState;
    if (rec->state == RecState::Running)
        return RmiStatus::Busy;
    if (new_core < 0 || new_core >= machine_.numCores() ||
        new_core == rec->boundCore) {
        return RmiStatus::BadArgs;
    }
    if (dedicated_.count(new_core))
        return RmiStatus::WrongCore;
    for (int already : r->mig.rebound) {
        if (already == rec_id)
            return RmiStatus::BadState; // one move per REC
    }
    // No scrub here: the source cores are scrubbed together at the
    // commit handback (the scrub-verified teardown), after the last
    // REC has left. Rollback restores the binding verbatim.
    dedicated_.erase(rec->boundCore);
    dedicated_[new_core] = {realm_id, rec_id};
    rec->boundCore = new_core;
    rec->lastRebind = machine_.sim().now();
    r->mig.rebound.push_back(rec_id);
    stats_.rebinds.inc();
    machine_.sim().tracer().instant(
        "vcpu-rebind", sim::Tracer::coresPid, new_core, "realm",
        static_cast<std::uint64_t>(realm_id));
    return RmiStatus::Success;
}

RmiStatus
Rmm::migrateCommit(int realm_id)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (!r || r->mig.phase != MigrationPhase::Copied)
        return RmiStatus::BadState;
    RealmMigration& m = r->mig;
    // Every REC bound at prepare must have been moved: committing with
    // a REC still bound to a source core would strand it there.
    for (const auto& sb : m.savedBindings) {
        bool moved = false;
        for (int rec_id : m.rebound)
            moved = moved || rec_id == sb.rec;
        const Rec* rec = findRec(realm_id, sb.rec);
        if (rec && !moved)
            return RmiStatus::BadState;
    }
    // Rewrite every granule reference to the destination window, then
    // release (scrub) the source granules back to Delegated.
    std::map<PhysAddr, PhysAddr> reloc;
    for (std::size_t i = 0; i < m.srcGranules.size(); ++i)
        reloc[m.srcGranules[i].first] = m.destBase + i * granuleSize;
    if (auto it = reloc.find(r->rdGranule); it != reloc.end())
        r->rdGranule = it->second;
    for (Rec& rec : r->recs) {
        if (auto it = reloc.find(rec.granule); it != reloc.end())
            rec.granule = it->second;
    }
    r->rtt.relocate(reloc);
    for (const auto& [src, state] : m.srcGranules)
        granules_.release(src, state, realm_id);
    r->mig = RealmMigration{};
    stats_.migrationsCommitted.inc();
    machine_.sim().tracer().instant(
        "realm-migrate", sim::Tracer::domainsPid, r->domain, "realm",
        static_cast<std::uint64_t>(realm_id));
    return RmiStatus::Success;
}

RmiStatus
Rmm::migrateAbort(int realm_id)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (!r || r->mig.phase == MigrationPhase::Idle)
        return RmiStatus::BadState;
    RealmMigration& m = r->mig;
    // Release whatever reached the destination window (the RMM scrubs
    // on release, so the partial copy leaks nothing).
    for (std::size_t i = 0; i < m.copied; ++i) {
        granules_.release(m.destBase + i * granuleSize,
                          m.srcGranules[i].second, realm_id);
    }
    // Restore core bindings in reverse bind order.
    for (auto it = m.rebound.rbegin(); it != m.rebound.rend(); ++it) {
        Rec* rec = findRec(realm_id, *it);
        if (!rec)
            continue;
        for (const auto& sb : m.savedBindings) {
            if (sb.rec != *it)
                continue;
            dedicated_.erase(rec->boundCore);
            dedicated_[sb.core] = {realm_id, *it};
            rec->boundCore = sb.core;
            rec->lastRebind = sb.lastRebind;
            break;
        }
    }
    r->mig = RealmMigration{};
    stats_.migrationsAborted.inc();
    machine_.sim().tracer().instant(
        "migrate-rollback", sim::Tracer::domainsPid, r->domain, "realm",
        static_cast<std::uint64_t>(realm_id));
    return RmiStatus::Success;
}

MigrationPhase
Rmm::migrationPhase(int realm_id) const
{
    const Realm* r = const_cast<Rmm*>(this)->realm(realm_id);
    return r ? r->mig.phase : MigrationPhase::Idle;
}

std::size_t
Rmm::migrationGranuleCount(int realm_id) const
{
    const Realm* r = const_cast<Rmm*>(this)->realm(realm_id);
    return r ? r->mig.srcGranules.size() : 0;
}

// -------------------------------------------------------------- rec enter

RmiStatus
Rmm::recEnterCheck(int realm_id, int rec_id, CoreId core) const
{
    const Realm* r = const_cast<Rmm*>(this)->realm(realm_id);
    if (!r || r->state != RealmState::Active)
        return RmiStatus::BadState;
    if (r->mig.phase != MigrationPhase::Idle)
        return RmiStatus::Busy; // paused for migration
    const Rec* rec = findRec(realm_id, rec_id);
    if (!rec || !rec->guest || rec->state == RecState::Stopped)
        return RmiStatus::BadState;
    // The core-gapping placement check comes first: a dispatch on the
    // wrong core is a security rejection regardless of REC state.
    if (cfg_.coreGapped) {
        if (rec->boundCore != sim::invalidCore) {
            if (rec->boundCore != core)
                return RmiStatus::WrongCore;
        } else {
            auto it = dedicated_.find(core);
            if (it != dedicated_.end())
                return RmiStatus::WrongCore; // core owned by another CVM
        }
    }
    if (rec->state == RecState::Running)
        return RmiStatus::Busy;
    return RmiStatus::Success;
}

Proc<RecRunResult>
Rmm::recEnter(int realm_id, int rec_id, RecEnterArgs args, CoreId core,
              GuestRunFn run_fn)
{
    stats_.rmiCalls.inc();
    RecRunResult res;
    res.status = recEnterCheck(realm_id, rec_id, core);
    if (res.status != RmiStatus::Success) {
        if (res.status == RmiStatus::WrongCore)
            stats_.wrongCoreRejections.inc();
        co_return res;
    }
    Realm& r = *realm(realm_id);
    Rec& rec = *findRec(realm_id, rec_id);
    if (cfg_.coreGapped && rec.boundCore == sim::invalidCore) {
        rec.boundCore = core;
        dedicated_[core] = {realm_id, rec_id};
    }
    rec.state = RecState::Running;
    // A REC dispatch onto a core still carrying another realm's
    // residue is a dirty-enter leak edge; audit before the guest runs.
    if (auto* chk = machine_.checker())
        chk->onRecEnter(core, r.domain);
    machine_.sim().tracer().begin("rec-run", sim::Tracer::coresPid,
                                  core);
    GuestContext& g = *rec.guest;

    const hw::Costs& costs = machine_.costs();
    hw::Core& hw_core = machine_.core(core);

    // Entry: validate args, restore context, synchronise list regs.
    co_await Compute{cost(costs.rmmEntryExit) + cost(costs.rmmLrSync)};
    hw_core.uarch().run(sim::monitorDomain, 64);
    for (hw::IntId id : args.injectVirqs) {
        // Fig. 5's other direction: when interrupts are delegated, the
        // monitor owns the virtual timer and the SGIs — a (possibly
        // malicious) host may not forge them into the guest.
        if (cfg_.delegateInterrupts &&
            (id == hw::vtimerPpi || hw::isSgi(id))) {
            stats_.filteredInjections.inc();
            continue;
        }
        g.injectVirq(id);
    }
    if (args.mmioResponse)
        g.completeMmio(*args.mmioResponse);

    ExitInfo exit;
    bool to_host = false;
    while (!to_host) {
        hw_core.setOccupant(r.domain);
        if (run_fn)
            exit = co_await run_fn(g, core);
        else
            exit = co_await g.runUntilExit(core);
        hw_core.setOccupant(sim::monitorDomain);
        switch (exit.reason) {
          case ExitReason::TimerIrq:
            if (cfg_.delegateInterrupts) {
                stats_.delegatedTimerEvents.inc();
                co_await Compute{cost(costs.rmmTimerEmulate)};
                g.injectVirq(hw::vtimerPpi);
                continue;
            }
            to_host = true;
            break;
          case ExitReason::TimerWrite:
            if (cfg_.delegateInterrupts) {
                stats_.delegatedTimerEvents.inc();
                co_await Compute{cost(costs.rmmTimerEmulate)};
                continue;
            }
            to_host = true;
            break;
          case ExitReason::SgiWrite:
            if (cfg_.delegateInterrupts) {
                stats_.delegatedIpis.inc();
                co_await Compute{cost(costs.rmmIpiEmulate)};
                co_await deliverVIpi(r, exit.target);
                continue;
            }
            to_host = true;
            break;
          case ExitReason::Hypercall:
            if (exit.code == rsiAttestCall) {
                // RSI calls are realm services: the monitor answers
                // without ever exposing them to the host. Token
                // signing is the expensive part.
                co_await Compute{cost(60 * sim::usec)};
                g.completeAttest(
                    authority_.issue(r.measurement, exit.data));
                stats_.rsiCalls.inc();
                continue;
            }
            to_host = true;
            break;
          case ExitReason::Wfi:
            if (cfg_.localWfi) {
                // Nothing else can use this dedicated core; idle here
                // until the guest has a reason to run (section 4.3).
                stats_.localWfiWaits.inc();
                continue;
            }
            to_host = true;
            break;
          default:
            to_host = true;
            break;
        }
    }

    // Exit: save and wipe guest context, sync + filter list registers.
    co_await Compute{cost(costs.rmmEntryExit) + cost(costs.rmmLrSync)};
    rec.state = exit.reason == ExitReason::Shutdown ? RecState::Stopped
                                                    : RecState::Ready;
    res.exit = exit;
    res.hostLrView = hostLrViewOf(g);
    stats_.exitsToHost.inc();
    if (exit.interruptRelated())
        stats_.irqRelatedExitsToHost.inc();
    machine_.sim().tracer().end("rec-run", sim::Tracer::coresPid, core,
                                "exit", exitReasonName(exit.reason));
    if (auto* chk = machine_.checker())
        chk->onRecExit(core, r.domain);
    co_return res;
}

Proc<void>
Rmm::deliverVIpi(Realm& r, int target_rec)
{
    if (target_rec < 0 ||
        target_rec >= static_cast<int>(r.recs.size())) {
        co_return;
    }
    Rec& target = r.recs[static_cast<size_t>(target_rec)];
    if (!target.guest || target.state == RecState::Destroyed)
        co_return;
    // Physical SGI latency to the target core, then inject directly in
    // the target's list registers — no exit on either side (table 3).
    co_await sim::Delay{cost(machine_.costs().sgiDeliver)};
    target.guest->injectVirq(hw::sgiBase + 1);
}

std::vector<hw::IntId>
Rmm::hostLrViewOf(GuestContext& g) const
{
    std::vector<hw::IntId> out;
    const hw::ListRegFile& lrs = g.listRegs();
    for (int i = 0; i < hw::ListRegFile::numRegs; ++i) {
        const hw::ListReg& lr = lrs.reg(i);
        if (!lr.valid())
            continue;
        // Fig. 5: delegated interrupts (virtual timer, virtual IPIs)
        // are hidden from the host's view.
        if (cfg_.delegateInterrupts &&
            (lr.vintid == hw::vtimerPpi || hw::isSgi(lr.vintid))) {
            continue;
        }
        out.push_back(lr.vintid);
    }
    return out;
}

// ------------------------------------------------------------ attestation

RmiStatus
Rmm::attest(int realm_id, std::uint64_t challenge,
            AttestationToken& out)
{
    stats_.rmiCalls.inc();
    Realm* r = realm(realm_id);
    if (!r || r->state != RealmState::Active)
        return RmiStatus::BadState;
    out = authority_.issue(r->measurement, challenge);
    return RmiStatus::Success;
}

} // namespace cg::rmm
