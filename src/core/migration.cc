#include "core/migration.hh"

#include "check/checker.hh"
#include "core/planner.hh"
#include "core/scrub.hh"
#include "sim/simulation.hh"

namespace cg::core {

using rmm::granuleSize;
using rmm::PhysAddr;
using rmm::RmiStatus;
using sim::CoreId;
using sim::Tick;

MigrationController::MigrationController(GappedVm& vm,
                                         CorePlanner* planner,
                                         MigrationConfig cfg)
    : vm_(vm),
      planner_(planner ? planner : vm.config().planner),
      cfg_(cfg)
{
    // Reservation bookkeeping must go through one planner: the VM's
    // teardown releases whatever pool it ends up on.
    if (planner && vm.config().planner &&
        planner != vm.config().planner) {
        sim::fatal("MigrationController: planner differs from the "
                   "VM's planner");
    }
}

void
MigrationController::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, "migrate." + vm_.kvm_.guestVm().name());
    statGroup_.add("committed", committed_);
    statGroup_.add("rolledBack", rolledBack_);
    statGroup_.add("refused", refused_);
    statGroup_.add("copyRetries", copyRetries_);
}

PhysAddr
MigrationController::nextWindowBase()
{
    // Disjoint from every createRealmFor() window ((domain + 0x100)
    // << 32) and from every other migration's: (domain, seq) -> base
    // is injective while seq < 2^12 (a window is 2^24 bytes = 4096
    // granules, far above any realm's granule count).
    CG_ASSERT(seq_ < (1ull << 12), "migration window space exhausted");
    const auto domain = static_cast<std::uint64_t>(
        vm_.kvm_.guestVm().domain());
    return (0x5ull << 44) + (domain << 36) + (seq_++ << 24);
}

sim::Proc<void>
MigrationController::rollbackAttempt(
    const std::vector<CoreId>& dest_taken, bool prepared,
    std::size_t delegated, PhysAddr base, bool monitors_retired)
{
    rmm::Rmm& rmm = vm_.rmm_;
    hw::Machine& machine = vm_.kvm_.kernel().machine();

    // Undo the RMM's side: abort restores core bindings and releases
    // the partial destination copy back to Delegated.
    if (prepared &&
        rmm.migrationPhase(vm_.realm_) != rmm::MigrationPhase::Idle) {
        const RmiStatus s = rmm.migrateAbort(vm_.realm_);
        CG_ASSERT(s == RmiStatus::Success, "migrateAbort failed: %s",
                  rmm::rmiStatusName(s));
    }
    // The destination window returns to the host.
    for (std::size_t i = 0; i < delegated; ++i) {
        const RmiStatus s =
            rmm.granuleUndelegate(base + i * granuleSize);
        CG_ASSERT(s == RmiStatus::Success,
                  "rollback undelegate failed: %s",
                  rmm::rmiStatusName(s));
    }
    // Destination cores go back online. No guest ever ran there, but
    // the monitor owned them: scrub its residue first (I10), exactly
    // like a failed start().
    for (CoreId core : dest_taken) {
        scrubForHandback(machine, core, sim::invalidDomain, false,
                         nullptr);
        co_await vm_.returnCore(core);
    }
    // The realm keeps running where it was: respawn the source
    // monitor loops if we already retired them.
    if (monitors_retired) {
        for (int i = 0; i < vm_.kvm_.guestVm().numVcpus(); ++i)
            vm_.spawnMonitor(i);
    }
    vm_.unparkAll();
}

sim::Proc<bool>
MigrationController::attempt(const std::vector<CoreId>& dest,
                             bool& refused_out, bool& abort_out)
{
    rmm::Rmm& rmm = vm_.rmm_;
    const int realm = vm_.realm_;
    hw::Machine& machine = vm_.kvm_.kernel().machine();
    sim::Simulation& sim = machine.sim();
    const hw::Costs& costs = machine.costs();
    const std::string& name = vm_.kvm_.guestVm().name();
    const int n = vm_.kvm_.guestVm().numVcpus();
    const std::vector<CoreId> src = vm_.cfg_.guestCores;

    const auto abort_injected = [&sim] {
        return sim.faults()
            .query(sim::FaultSite::MigrationAbort)
            .has_value();
    };

    // 1. Pause the realm (bounded): a hung monitor refuses the whole
    //    migration rather than wedging it.
    if (!co_await vm_.parkAll(GappedVm::parkDeadline)) {
        sim::warn("%s: migration refused: a monitor never parked its "
                  "vCPU (hung?)", name.c_str());
        refused_out = true;
        co_return false;
    }

    if (abort_injected()) {
        sim.faults().noteDetected(sim::FaultSite::MigrationAbort);
        abort_out = true;
        co_await rollbackAttempt({}, false, 0, 0, false);
        co_return false;
    }

    // Snapshot the source granule addresses now: after commit they
    // are Delegated and must be handed back to the host.
    const auto src_granules = rmm.granules().owned(realm);

    // 2. Prepare: the RMM snapshots granules and core bindings.
    RmiStatus s = rmm.migratePrepare(realm);
    if (s != RmiStatus::Success) {
        sim::warn("%s: migratePrepare refused: %s", name.c_str(),
                  rmm::rmiStatusName(s));
        refused_out = true;
        co_await rollbackAttempt({}, false, 0, 0, false);
        co_return false;
    }

    // 3. Delegate the destination window.
    const std::size_t total = rmm.migrationGranuleCount(realm);
    const PhysAddr base = nextWindowBase();
    for (std::size_t i = 0; i < total; ++i) {
        s = rmm.granuleDelegate(base + i * granuleSize);
        if (s != RmiStatus::Success) {
            sim::warn("%s: migration delegate failed: %s",
                      name.c_str(), rmm::rmiStatusName(s));
            co_await rollbackAttempt({}, true, i, base, false);
            co_return false;
        }
    }

    // 4. Copy, in batches, with stall retry/backoff. The RMM charges
    //    nothing (same contract as every RMI); the control plane
    //    charges the copy+measurement cost per granule moved.
    Tick backoff = cfg_.retryBackoff;
    int stall_retries = 0;
    bool stalled = false;
    while (rmm.migrationPhase(realm) != rmm::MigrationPhase::Copied) {
        std::size_t copied = 0;
        s = rmm.migrateCopy(realm, base, cfg_.copyBatch, copied);
        if (s == RmiStatus::Busy) {
            // An injected rtt-copy-stall bounced the batch. Back off
            // (doubling) and resume from the cursor.
            if (!stalled) {
                sim.faults().noteDetected(
                    sim::FaultSite::RttCopyStall);
                stalled = true;
            }
            copyRetries_.inc();
            if (++stall_retries > cfg_.maxCopyRetries) {
                sim::warn("%s: migration copy stalled %d times; "
                          "rolling back", name.c_str(), stall_retries);
                co_await rollbackAttempt({}, true, total, base, false);
                co_return false;
            }
            co_await sim::Delay{backoff};
            backoff *= 2;
            continue;
        }
        if (s != RmiStatus::Success) {
            sim::warn("%s: migrateCopy failed: %s", name.c_str(),
                      rmm::rmiStatusName(s));
            co_await rollbackAttempt({}, true, total, base, false);
            co_return false;
        }
        if (stalled) {
            sim.faults().noteRecovered(sim::FaultSite::RttCopyStall);
            stalled = false;
            stall_retries = 0;
            backoff = cfg_.retryBackoff;
        }
        co_await sim::Delay{machine.cost(
            costs.granuleCopy * static_cast<Tick>(copied))};
    }

    if (abort_injected()) {
        sim.faults().noteDetected(sim::FaultSite::MigrationAbort);
        abort_out = true;
        co_await rollbackAttempt({}, true, total, base, false);
        co_return false;
    }

    // 5. Retire the source monitor loops (they are idle: the realm is
    //    suspended, so no run call or sync RPC is pending).
    co_await vm_.retireMonitors(0, n);

    // 6. Dedicate the destination pool: hotplug each core out of the
    //    host and hand it to the monitor in realm world.
    std::vector<CoreId> dest_taken;
    for (CoreId core : dest) {
        if (!co_await vm_.dedicateCore(core)) {
            sim::warn("%s: migration could not dedicate core %d; "
                      "rolling back", name.c_str(), core);
            co_await rollbackAttempt(dest_taken, true, total, base,
                                     true);
            co_return false;
        }
        dest_taken.push_back(core);
    }

    // 7. Move each bound REC onto its destination core.
    for (int i = 0; i < n; ++i) {
        if (rmm.recBinding(realm, i) == sim::invalidCore)
            continue; // never dispatched: binds on first enter
        s = rmm.migrateBindRec(realm, i,
                               dest[static_cast<size_t>(i)]);
        if (s != RmiStatus::Success) {
            sim::warn("%s: migrateBindRec(%d) refused: %s",
                      name.c_str(), i, rmm::rmiStatusName(s));
            co_await rollbackAttempt(dest_taken, true, total, base,
                                     true);
            co_return false;
        }
    }

    if (abort_injected()) {
        sim.faults().noteDetected(sim::FaultSite::MigrationAbort);
        abort_out = true;
        co_await rollbackAttempt(dest_taken, true, total, base, true);
        co_return false;
    }

    // 8. Commit: every granule reference rewrites to the destination
    //    window and the source granules release. Point of no return.
    s = rmm.migrateCommit(realm);
    CG_ASSERT(s == RmiStatus::Success, "migrateCommit failed: %s",
              rmm::rmiStatusName(s));

    // 9. The realm now lives on the destination pool: monitors, kick
    //    targets, and direct-delivery routes follow it.
    vm_.cfg_.guestCores = dest;
    for (int i = 0; i < n; ++i)
        vm_.spawnMonitor(i);
    vm_.routeDirectIrqs();

    // 10. Scrub-verified source handback: each source core is scrubbed
    //     of guest and monitor residue (or, under verifyScrubs, the
    //     skipped scrub is caught and repaired), the isolation checker
    //     audits the handback, and the core returns to the host.
    const sim::DomainId guest_domain = vm_.kvm_.guestVm().domain();
    for (CoreId core : src) {
        scrubForHandback(machine, core, guest_domain,
                         vm_.rmm_.config().verifyScrubs,
                         &vm_.scrubRepairs_);
        if (machine.checker())
            machine.checker()->onMigrationHandback(core);
        co_await vm_.returnCore(core);
    }
    // The released source granules return to the host.
    for (const auto& [addr, state] : src_granules) {
        (void)state;
        const RmiStatus us = rmm.granuleUndelegate(addr);
        CG_ASSERT(us == RmiStatus::Success,
                  "source undelegate failed: %s",
                  rmm::rmiStatusName(us));
    }

    vm_.unparkAll();
    co_return true;
}

sim::Proc<MigrateResult>
MigrationController::migrateTo(std::vector<CoreId> dest)
{
    hw::Machine& machine = vm_.kvm_.kernel().machine();
    const std::string& name = vm_.kvm_.guestVm().name();
    const int n = vm_.kvm_.guestVm().numVcpus();

    const auto refuse = [&](const char* why) {
        sim::warn("%s: migration refused: %s", name.c_str(), why);
        refused_.inc();
        return MigrateResult::Refused;
    };
    // Every refusal comes before the VM enters Migrating.
    const auto to = co_await vm_.settle(GappedVm::Op::Move);
    if (!to)
        co_return refuse("VM is not running");
    if (static_cast<int>(dest.size()) != n)
        co_return refuse("destination pool size != vCPU count");
    if (const char* why = vm_.destinationRefusal(dest, planner_))
        co_return refuse(why);
    if (planner_)
        planner_->reserveExact(dest);
    vm_.enter(*to);

    const std::vector<CoreId> src = vm_.cfg_.guestCores;

    bool abort_seen = false;
    Tick backoff = cfg_.retryBackoff;
    for (int a = 0; a < cfg_.maxAttempts; ++a) {
        bool att_refused = false;
        bool att_abort = false;
        const bool ok = co_await attempt(dest, att_refused, att_abort);
        abort_seen = abort_seen || att_abort;
        if (ok) {
            if (abort_seen) {
                machine.sim().faults().noteRecovered(
                    sim::FaultSite::MigrationAbort);
            }
            committed_.inc();
            vm_.releaseCores(planner_, src);
            vm_.enter(GappedVm::Lifecycle::Running);
            co_return MigrateResult::Committed;
        }
        if (att_refused) {
            vm_.releaseCores(planner_, dest);
            refused_.inc();
            vm_.enter(GappedVm::Lifecycle::Running);
            co_return MigrateResult::Refused;
        }
        if (a + 1 < cfg_.maxAttempts) {
            co_await sim::Delay{backoff};
            backoff *= 2;
        }
    }
    sim::warn("%s: migration rolled back after %d attempts; realm "
              "intact on its source cores", name.c_str(),
              cfg_.maxAttempts);
    vm_.releaseCores(planner_, dest);
    rolledBack_.inc();
    vm_.enter(GappedVm::Lifecycle::Running);
    co_return MigrateResult::RolledBack;
}

sim::Proc<MigrateResult>
MigrationController::migrate()
{
    if (!planner_) {
        sim::warn("%s: defrag migrate needs a planner",
                  vm_.kvm_.guestVm().name().c_str());
        refused_.inc();
        co_return MigrateResult::Refused;
    }
    const auto dest = planner_->planDefragMove(vm_.cfg_.guestCores);
    if (!dest) {
        // No strictly improving contiguous move exists.
        refused_.inc();
        co_return MigrateResult::Refused;
    }
    co_return co_await migrateTo(*dest);
}

} // namespace cg::core
