/**
 * @file
 * The four corgi-bench workloads. Each builds its testbeds through the
 * public workloads API, generates its inputs from the run seed, drives
 * the simulator in fixed quanta until the workload reports every
 * operation done, checks the simulated outputs, and hands a text
 * summary of them (simulated values only) to the phase digest.
 */

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench.hh"
#include "check/checker.hh"
#include "core/migration.hh"
#include "core/planner.hh"
#include "sim/simulation.hh"
#include "workloads/coremark.hh"
#include "workloads/iozone.hh"
#include "workloads/netpipe.hh"
#include "workloads/redis.hh"

namespace corgi::bench {

namespace sim = cg::sim;
namespace guest = cg::guest;
namespace host = cg::host;
namespace check = cg::check;
using cg::core::CorePlanner;
using cg::core::MigrateResult;
using cg::core::MigrationController;
using namespace cg::workloads;
using sim::msec;
using sim::Proc;
using sim::usec;

namespace {

constexpr RunMode kModes[] = {RunMode::SharedCore, RunMode::CoreGapped};

std::string
fmt(const char* f, auto... args)
{
    return sim::strFormat(f, args...);
}

/** An isolation checker attached to a testbed's machine for as long as
 * it lives (declare it after the Phase, so it detaches first). */
struct AttachedChecker {
    AttachedChecker(Phase& ph, Testbed& b) : bed(b)
    {
        ph.setup("IsolationChecker", [&] {
            checker = std::make_unique<check::IsolationChecker>(
                bed.sim().queue());
            bed.machine().attachChecker(checker.get());
            checker->registerStats(bed.sim().stats());
            return 0;
        });
    }
    ~AttachedChecker() { bed.machine().attachChecker(nullptr); }
    AttachedChecker(const AttachedChecker&) = delete;
    AttachedChecker& operator=(const AttachedChecker&) = delete;

    Testbed& bed;
    std::unique_ptr<check::IsolationChecker> checker;
};

// --------------------------------------------------------------- blk-io

/** Synchronous I/O count: the fixed simulated work of one phase. */
constexpr int kBlkOps = 20000;
constexpr Tick kBlkQuantum = 1 * msec;

struct IoOp {
    std::uint64_t bytes;
    bool write;
};

struct IoTally {
    int done = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    Digest completions; ///< completion ticks, in order
};

Proc<void>
ioMix(Testbed& bed, VmInstance& vm, const std::vector<IoOp>& ops,
      IoTally& t)
{
    co_await bed.started().wait();
    guest::VCpu& v = vm.vcpu(0);
    for (const IoOp& op : ops) {
        co_await vm.vblk->guestIo(v, op.bytes, op.write);
        ++t.done;
        (op.write ? t.bytesWritten : t.bytesRead) += op.bytes;
        t.completions.add(static_cast<std::uint64_t>(bed.sim().now()));
    }
    co_await v.shutdown();
}

} // namespace

void
runBlkIo(Ctx& ctx)
{
    for (int m = 0; m < 2; ++m) {
        const RunMode mode = kModes[m];
        Phase ph(ctx, fmt("blk-io/%s", runModeName(mode)), kBlkQuantum);

        // Record sizes 4 KiB .. 1 MiB (powers of two), reads and
        // writes mixed evenly; the same list in both modes.
        std::mt19937_64 rng(mixSeed(ctx.seed, 100));
        std::vector<IoOp> ops(kBlkOps);
        Digest in;
        for (IoOp& op : ops) {
            op.bytes = 4096ull << (rng() % 9);
            op.write = rng() % 2 == 1;
            in.add(op.bytes * 2 + (op.write ? 1 : 0));
        }
        ph.setInputs(in);

        Testbed::Config cfg;
        cfg.numCores = 16;
        cfg.mode = mode;
        cfg.seed = mixSeed(ctx.seed, static_cast<std::uint64_t>(m));
        Testbed& bed = ph.build(cfg);
        VmInstance& vm =
            ph.setup("createVm", [&]() -> VmInstance& {
                return bed.createVm("io", 4);
            });
        ph.setup("addVirtioBlk", [&] {
            bed.addVirtioBlk(vm);
            return 0;
        });
        // The gapped data path runs under the isolation checker: it must
        // stay free of leak edges (shared-core phases leak by design).
        std::optional<AttachedChecker> chk;
        if (isGapped(mode))
            chk.emplace(ph, bed);
        IoTally t;
        vm.vcpu(0).startGuest("io/mix", ioMix(bed, vm, ops, t));
        ph.boot(10 * sim::sec);
        if (ph.setupOnly())
            continue;
        ph.runUntil([&] { return t.done == kBlkOps; },
                    bed.sim().now() + 600 * sim::sec);

        ph.check(t.done == kBlkOps, "not every I/O completed");
        std::uint64_t want_r = 0, want_w = 0;
        for (const IoOp& op : ops)
            (op.write ? want_w : want_r) += op.bytes;
        ph.check(t.bytesRead == want_r && t.bytesWritten == want_w,
                 "I/O byte accounting");
        ph.check(!chk || chk->checker->edgeTotal() == 0, "leak edges != 0");
        ph.countOps(static_cast<std::uint64_t>(t.done));
        ph.finish(fmt("ios=%d read=%llu written=%llu completions=%s",
                      t.done, static_cast<unsigned long long>(t.bytesRead),
                      static_cast<unsigned long long>(t.bytesWritten),
                      t.completions.hex().c_str()));
    }
}

// ----------------------------------------------------------------- tick

namespace {

/** Simulated length of the timed phase. */
constexpr Tick kTickDuration = 10 * sim::sec;
constexpr Tick kTickQuantum = 10 * msec;
/** The vIPI sender stops this long before the end, so every vIPI it
 * sent has been handled when the phase stops. */
constexpr Tick kIpiQuiesce = 20 * msec;

struct IpiTally {
    std::uint64_t sent = 0;
    std::vector<std::uint64_t> handled;
};

Proc<void>
ipiSender(Testbed& bed, guest::VCpu& v, const std::vector<Tick>& gaps,
          const std::vector<int>& targets, Tick stop_after, IpiTally& t)
{
    co_await bed.started().wait();
    const Tick stop = bed.sim().now() + stop_after;
    for (std::size_t i = 0; bed.sim().now() < stop; ++i) {
        co_await sim::Compute{gaps[i % gaps.size()]};
        co_await v.sendVIpi(targets[i % targets.size()]);
        ++t.sent;
    }
}

Proc<void>
idleLoop(Testbed& bed, guest::VCpu& v)
{
    co_await bed.started().wait();
    for (;;)
        co_await v.idle();
}

} // namespace

void
runTick(Ctx& ctx)
{
    // Four VMs on 16 cores: two run CoreMark-PRO on every vCPU, one
    // has vCPU 0 sending vIPIs to three vCPUs idling in WFI, one only
    // idles. All keep the default 250 Hz guest tick. Gapped, every
    // VMM shares host core 0 (fig. 7's layout).
    const int vcpus[] = {4, 4, 4, 3};
    for (int m = 0; m < 2; ++m) {
        const RunMode mode = kModes[m];
        Phase ph(ctx, fmt("tick/%s", runModeName(mode)), kTickQuantum);

        // vIPI gaps 0.2-2 ms and targets 1-3 as fixed multisets in a
        // seeded order: every seed sends the same number of vIPIs to
        // each target, so only their timing differs.
        std::mt19937_64 rng(mixSeed(ctx.seed, 200));
        constexpr std::size_t kIpis = 510;
        std::vector<Tick> gaps(kIpis);
        std::vector<int> targets(kIpis);
        for (std::size_t i = 0; i < kIpis; ++i) {
            gaps[i] = 200 * usec + i * 1800 * usec / kIpis;
            targets[i] = 1 + static_cast<int>(i % 3);
        }
        for (std::size_t i = kIpis - 1; i > 0; --i) {
            std::swap(gaps[i], gaps[rng() % (i + 1)]);
            std::swap(targets[i], targets[rng() % (i + 1)]);
        }
        Digest in;
        for (std::size_t i = 0; i < kIpis; ++i) {
            in.add(gaps[i]);
            in.add(static_cast<std::uint64_t>(targets[i]));
        }
        ph.setInputs(in);

        Testbed::Config cfg;
        cfg.numCores = 16;
        cfg.mode = mode;
        cfg.seed = mixSeed(ctx.seed, 10 + static_cast<std::uint64_t>(m));
        Testbed& bed = ph.build(cfg);
        std::vector<VmInstance*> vms;
        sim::CoreId next = 1;
        for (int k = 0; k < 4; ++k) {
            vms.push_back(&ph.setup("createVm", [&]() -> VmInstance& {
                const std::string name = fmt("t%d", k);
                if (!isGapped(mode))
                    return bed.createVm(name, vcpus[k]);
                std::vector<sim::CoreId> guests;
                for (int i = 0; i < vcpus[k]; ++i)
                    guests.push_back(next++);
                return bed.createVmOn(name, guests,
                                      host::CpuMask::single(0),
                                      vcpus[k]);
            }));
        }
        CoreMarkPro::Config ccfg;
        ccfg.duration = kTickDuration;
        std::vector<std::unique_ptr<CoreMarkPro>> marks;
        for (int k = 0; k < 2; ++k) {
            marks.push_back(
                std::make_unique<CoreMarkPro>(bed, *vms[k], ccfg));
            marks.back()->install();
        }
        VmInstance& ipi_vm = *vms[2];
        IpiTally ipis;
        ipis.handled.assign(4, 0);
        for (int i = 1; i < 4; ++i) {
            ipi_vm.vcpu(i).setVirqHandler(
                cg::hw::sgiBase + 1,
                [&ipis, i] { ++ipis.handled[static_cast<size_t>(i)]; });
            ipi_vm.vcpu(i).startGuest("idle",
                                      idleLoop(bed, ipi_vm.vcpu(i)));
        }
        ipi_vm.vcpu(0).startGuest(
            "vipi", ipiSender(bed, ipi_vm.vcpu(0), gaps, targets,
                              kTickDuration - kIpiQuiesce, ipis));
        ph.boot(10 * sim::sec);
        if (ph.setupOnly())
            continue;
        const Tick end = bed.sim().now() + kTickDuration;
        ph.runUntil([&] { return bed.sim().now() >= end; }, end);

        std::string res;
        for (int k = 0; k < 2; ++k) {
            const CoreMarkPro::Result r = marks[static_cast<size_t>(k)]
                                              ->result();
            ph.check(r.iterations > 0, "CoreMark made no progress");
            res += fmt("cm%d iters=%llu elapsed=%llu ", k,
                       static_cast<unsigned long long>(r.iterations),
                       static_cast<unsigned long long>(r.elapsed));
        }
        std::uint64_t handled = 0;
        for (std::uint64_t h : ipis.handled)
            handled += h;
        ph.check(ipis.sent > 0 && handled == ipis.sent,
                 "vIPIs sent != vIPIs handled");
        res += fmt("vipis=%llu handled=%llu",
                   static_cast<unsigned long long>(ipis.sent),
                   static_cast<unsigned long long>(handled));
        ph.countOps(ipis.sent);
        ph.finish(res);
    }
}

// ---------------------------------------------------------------- churn

namespace {

/** ext_soak_churn's all-site plan, at its rates. */
constexpr const char* kChurnPlan =
    "ipi-drop:p=0.002:max=0;"
    "ipi-delay:p=0.002:param=10us:max=0;"
    "doorbell-lost:p=0.002:max=0;"
    "syncrpc-stall:p=0.002:max=0;"
    "monitor-hang:p=0.0005:max=3;"
    "hotplug-offline-fail:p=0.02:max=0;"
    "hotplug-online-fail:p=0.02:max=0;"
    "rmi-transient-error:p=0.005:max=0;"
    "scrub-skip:p=0.05:max=0;"
    "virtio-lost-kick:p=0.005:max=0;"
    "migration-abort:p=0.05:max=0;"
    "rtt-copy-stall:p=0.05:max=0";

constexpr int kChurnOps = 200;
enum class OpKind : std::uint8_t { Create, Migrate, Hotplug, Destroy };
/** The run opens with this many creates; then blocks of kBlock keep
 * 2-4 realms live (never kMaxLive + 1, so no create is refused). */
constexpr int kPrologue = 3;
constexpr OpKind C = OpKind::Create, M = OpKind::Migrate,
                 H = OpKind::Hotplug, D = OpKind::Destroy;
constexpr OpKind kBlock[20] = {D, C, M, H, C, D, M, D, C, M,
                               H, D, C, M, D, C, H, M, D, C};
constexpr int kChurnCores = 16;
constexpr int kChurnHostCores = 2;
constexpr int kCoresPerVm = 2;
constexpr std::size_t kMaxLive = 4;
constexpr Tick kOpGap = 2 * sim::sec;
constexpr Tick kOpDeadline = 30 * sim::sec;
constexpr Tick kChurnQuantum = 50 * msec;
constexpr int kCheckpointEvery = 16;

/** The churn guest (ext_soak_churn's): page faults + compute rounds,
 * then shutdown. */
Proc<void>
churnWorker(Testbed& bed, guest::VCpu& v, int idx, int rounds,
            std::uint64_t& completed)
{
    co_await bed.started().wait();
    for (int r = 0; r < rounds; ++r) {
        co_await v.pageFault(0x60000000ull +
                             (static_cast<std::uint64_t>(idx) * 1024 +
                              static_cast<std::uint64_t>(r) % 512) *
                                 4096);
        co_await sim::Compute{2 * msec};
        ++completed;
    }
    co_await v.shutdown();
}

/** A control-plane op in flight: set when its process finishes. */
struct Pending {
    bool done = false;
    Tick doneAt = 0;
};

Proc<void>
startOp(Testbed& bed, cg::core::GappedVm& g, int& out, Pending& p)
{
    out = (co_await g.start()) ? 1 : -1;
    p.done = true;
    p.doneAt = bed.sim().now();
}

Proc<void>
migrateOp(Testbed& bed, MigrationController& c,
          std::vector<sim::CoreId> dest, MigrateResult& res, Pending& p)
{
    if (dest.empty())
        res = co_await c.migrate();
    else
        res = co_await c.migrateTo(std::move(dest));
    p.done = true;
    p.doneAt = bed.sim().now();
}

Proc<void>
destroyOp(Testbed& bed, cg::core::GappedVm& g, bool teardown, Pending& p)
{
    if (teardown)
        co_await g.teardown();
    else
        co_await g.terminate();
    p.done = true;
    p.doneAt = bed.sim().now();
}

Proc<void>
hotplugOp(Testbed& bed, sim::CoreId c, Pending& p)
{
    host::Kernel& k = bed.kernel();
    bool off = co_await k.offlineCore(c);
    if (!off)
        off = co_await k.offlineCore(c);
    if (off) {
        while (!co_await k.onlineCore(c)) {
        }
    }
    p.done = true;
    p.doneAt = bed.sim().now();
}

struct Slot {
    VmInstance* inst = nullptr;
    std::string name;
    std::unique_ptr<MigrationController> ctrl;
    std::vector<std::uint64_t> rounds;
    std::uint64_t lostSeen = 0;
};

/** One op, generated up front from the seed; it consumes the random
 * draws its kind and the current state call for. */
struct OpDraw {
    OpKind kind;
    std::uint64_t pick, coin, rounds;
};

} // namespace

void
runChurn(Ctx& ctx)
{
    Phase ph(ctx, "churn/core-gapped", kChurnQuantum);

    // ext_soak_churn's op mix (30% create, 25% migrate, 15% hotplug,
    // 30% destroy) in a fixed interleaving (kBlock), so every seed
    // keeps the same number of realms live at each step. The seed
    // picks each op's target realm, teardown vs terminate, defrag vs
    // explicit destination and the guests' round counts (and, through
    // the testbed seed, the fault stream).
    const int n_ops = ctx.churnOps > 0 ? ctx.churnOps : kChurnOps;
    std::mt19937_64 rng(mixSeed(ctx.seed, 300));
    std::vector<OpDraw> draws(static_cast<size_t>(n_ops));
    for (int k = 0; k < n_ops; ++k) {
        draws[static_cast<size_t>(k)].kind =
            k < kPrologue ? C : kBlock[(k - kPrologue) % 20];
    }
    Digest in;
    for (OpDraw& d : draws) {
        d.pick = rng();
        d.coin = rng();
        d.rounds = rng();
        in.add(static_cast<std::uint64_t>(d.kind));
        in.add(d.pick);
        in.add(d.coin);
        in.add(d.rounds);
    }
    ph.setInputs(in);

    Testbed::Config cfg;
    cfg.numCores = kChurnCores;
    cfg.mode = RunMode::CoreGapped;
    cfg.seed = mixSeed(ctx.seed, 20);
    cfg.verifyScrubs = true; // fault-armed churn must run leak-free
    Testbed& bed = ph.build(cfg);
    AttachedChecker chk(ph, bed);
    check::IsolationChecker* checker = chk.checker.get();
    ph.setup("FaultPlan", [&] {
        bed.sim().faults().arm(mixSeed(ctx.seed, 21),
                               sim::FaultPlan::parse(kChurnPlan));
        bed.sim().faults().registerStats(bed.sim().stats());
        return 0;
    });
    auto planner_ptr = ph.setup("CorePlanner", [&] {
        return std::make_unique<CorePlanner>(
            bed.machine(), host::CpuMask::firstN(kChurnHostCores));
    });
    CorePlanner& planner = *planner_ptr;
    ph.boot(10 * sim::sec);
    if (ph.setupOnly())
        return;

    std::vector<std::unique_ptr<Slot>> live;
    int next_id = 0;
    std::uint64_t quarantined = 0, committed = 0, rolled_back = 0,
                  refused = 0, migrate_ops = 0, creates = 0,
                  create_refused = 0, start_failures = 0, hotplugs = 0,
                  destroys = 0, terminates = 0, worker_rounds = 0;
    Digest op_log; ///< op kind, outcome and simulated duration, in order
    Tick t = bed.sim().now();

    auto harvest_lost = [&](Slot& s) {
        const std::uint64_t lost = s.inst->gapped->coresLost();
        quarantined += lost - s.lostSeen;
        s.lostSeen = lost;
    };
    auto retire = [&](Slot& s) {
        // Per-VM StatGroups detach on destruction: fold them first.
        ph.retireVm(s.name);
        s.ctrl.reset();
        bed.destroyVm(*s.inst);
    };
    auto checkpoint = [&] {
        ph.check(checker->edgeTotal() == 0, "leak edges != 0");
        const int live_cores = static_cast<int>(live.size()) * kCoresPerVm;
        ph.check(planner.reservedCores() ==
                     live_cores + static_cast<int>(quarantined),
                 "planner reservation drift");
        ph.check(bed.kernel().onlineCount() ==
                     kChurnCores - live_cores -
                         static_cast<int>(quarantined),
                 "online-core conservation drift");
        const auto& rs = bed.rmm().stats();
        ph.check(rs.migrationsStarted.value() ==
                     rs.migrationsCommitted.value() +
                         rs.migrationsAborted.value(),
                 "migration phase accounting drift");
        ph.check(committed + rolled_back + refused == migrate_ops,
                 "migration outcome tally drift");
    };

    /**
     * Run one op: @p issue spawns its process (or returns false for a
     * no-op); the op then runs on the grid of kOpGap until its Pending
     * completes, and @p complete does the host-side follow-up at the
     * grid point. Traced runs record a span from issue to the first
     * quantum boundary that sees the op done.
     */
    auto run_op = [&](const char* kind, auto issue, auto complete) {
        Pending p;
        const Tick issued = bed.sim().now();
        bool span_open = ctx.spans != nullptr;
        if (span_open)
            ctx.spans->begin(kind, sim::toSec(issued));
        auto close_span = [&] {
            if (span_open && p.done) {
                ctx.spans->end(sim::toSec(bed.sim().now()));
                span_open = false;
            }
        };
        if (issue(p)) {
            const Tick deadline = t + kOpDeadline;
            do {
                t += kOpGap;
                ph.advanceTo(t, close_span);
            } while (!p.done && t < deadline);
            ph.check(p.done, fmt("%s op wedged past its deadline", kind));
            op_log.add(fmt("%s %llu", kind,
                           static_cast<unsigned long long>(
                               p.doneAt - issued)));
        } else {
            p.done = true;
            close_span();
            t += kOpGap;
            ph.advanceTo(t, {});
        }
        if (span_open) // wedged: close at the deadline
            ctx.spans->end(sim::toSec(bed.sim().now()));
        complete(p);
    };

    auto op_create = [&](const OpDraw& d) {
        Slot* slot = nullptr;
        int started = 0;
        run_op(
            "create",
            [&](Pending& p) {
                if (live.size() >= kMaxLive) {
                    ++create_refused;
                    return false;
                }
                auto cores = planner.reserve(kCoresPerVm);
                if (!cores) {
                    ++create_refused;
                    return false;
                }
                live.push_back(std::make_unique<Slot>());
                slot = live.back().get();
                const int id = next_id++;
                slot->name = fmt("churn%d", id);
                guest::VmConfig vcfg;
                vcfg.tickPeriod = 0; // sparse guests: control plane
                slot->inst = &bed.createVmOn(
                    slot->name, *cores,
                    host::CpuMask::single(id % kChurnHostCores),
                    kCoresPerVm, vcfg, &planner);
                slot->rounds.assign(kCoresPerVm, 0);
                const int rounds = 6 + static_cast<int>(d.rounds % 18);
                for (int i = 0; i < kCoresPerVm; ++i) {
                    slot->inst->vcpu(i).startGuest(
                        "w", churnWorker(
                                 bed, slot->inst->vcpu(i), i, rounds,
                                 slot->rounds[static_cast<size_t>(i)]));
                }
                bed.sim().spawn("churn-start",
                                startOp(bed, *slot->inst->gapped,
                                        started, p));
                return true;
            },
            [&](Pending&) {
                if (!slot)
                    return;
                if (started == 1) {
                    slot->ctrl = std::make_unique<MigrationController>(
                        *slot->inst->gapped, nullptr);
                    slot->ctrl->registerStats(bed.sim().stats());
                    ++creates;
                    return;
                }
                // Rolled back: the runner released its reservations,
                // minus any core a double hotplug failure quarantined.
                ++start_failures;
                harvest_lost(*slot);
                retire(*slot);
                live.pop_back();
            });
    };

    auto op_migrate = [&](const OpDraw& d) {
        MigrateResult res = MigrateResult::Refused;
        Slot* s = nullptr;
        run_op(
            "migrate",
            [&](Pending& p) {
                if (live.empty())
                    return false;
                s = live[d.pick % live.size()].get();
                // Half defrag-policy moves, half explicit moves to a
                // fresh pool (released right back for the controller).
                std::vector<sim::CoreId> dest;
                if (d.coin % 2 == 0) {
                    if (auto fresh = planner.reserve(kCoresPerVm)) {
                        planner.release(*fresh);
                        dest = *fresh;
                    }
                }
                bed.sim().spawn("churn-migrate",
                                migrateOp(bed, *s->ctrl, dest, res, p));
                return true;
            },
            [&](Pending& p) {
                if (!s || !p.done)
                    return;
                ++migrate_ops;
                switch (res) {
                  case MigrateResult::Committed:
                    ++committed;
                    break;
                  case MigrateResult::RolledBack:
                    ++rolled_back;
                    break;
                  case MigrateResult::Refused:
                    ++refused;
                    break;
                }
                harvest_lost(*s);
            });
    };

    auto op_hotplug = [&](const OpDraw&) {
        std::optional<std::vector<sim::CoreId>> core;
        run_op(
            "hotplug",
            [&](Pending& p) {
                core = planner.reserve(1);
                if (!core)
                    return false;
                bed.sim().spawn("churn-hotplug",
                                hotplugOp(bed, (*core)[0], p));
                return true;
            },
            [&](Pending&) {
                if (!core)
                    return;
                planner.release(*core);
                ++hotplugs;
            });
    };

    auto op_destroy = [&](const OpDraw& d) {
        std::size_t idx = 0;
        run_op(
            "destroy",
            [&](Pending& p) {
                if (live.empty())
                    return false;
                idx = d.pick % live.size();
                Slot& s = *live[idx];
                // Clean guests tear down; running (or monitor-hung)
                // ones are terminated, and a fifth of the clean ones
                // too, to keep the escalation path hot.
                const bool clean = s.inst->kvm->shutdownGate().isOpen();
                const bool teardown = clean && d.coin % 5 != 0;
                if (!teardown)
                    ++terminates;
                bed.sim().spawn("churn-destroy",
                                destroyOp(bed, *s.inst->gapped,
                                          teardown, p));
                return true;
            },
            [&](Pending& p) {
                if (live.empty() || !p.done)
                    return;
                Slot& s = *live[idx];
                harvest_lost(s);
                for (std::uint64_t r : s.rounds)
                    worker_rounds += r;
                retire(s);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(idx));
                ++destroys;
            });
    };

    ph.beginTimed();
    for (int k = 0; k < n_ops; ++k) {
        const OpDraw& d = draws[static_cast<size_t>(k)];
        switch (d.kind) {
          case OpKind::Create:
            op_create(d);
            break;
          case OpKind::Migrate:
            op_migrate(d);
            break;
          case OpKind::Hotplug:
            op_hotplug(d);
            break;
          case OpKind::Destroy:
            op_destroy(d);
            break;
        }
        ph.markOp();
        if ((k + 1) % kCheckpointEvery == 0)
            checkpoint();
    }
    // Drain: destroy every remaining realm; afterwards only
    // quarantined cores may stay reserved.
    while (!live.empty())
        op_destroy(OpDraw{D, 0, 1, 0});
    ph.endTimed();
    checkpoint();
    ph.check(planner.reservedCores() == static_cast<int>(quarantined),
             "cores leaked after full drain");

    const sim::FaultPlan& faults = bed.sim().faults();
    ph.countOps(static_cast<std::uint64_t>(n_ops));
    const std::string res = fmt(
        "ops=%d creates=%llu refusedCreates=%llu startFailures=%llu "
        "migrates=%llu committed=%llu rolledBack=%llu refused=%llu "
        "hotplugs=%llu destroys=%llu terminates=%llu rounds=%llu "
        "quarantined=%llu faults=%llu leakEdges=%llu log=%s",
        n_ops, static_cast<unsigned long long>(creates),
        static_cast<unsigned long long>(create_refused),
        static_cast<unsigned long long>(start_failures),
        static_cast<unsigned long long>(migrate_ops),
        static_cast<unsigned long long>(committed),
        static_cast<unsigned long long>(rolled_back),
        static_cast<unsigned long long>(refused),
        static_cast<unsigned long long>(hotplugs),
        static_cast<unsigned long long>(destroys),
        static_cast<unsigned long long>(terminates),
        static_cast<unsigned long long>(worker_rounds),
        static_cast<unsigned long long>(quarantined),
        static_cast<unsigned long long>(faults.injectedTotal()),
        static_cast<unsigned long long>(checker->edgeTotal()),
        op_log.hex().c_str());
    ph.finish(res);
}

// --------------------------------------------------------------- net-rr

namespace {

constexpr int kRoundTrips = 10000;
constexpr Tick kRrQuantum = 1 * msec;
/** Open-loop GET rate on the multi-queue NIC: below the ~40 krps knee
 * of the gapped trapped path, so every request completes. */
constexpr double kMqKrps = 30.0;

enum class Nic { Virtio, MqTrapped, Sriov };

const char*
nicName(Nic n)
{
    switch (n) {
      case Nic::Virtio:
        return "virtio";
      case Nic::MqTrapped:
        return "mq";
      case Nic::Sriov:
        return "sriov";
    }
    return "?";
}

struct RrTally {
    int done = 0;
    std::uint64_t stray = 0;
    Tick rttSum = 0;
};

/** Closed-loop ping-pong: one single-packet message at a time, each
 * echoed back by the remote NetPipe responder. */
Proc<void>
rrClient(Testbed& bed, VmInstance& vm, GuestNic& nic, RemoteHost& remote,
         const std::vector<std::uint64_t>& sizes, RrTally& t)
{
    co_await bed.started().wait();
    guest::VCpu& v = vm.vcpu(0);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const std::uint64_t id = i + 1;
        const Tick t0 = bed.sim().now();
        co_await nic.send(v, sizes[i] + NetPipe::frameOverhead,
                          remote.port(), NetPipe::cookieOf(id, 1));
        for (;;) {
            const cg::vmm::Packet p = co_await nic.recv(v);
            if (NetPipe::msgIdOf(p.cookie) == id)
                break;
            ++t.stray;
        }
        t.rttSum += bed.sim().now() - t0;
        ++t.done;
    }
    co_await v.shutdown();
}

} // namespace

void
runNetRr(Ctx& ctx)
{
    std::mt19937_64 rng(mixSeed(ctx.seed, 400));
    std::vector<std::uint64_t> sizes(kRoundTrips);
    Digest in;
    for (std::uint64_t& s : sizes) {
        s = 64 + rng() % (NetPipe::mtuPayload - 64 + 1);
        in.add(s);
    }
    // The open-loop arrival stream comes from the testbed seed.
    const Tick mq_window = static_cast<Tick>(
        static_cast<double>(kRoundTrips) / (kMqKrps * 1e3) *
        static_cast<double>(sim::sec));

    int phase = 0;
    for (Nic nic : {Nic::Virtio, Nic::MqTrapped, Nic::Sriov}) {
        for (RunMode mode : kModes) {
            Phase ph(ctx, fmt("net-rr/%s/%s", nicName(nic),
                              runModeName(mode)),
                     kRrQuantum);
            Testbed::Config cfg;
            cfg.numCores = 16;
            cfg.mode = mode;
            cfg.seed = mixSeed(ctx.seed,
                               30 + static_cast<std::uint64_t>(phase++));
            if (nic == Nic::MqTrapped) {
                // The open loop ignores the message sizes: its inputs
                // are the arrival stream (testbed seed) and its config.
                Digest mq_in;
                mq_in.add(cfg.seed);
                mq_in.add(static_cast<std::uint64_t>(kMqKrps * 1e3));
                mq_in.add(static_cast<std::uint64_t>(mq_window));
                ph.setInputs(mq_in);
            } else {
                ph.setInputs(in);
            }
            Testbed& bed = ph.build(cfg);
            VmInstance& vm = ph.setup("createVm", [&]() -> VmInstance& {
                return bed.createVm("rr", 5);
            });
            std::unique_ptr<GuestNic> gnic;
            ph.setup("addNic", [&] {
                switch (nic) {
                  case Nic::Virtio:
                    bed.addVirtioNet(vm);
                    gnic = std::make_unique<VirtioGuestNic>(*vm.vnet);
                    break;
                  case Nic::MqTrapped: {
                    Testbed::MqNicOptions o;
                    o.queues = 4;
                    bed.addMqNic(vm, o);
                    gnic = std::make_unique<MqGuestNic>(*vm.mqnet);
                    break;
                  }
                  case Nic::Sriov:
                    bed.addSriovNic(vm);
                    gnic = std::make_unique<SriovGuestNic>(*vm.sriov);
                    break;
                }
                return 0;
            });
            const Tick stack = bed.machine().costs().remoteStack;
            RemoteHost remote(bed.sim(), bed.fabric(), stack,
                              nic == Nic::MqTrapped ? 8 : 1);
            std::string res;
            if (nic == Nic::MqTrapped) {
                RedisOpenLoop::Config rcfg;
                rcfg.op = RedisOp::Get;
                rcfg.offeredKrps = kMqKrps;
                rcfg.duration = mq_window;
                rcfg.serverThreads = 4;
                RedisOpenLoop ol(bed, vm, *gnic, remote, rcfg);
                ol.install();
                ph.boot(10 * sim::sec);
                if (ph.setupOnly())
                    continue;
                const Tick window_end = bed.sim().now() + mq_window;
                ph.runUntil(
                    [&] {
                        const RedisOpenLoop::Result r = ol.result();
                        return bed.sim().now() > window_end &&
                               r.sent > 0 && r.completed == r.sent;
                    },
                    window_end + 60 * sim::sec);
                const RedisOpenLoop::Result r = ol.result();
                ph.check(r.sent > 0 && r.completed == r.sent,
                         "open-loop requests unanswered");
                ph.countOps(r.completed);
                res = fmt("sent=%llu completed=%llu p50=%.6f p99=%.6f "
                          "p999=%.6f maxInFlight=%llu",
                          static_cast<unsigned long long>(r.sent),
                          static_cast<unsigned long long>(r.completed),
                          r.p50Ms, r.p99Ms, r.p999Ms,
                          static_cast<unsigned long long>(r.maxInFlight));
                ph.finish(res);
            } else {
                NetPipeResponder echo(remote);
                RrTally t;
                vm.vcpu(0).startGuest(
                    "rr", rrClient(bed, vm, *gnic, remote, sizes, t));
                ph.boot(10 * sim::sec);
                if (ph.setupOnly())
                    continue;
                ph.runUntil([&] { return t.done == kRoundTrips; },
                            bed.sim().now() + 600 * sim::sec);
                ph.check(t.done == kRoundTrips && t.stray == 0,
                         "round trips unaccounted for");
                ph.countOps(static_cast<std::uint64_t>(t.done));
                res = fmt("rtts=%d stray=%llu rttSum=%llu", t.done,
                          static_cast<unsigned long long>(t.stray),
                          static_cast<unsigned long long>(t.rttSum));
                ph.finish(res);
            }
        }
    }
}

// ------------------------------------------------------ fig. 9 probe

void
runFig9Probe(Ctx& ctx)
{
    constexpr int kReads = 4096;
    for (int m = 0; m < 2; ++m) {
        const RunMode mode = kModes[m];
        Phase ph(ctx, fmt("fig9-probe/%s", runModeName(mode)),
                 kTickQuantum);
        Testbed::Config cfg;
        cfg.numCores = 16;
        cfg.mode = mode;
        Testbed& bed = ph.build(cfg);
        VmInstance& vm = bed.createVm("io", 16);
        bed.addVirtioBlk(vm);
        IoZone::Config icfg;
        icfg.recordBytes = 4096;
        icfg.fileBytes = 512ull << 20;
        icfg.maxOps = kReads;
        IoZone io(bed, vm, icfg);
        io.install();
        ph.boot(10 * sim::sec);
        ph.runUntil([&] { return io.result().ops == kReads; },
                    120 * sim::sec);
        ph.markIoDone();
        ph.beginTimed();
        ph.advanceTo(120 * sim::sec, {});
        ph.endTimed();
        ph.finish(fmt("reads=%d", io.result().ops));
    }
}

const std::vector<WorkloadDef>&
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"blk-io", runBlkIo},
        {"tick", runTick},
        {"churn", runChurn},
        {"net-rr", runNetRr},
    };
    return defs;
}

} // namespace corgi::bench
