/**
 * @file
 * google-benchmark microbenchmarks of the simulation kernel itself
 * (wall-clock performance of the event queue, coroutine processes, and
 * a full testbed boot). These bound how long the table/figure
 * harnesses take, and catch regressions in the simulator's hot paths.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "hw/uarch.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "workloads/coremark.hh"

namespace sim = cg::sim;
using namespace cg::workloads;

namespace {

void
eventQueueChurn(benchmark::State& state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (int i = 0; i < state.range(0); ++i) {
            q.schedule(static_cast<sim::Tick>(i) * sim::nsec,
                       [&sink] { ++sink; });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(eventQueueChurn)->Arg(1000)->Arg(100000);

/** Schedule + cancel half the events: exercises the O(1) invalidation
 * path and the stale-entry skipping on pop. */
void
eventQueueCancelChurn(benchmark::State& state)
{
    std::vector<sim::EventId> ids(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (int i = 0; i < state.range(0); ++i) {
            ids[static_cast<std::size_t>(i)] =
                q.schedule(static_cast<sim::Tick>(i) * sim::nsec,
                           [&sink] { ++sink; });
        }
        for (int i = 0; i < state.range(0); i += 2)
            q.cancel(ids[static_cast<std::size_t>(i)]);
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(eventQueueCancelChurn)->Arg(100000);

/** Out-of-order scheduling: every push lands before the newest pending
 * entry, forcing the heap path instead of the sorted-run append. */
void
eventQueueReverseChurn(benchmark::State& state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (int i = state.range(0); i > 0; --i) {
            q.schedule(static_cast<sim::Tick>(i) * sim::nsec,
                       [&sink] { ++sink; });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(eventQueueReverseChurn)->Arg(100000);

/** The host scheduler's KVM_RUN pattern: each step appends a far-future
 * sentinel to the sorted run, cancels the previous one and runs a near
 * event through the heap, so the run's front moves only by stale-entry
 * skips. */
void
eventQueueSentinelChurn(benchmark::State& state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        sim::EventId sentinel = sim::invalidEventId;
        for (int i = 0; i < state.range(0); ++i) {
            const sim::EventId next =
                q.scheduleIn(3600 * sim::sec, [&sink] { ++sink; });
            q.cancel(sentinel);
            sentinel = next;
            q.scheduleIn(sim::nsec, [&sink] { ++sink; });
            q.step();
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(eventQueueSentinelChurn)->Arg(100000);

/** The six per-core structure touches CoreUarch::run() performs on
 * every scheduling quantum, alternating domains as context switches
 * do. */
void
taggedStructureTouch(benchmark::State& state)
{
    cg::hw::Costs costs;
    cg::hw::CoreUarch core(costs);
    sim::DomainId d = sim::firstVmDomain;
    for (auto _ : state) {
        core.run(d, 4096);
        benchmark::DoNotOptimize(core.l1d.used());
        d = d == sim::firstVmDomain ? sim::hostDomain
                                    : sim::firstVmDomain;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(taggedStructureTouch);

sim::Proc<void>
pingPong(sim::Channel<int>& a, sim::Channel<int>& b, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        a.send(i);
        (void)co_await b.recv();
    }
}

sim::Proc<void>
echo(sim::Channel<int>& a, sim::Channel<int>& b, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        int v = co_await a.recv();
        b.send(v);
    }
}

void
coroutineChannelPingPong(benchmark::State& state)
{
    for (auto _ : state) {
        sim::Simulation s;
        sim::Channel<int> a, b;
        s.spawn("ping", pingPong(a, b, static_cast<int>(state.range(0))));
        s.spawn("pong", echo(a, b, static_cast<int>(state.range(0))));
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(coroutineChannelPingPong)->Arg(10000);

std::uint64_t
bootOnce(RunMode mode, std::uint64_t seed)
{
    Testbed::Config cfg;
    cfg.numCores = 16;
    cfg.mode = mode;
    cfg.seed = seed;
    Testbed bed(cfg);
    VmInstance& vm = bed.createVm("boot", 16);
    CoreMarkPro::Config wcfg;
    wcfg.duration = 50 * sim::msec;
    CoreMarkPro cm(bed, vm, wcfg);
    cm.install();
    bed.spawnStart();
    bed.run(2 * sim::sec);
    return cm.result().iterations;
}

void
coreGappedBoot(benchmark::State& state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(bootOnce(RunMode::CoreGapped,
                                          0xc0ffee));
    }
}
BENCHMARK(coreGappedBoot);

/** Eight independent boots fanned across a ParallelRunner: the
 * wall-clock shape of the converted fig6/fig7/table4 sweeps. */
void
parallelSweepBoot(benchmark::State& state)
{
    const auto seeds =
        sim::ParallelRunner::deriveSeeds(0xc0ffee, 8);
    for (auto _ : state) {
        const auto iters =
            sim::ParallelRunner::mapIndexed<std::uint64_t>(
                seeds.size(), [&](std::size_t i) {
                    return bootOnce(RunMode::CoreGapped, seeds[i]);
                });
        benchmark::DoNotOptimize(iters.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(parallelSweepBoot)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
