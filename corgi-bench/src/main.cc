/**
 * @file
 * corgi-bench: command line, repetitions, metrics and the result line.
 *
 *   corgi_bench --workload <blk-io|tick|churn|net-rr> [--seed N]
 *               [--seconds S] [--trace 0|1] [--golden FILE]
 *               [--trace-dir DIR]
 *   corgi_bench --selftest [--seed N]
 *   corgi_bench --digests [--seed N]
 *   corgi_bench --probe fig9|soak [--seed N]
 *
 * Measure mode first runs one untimed repetition at the default seed
 * and compares its digests with --golden, whatever --seed is. It then
 * repeats the workload at --seed (each repetition the same fixed
 * simulated work) until --seconds of host time are used, and reports
 * each quantum's fastest host time over the repetitions. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
 * metrics are the end-to-end ones, with --trace 1 the per-layer ones
 * from traced repetitions (spans written to --trace-dir).
 *
 * --selftest proves the harness does not perturb the model: for every
 * workload a quantum-sliced run, a second sliced run and a run that
 * makes one Testbed::run call per host intervention give the same
 * digest, and a different seed gives different inputs.
 *
 * --digests prints one "<phase> <digest>" line per phase (the format
 * of the golden file).
 *
 * --probe measures the two host-time effects NOTES.md reports: fig9
 * splits fig. 9's 4 KiB read run into its I/O part and the idle ticking
 * until fig. 9's 120 s limit; soak runs the churn workload for
 * ext_soak_churn's op count and prints host ms per op over the first
 * 900 ops and over the rest.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"

using namespace corgi::bench;

namespace {

/** The seed whose digests are recorded in the golden file. */
constexpr std::uint64_t kDefaultSeed = 1;

/** ext_soak_churn's op count, run by --probe soak. */
constexpr int kSoakOps = 3528;

/**
 * Memory probes per run. Peak RSS is exact for one seed but steps
 * between seeds (tick: 6.3-8.1 MiB), so a run reports the median over
 * this many seeds derived from --seed.
 */
constexpr int kRssProbes = 9;

const char* const kBuildType = CORGI_BENCH_BUILD_TYPE;
const char* const kSanitize = CORGI_BENCH_SANITIZE;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double f = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - f) + v[hi] * f;
}

double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

double
best(const std::vector<double>& v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
sumOf(const std::vector<PhaseOutcome>& ps, double PhaseOutcome::*f)
{
    double s = 0.0;
    for (const PhaseOutcome& p : ps)
        s += p.*f;
    return s;
}

const WorkloadDef*
findWorkload(const std::string& name)
{
    for (const WorkloadDef& w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::vector<PhaseOutcome>
runOnce(const WorkloadDef& w, std::uint64_t seed, Slicing slicing,
        const std::vector<Boundaries>* replay, Spans* spans,
        bool setup_only = false)
{
    Ctx ctx;
    ctx.seed = seed;
    ctx.slicing = slicing;
    ctx.replay = replay;
    ctx.spans = spans;
    ctx.setupOnly = setup_only;
    w.run(ctx);
    return std::move(ctx.phases);
}

std::map<std::string, std::string>
loadGolden(const std::string& path)
{
    std::map<std::string, std::string> g;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string phase, digest;
        if (ls >> phase >> digest)
            g[phase] = digest;
    }
    return g;
}

/** The per-layer metrics reported by traced runs, with units. */
const std::vector<std::pair<const char*, const char*>>&
layerMetrics()
{
    static const std::vector<std::pair<const char*, const char*>> m = {
        {"sim.run_s", "s"},
        {"sim.sim_s", "s"},
        {"sim.processes", "count"},
        {"sim.pending_max", "count"},
        {"faults.injected", "count"},
        {"faults.recovered_frac", "ratio"},
        {"hw.gic.delivered", "count"},
        {"guest.ticksHandled", "count"},
        {"guest.virqsHandled", "count"},
        {"guest.exitsGenerated", "count"},
        {"host.contextSwitches", "count"},
        {"host.ipis", "count"},
        {"host.irqs", "count"},
        {"host.migrations", "count"},
        {"host.hotplugOps", "count"},
        {"host.hotplugFailures", "count"},
        {"rmm.rmiCalls", "count"},
        {"rmm.exitsToHost", "count"},
        {"rmm.delegatedTimerEvents", "count"},
        {"rmm.localWfiWaits", "count"},
        {"rmm.migrationGranulesCopied", "count"},
        {"rmm.migrationsCommitted", "count"},
        {"rmm.scrubRepairs", "count"},
        {"rmm.granules.undelegated", "count"},
        {"rmm.granules.delegated", "count"},
        {"rmm.granules.rd", "count"},
        {"rmm.granules.rec", "count"},
        {"rmm.granules.rtt", "count"},
        {"rmm.granules.data", "count"},
        {"kvm.exits", "count"},
        {"kvm.mmioExits", "count"},
        {"kvm.wfiExits", "count"},
        {"kvm.irqRelatedExits", "count"},
        {"kvm.injections", "count"},
        {"kvm.rmiRetries", "count"},
        {"mqnet.kick-exits", "count"},
        {"mqnet.kicks", "count"},
        {"mqnet.kicks-suppressed", "count"},
        {"doorbell.rings", "count"},
        {"doorbell.rerings", "count"},
        {"gapped.runCallRtt.count", "count"},
        {"gapped.rpcRepokes", "count"},
        {"gapped.hotplugRetries", "count"},
        {"migrate.attempts", "count"},
        {"migrate.committed", "count"},
        {"migrate.rolledBack", "count"},
        {"migrate.refused", "count"},
        {"migrate.commit_frac", "ratio"},
        {"check.events", "count"},
        {"check.probes", "count"},
        {"check.leakEdges.total", "count"},
        {"workloads.phases", "count"},
        {"workloads.failed_frac", "ratio"},
        {"workloads.setup_s", "s"},
        {"workloads.boot_s", "s"},
        {"workloads.ops", "count"},
        {"workloads.op.create_ms", "ms"},
        {"workloads.op.migrate_ms", "ms"},
        {"workloads.op.hotplug_ms", "ms"},
        {"workloads.op.destroy_ms", "ms"},
        {"workloads.quanta", "count"},
        {"workloads.quantum_growth", "ratio"},
        {"workloads.trace_overhead", "ratio"},
    };
    return m;
}

/** Mean quantum host time in the last tenth of a phase over the first
 * tenth. */
double
growth(const std::vector<double>& q)
{
    const std::size_t n = q.size() / 10;
    if (n == 0)
        return 1.0;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        first += q[i];
        last += q[q.size() - n + i];
    }
    return first > 0.0 ? last / first : 1.0;
}

/** Sum the folded per-layer values over a repetition's phases and
 * derive the module totals and ratios. */
std::map<std::string, double>
layerTotals(const std::vector<PhaseOutcome>& phases)
{
    std::map<std::string, double> t;
    double pending_max = 0.0;
    for (const PhaseOutcome& p : phases) {
        for (const auto& [k, v] : p.layer)
            t[k] += v;
        pending_max = std::max(pending_max, p.layer.at("sim.pending_max"));
    }
    t["sim.pending_max"] = pending_max;
    double injected = 0.0, recovered = 0.0;
    for (const auto& [k, v] : t) {
        if (k.rfind("faults.injected.", 0) == 0)
            injected += v;
        else if (k.rfind("faults.recovered.", 0) == 0)
            recovered += v;
    }
    t["faults.injected"] = injected;
    t["faults.recovered_frac"] = injected > 0 ? recovered / injected : 0;
    const double attempts = t["migrate.committed"] +
                            t["migrate.rolledBack"] + t["migrate.refused"];
    t["migrate.attempts"] = attempts;
    t["migrate.commit_frac"] =
        attempts > 0 ? t["migrate.committed"] / attempts : 0.0;
    return t;
}

/**
 * Per phase, each quantum's fastest host time (ms) over the
 * repetitions. Every repetition of a seed executes the same quanta, and
 * interference from other tenants of a shared host only ever adds
 * time, so the per-quantum minima, and their sum, are steadier between
 * runs than the fastest whole repetition (NOTES.md has the
 * measurements).
 */
class FastestQuanta
{
  public:
    void
    add(const std::vector<PhaseOutcome>& phases)
    {
        q_.resize(phases.size());
        for (std::size_t p = 0; p < phases.size(); ++p) {
            std::vector<double>& best = q_[p];
            const std::vector<double>& v = phases[p].quantaMs;
            if (best.empty()) {
                best = v;
                continue;
            }
            for (std::size_t i = 0; i < best.size() && i < v.size(); ++i)
                best[i] = std::min(best[i], v[i]);
        }
    }

    /** Quantile over every phase's quanta. */
    double
    quantileMs(double q) const
    {
        std::vector<double> all;
        for (const auto& v : q_)
            all.insert(all.end(), v.begin(), v.end());
        return quantile(std::move(all), q);
    }

    /** Sum of the fastest quantum times (s): the timed phases. */
    double
    totalS() const
    {
        double s = 0.0;
        for (const auto& v : q_) {
            for (double ms : v)
                s += ms;
        }
        return s / 1e3;
    }

    const std::vector<std::vector<double>>& perPhase() const { return q_; }

    std::size_t
    count() const
    {
        std::size_t n = 0;
        for (const auto& v : q_)
            n += v.size();
        return n;
    }

  private:
    std::vector<std::vector<double>> q_;
};

void
printUsage()
{
    std::fprintf(stderr,
                 "usage: corgi_bench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--golden FILE] "
                 "[--trace-dir DIR]\n"
                 "       corgi_bench --selftest [--seed N]\n"
                 "       corgi_bench --digests [--seed N]\n"
                 "       corgi_bench --probe fig9|soak [--seed N]\n"
                 "workloads:");
    for (const WorkloadDef& w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

/**
 * Peak resident memory (MiB) of a child process that runs one
 * repetition of @p w and nothing else; <= 0 if the child failed.
 */
double
peakRssOfOneRepetition(const WorkloadDef& w, std::uint64_t seed)
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        const auto phases =
            runOnce(w, seed, Slicing::Quanta, nullptr, nullptr);
        bool ok = true;
        for (const PhaseOutcome& p : phases)
            ok = ok && p.ok;
        std::_Exit(ok ? 0 : 1);
    }
    if (pid < 0)
        return -1.0;
    int status = 0;
    struct rusage ru {};
    if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return -1.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int
probe(const std::string& what, std::uint64_t seed)
{
    Ctx ctx;
    ctx.seed = seed;
    if (what == "fig9") {
        runFig9Probe(ctx);
        for (const PhaseOutcome& p : ctx.phases) {
            const double idle = p.wallS - p.ioDoneS;
            std::printf("  %-26s I/O %.4f s  idle ticking to 120 s %.4f s"
                        "  idle share %.1f%%  set-up %.4f s\n",
                        p.name.c_str(), p.ioDoneS, idle,
                        100.0 * idle / p.wallS, p.setupS);
        }
    } else if (what == "soak") {
        ctx.churnOps = kSoakOps;
        runChurn(ctx);
        const PhaseOutcome& p = ctx.phases.at(0);
        const std::vector<double>& e = p.opEnds;
        const std::size_t cut = std::min<std::size_t>(900, e.size());
        const double head = cut ? e[cut - 1] : 0.0;
        std::printf("  churn %zu ops in %.3f s host (%.3f sim s): "
                    "%.3f ms/op over ops 1-%zu, %.3f ms/op over ops "
                    "%zu-%zu\n",
                    e.size(), p.wallS, p.layer.at("sim.sim_s"),
                    cut ? head * 1e3 / static_cast<double>(cut) : 0.0, cut,
                    e.size() > cut ? (e.back() - head) * 1e3 /
                                         static_cast<double>(e.size() - cut)
                                   : 0.0,
                    cut + 1, e.size());
        for (std::size_t k = 0; k < 10; ++k) {
            const std::size_t lo = k * e.size() / 10;
            const std::size_t hi = (k + 1) * e.size() / 10;
            if (hi == 0 || hi <= lo)
                continue;
            const double t0 = lo ? e[lo - 1] : 0.0;
            std::printf("    ops %5zu-%-5zu %.3f ms/op\n", lo + 1, hi,
                        (e[hi - 1] - t0) * 1e3 /
                            static_cast<double>(hi - lo));
        }
    } else {
        printUsage();
        return 2;
    }
    for (const PhaseOutcome& p : ctx.phases) {
        if (!p.ok)
            return 1;
    }
    return 0;
}

int
selftest(std::uint64_t seed)
{
    int bad = 0;
    for (const WorkloadDef& w : workloads()) {
        const auto a = runOnce(w, seed, Slicing::Quanta, nullptr, nullptr);
        const auto b = runOnce(w, seed, Slicing::Quanta, nullptr, nullptr);
        std::vector<Boundaries> bounds;
        for (const PhaseOutcome& p : a)
            bounds.push_back(p.bounds);
        const auto c = runOnce(w, seed, Slicing::Single, &bounds, nullptr);
        Spans spans;
        const auto d = runOnce(w, seed, Slicing::Quanta, nullptr, &spans);
        const auto other =
            runOnce(w, seed + 1, Slicing::Quanta, nullptr, nullptr, true);
        for (std::size_t i = 0; i < a.size(); ++i) {
            const bool same = b[i].digest == a[i].digest &&
                              c[i].digest == a[i].digest &&
                              d[i].digest == a[i].digest;
            const bool inputs_differ =
                other[i].inputDigest != a[i].inputDigest;
            const bool ok = same && inputs_differ && a[i].ok && c[i].ok;
            std::printf("  %-28s sliced %s  again %s  single-run %s  "
                        "traced %s  seed+1 inputs %s  %s\n",
                        a[i].name.c_str(), a[i].digest.c_str(),
                        b[i].digest.c_str(), c[i].digest.c_str(),
                        d[i].digest.c_str(),
                        inputs_differ ? "differ" : "SAME",
                        ok ? "ok" : "FAIL");
            for (const std::string& p : a[i].problems)
                std::printf("    problem: %s\n", p.c_str());
            bad += ok ? 0 : 1;
        }
    }
    std::printf("selftest: %s\n", bad == 0 ? "passed" : "FAILED");
    return bad == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload, golden_path, trace_dir;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    bool do_selftest = false, do_digests = false;
    std::string probe_what;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has = i + 1 < argc;
        if (a == "--workload" && has)
            workload = argv[++i];
        else if (a == "--seed" && has)
            seed = std::strtoull(argv[++i], nullptr, 0);
        else if (a == "--seconds" && has)
            seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--trace" && has)
            trace = std::atoi(argv[++i]);
        else if (a == "--golden" && has)
            golden_path = argv[++i];
        else if (a == "--trace-dir" && has)
            trace_dir = argv[++i];
        else if (a == "--probe" && has)
            probe_what = argv[++i];
        else if (a == "--selftest")
            do_selftest = true;
        else if (a == "--digests")
            do_digests = true;
        else {
            printUsage();
            return 2;
        }
    }
    if (do_selftest)
        return selftest(seed);
    if (!probe_what.empty())
        return probe(probe_what, seed);
    if (do_digests) {
        for (const WorkloadDef& w : workloads()) {
            for (const PhaseOutcome& p :
                 runOnce(w, seed, Slicing::Quanta, nullptr, nullptr))
                std::printf("%s %s\n", p.name.c_str(), p.digest.c_str());
        }
        return 0;
    }
    const WorkloadDef* w = findWorkload(workload);
    if (!w || seconds <= 0 || (trace != 0 && trace != 1)) {
        printUsage();
        return 2;
    }

    // Build-flavour guard (as tools/perf-gate): only an unsanitized
    // Release build is timed.
    std::printf("corgi-bench: workload %s, seed %llu, %.0f s, trace %d\n",
                w->name, static_cast<unsigned long long>(seed), seconds,
                trace);
    std::printf("  build: %s, sanitizer: %s\n", kBuildType,
                kSanitize[0] ? kSanitize : "none");
    if (std::strcmp(kBuildType, "Release") != 0 || kSanitize[0]) {
        std::fprintf(stderr,
                     "corgi-bench: refusing to time a %s%s%s build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release and no "
                     "CG_SANITIZE\n",
                     kBuildType, kSanitize[0] ? " sanitized " : "",
                     kSanitize);
        return 3;
    }
    std::map<std::string, std::string> golden;
    if (!golden_path.empty()) {
        golden = loadGolden(golden_path);
        if (golden.empty()) {
            std::fprintf(stderr, "corgi-bench: no digests in %s\n",
                         golden_path.c_str());
            return 2;
        }
    }

    // The memory probes fork first, before this process has grown.
    std::vector<double> rss;
    for (int k = 0; k < kRssProbes; ++k) {
        rss.push_back(peakRssOfOneRepetition(
            *w, mixSeed(seed, 1000 + static_cast<std::uint64_t>(k))));
        if (rss.back() <= 0.0) {
            std::fprintf(stderr, "corgi-bench: the memory probe failed\n");
            return 1;
        }
    }
    const double peak_rss_mb = median(rss);
    // One untimed repetition at the default seed, whatever --seed is,
    // so that every run compares the simulation with the record.
    std::vector<PhaseOutcome> record;
    if (!golden.empty())
        record = runOnce(*w, kDefaultSeed, Slicing::Quanta, nullptr, nullptr);

    const double t_start = hostNow();
    // Set-up samples: the workload's testbeds built and booted, then
    // dropped. They are spread over the whole run (a few after every
    // repetition) so that a burst of interference cannot cover them all.
    std::vector<double> setup_samples;
    auto sample_setups = [&](double budget_s) {
        const double t0 = hostNow();
        for (int i = 0; i < 3 || hostNow() - t0 < budget_s; ++i) {
            const auto ps = runOnce(*w, seed, Slicing::Quanta, nullptr,
                                    nullptr, true);
            setup_samples.push_back(sumOf(ps, &PhaseOutcome::setupS));
        }
    };
    sample_setups(0.01 * seconds);

    // Repetitions: untraced ones measure; with --trace 1 traced ones
    // alternate with them. A new repetition starts only if it should
    // fit in the remaining time.
    std::vector<std::vector<PhaseOutcome>> plain, traced;
    FastestQuanta fastest, fastest_traced;
    std::vector<double> wall;
    Spans spans;
    double last_rep = 0.0;
    for (;;) {
        const double elapsed = hostNow() - t_start;
        const bool want_traced =
            trace == 1 && traced.size() < plain.size();
        if (!plain.empty() && (trace == 0 || !traced.empty()) &&
            elapsed + last_rep > seconds)
            break;
        const double r0 = hostNow();
        auto phases = runOnce(*w, seed, Slicing::Quanta, nullptr,
                              want_traced ? &spans : nullptr);
        last_rep = hostNow() - r0;
        if (want_traced) {
            fastest_traced.add(phases);
            traced.push_back(std::move(phases));
        } else {
            fastest.add(phases);
            wall.push_back(sumOf(phases, &PhaseOutcome::wallS));
            setup_samples.push_back(sumOf(phases, &PhaseOutcome::setupS));
            plain.push_back(std::move(phases));
        }
        sample_setups(0.05 * last_rep);
    }

    // Output checks: invariants held, every repetition reproduced the
    // first one's digests, and the default-seed repetition matches the
    // record phase for phase.
    std::uint64_t attempted = 0, failed = 0;
    auto account = [&](const std::string& phase,
                       const std::vector<std::string>& why) {
        ++attempted;
        if (why.empty())
            return;
        ++failed;
        for (const std::string& s : why)
            std::fprintf(stderr, "corgi-bench: %s: %s\n", phase.c_str(),
                         s.c_str());
    };
    if (!golden.empty()) {
        const std::string prefix = std::string(w->name) + "/";
        std::size_t recorded = 0;
        for (const auto& [phase, digest] : golden)
            recorded += phase.rfind(prefix, 0) == 0 ? 1 : 0;
        if (recorded != record.size())
            account(w->name, {"phase count differs from the record"});
        for (const PhaseOutcome& p : record) {
            std::vector<std::string> why = p.problems;
            auto g = golden.find(p.name);
            if (g == golden.end() || g->second != p.digest)
                why.push_back("default-seed digest differs from the record");
            account(p.name, why);
        }
    }
    const std::vector<PhaseOutcome>& ref = plain.front();
    for (const auto* reps : {&plain, &traced}) {
        for (const auto& rep : *reps) {
            for (std::size_t i = 0; i < rep.size(); ++i) {
                std::vector<std::string> why = rep[i].problems;
                if (rep[i].digest != ref[i].digest)
                    why.push_back("digest differs between repetitions");
                account(rep[i].name, why);
            }
        }
    }

    const double failed_frac =
        attempted ? static_cast<double>(failed) /
                        static_cast<double>(attempted)
                  : 1.0;

    std::printf("  phases per repetition: %zu\n", ref.size());
    for (const PhaseOutcome& p : ref) {
        std::printf("    %-28s digest %s  ops %llu  set-up %.4f s  "
                    "timed %.4f s  quanta %zu\n",
                    p.name.c_str(), p.digest.c_str(),
                    static_cast<unsigned long long>(p.ops), p.setupS,
                    p.wallS, p.quantaMs.size());
    }
    std::printf("  default-seed record: %s\n",
                golden.empty() ? "not checked (no --golden)"
                               : "checked, see failed_frac");
    std::printf("  end-to-end (noise-filtered over %zu repetitions):\n",
                wall.size());
    std::printf("    wall_s         %10.6f s    sum of fastest quanta "
                "(repetitions: fastest %.6f, median %.6f)\n",
                fastest.totalS(), best(wall), median(wall));
    std::printf("    setup_s        %10.6f s    best of %zu set-ups "
                "(median %.6f)\n",
                best(setup_samples), setup_samples.size(),
                median(setup_samples));
    std::printf("    quantum_ms_p50 %10.6f ms   over %zu quanta, each best "
                "of %zu\n",
                fastest.quantileMs(0.5), fastest.count(), wall.size());
    std::printf("    quantum_ms_p99 %10.6f ms   over %zu quanta, each best "
                "of %zu\n",
                fastest.quantileMs(0.99), fastest.count(), wall.size());
    std::printf("    peak_rss_mb    %10.3f MiB  median of %d one-repetition "
                "child processes (%.3f-%.3f)\n",
                peak_rss_mb, kRssProbes, best(rss),
                *std::max_element(rss.begin(), rss.end()));
    std::printf("    failed_frac    %10.6f        n=%llu phases "
                "(%llu failed)\n",
                failed_frac, static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));

    std::string metrics;
    auto put = [&metrics](const std::string& name, double v,
                          const char* unit) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", name.c_str(),
                      std::isfinite(v) ? v : 0.0, unit);
        metrics += buf;
    };

    if (trace == 0) {
        put("wall_s", fastest.totalS(), "s");
        put("setup_s", best(setup_samples), "s");
        put("quantum_ms_p50", fastest.quantileMs(0.5), "ms");
        put("quantum_ms_p99", fastest.quantileMs(0.99), "ms");
        put("peak_rss_mb", peak_rss_mb, "MiB");
    } else {
        std::map<std::string, double> L =
            layerTotals(traced.back());
        const auto& tot = spans.totals();
        auto span_s = [&tot](const char* n) {
            auto it = tot.find(n);
            return it == tot.end() ? 0.0 : it->second.totalS;
        };
        auto span_mean_ms = [&tot](const char* n) {
            auto it = tot.find(n);
            return it == tot.end() || it->second.count == 0
                       ? 0.0
                       : it->second.totalS * 1e3 /
                             static_cast<double>(it->second.count);
        };
        const double n_traced = static_cast<double>(traced.size());
        double setup_steps = 0.0;
        for (const char* n : {"Testbed", "createVm", "addVirtioBlk",
                              "addNic", "IsolationChecker", "FaultPlan",
                              "CorePlanner"})
            setup_steps += span_s(n);
        double max_growth = 0.0, ops = 0.0;
        for (const auto& q : fastest.perPhase())
            max_growth = std::max(max_growth, growth(q));
        for (const PhaseOutcome& p : traced.back())
            ops += static_cast<double>(p.ops);
        L["workloads.phases"] = static_cast<double>(ref.size());
        L["workloads.failed_frac"] = failed_frac;
        L["workloads.setup_s"] = setup_steps / n_traced;
        L["workloads.boot_s"] = span_s("boot") / n_traced;
        L["workloads.ops"] = ops;
        L["workloads.op.create_ms"] = span_mean_ms("create");
        L["workloads.op.migrate_ms"] = span_mean_ms("migrate");
        L["workloads.op.hotplug_ms"] = span_mean_ms("hotplug");
        L["workloads.op.destroy_ms"] = span_mean_ms("destroy");
        L["workloads.quanta"] = static_cast<double>(fastest.count());
        L["workloads.quantum_growth"] = max_growth;
        L["workloads.trace_overhead"] =
            fastest_traced.totalS() / fastest.totalS() - 1.0;
        for (const auto& [name, unit] : layerMetrics())
            put(name, L.count(name) ? L[name] : 0.0, unit);

        std::printf("  traced repetitions: %zu; span totals (host s, "
                    "self = minus child spans):\n",
                    traced.size());
        for (const auto& [name, t] : tot) {
            std::printf("    %-18s n=%-8llu total %10.6f  self %10.6f  "
                        "sim %12.6f\n",
                        name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.totalS, t.selfS, t.simS);
        }
        std::printf("  per-layer (last traced repetition):\n");
        for (const auto& [name, unit] : layerMetrics()) {
            std::printf("    %-30s %16.6f %s\n", name,
                        L.count(name) ? L[name] : 0.0, unit);
        }
        if (!trace_dir.empty()) {
            const std::string path = trace_dir + "/corgi-bench-" +
                                     w->name + "-seed" +
                                     std::to_string(seed) + ".json";
            if (spans.writeFile(path))
                std::printf("  spans written to %s\n", path.c_str());
            else
                std::fprintf(stderr, "corgi-bench: cannot write %s\n",
                             path.c_str());
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return 0;
}
