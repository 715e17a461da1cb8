/**
 * @file
 * corgi-bench harness: drives one Testbed at a time through set-up,
 * boot and a timed phase run in fixed quanta of simulated time, times
 * each part on the host, folds the simulator's per-layer statistics,
 * digests the simulated outputs, and (in traced runs) records host-time
 * spans around the harness's own calls into the layers.
 *
 * Everything runs on the calling thread: one Simulation at a time, no
 * ParallelRunner, so the host times measure the simulator and not a
 * thread pool.
 */

#ifndef CORGI_BENCH_BENCH_HH
#define CORGI_BENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/stat_registry.hh"
#include "workloads/testbed.hh"

namespace corgi::bench {

using cg::sim::Tick;
using cg::workloads::Testbed;

/** Host seconds since the first call (monotonic clock). */
double hostNow();

/** 64-bit FNV-1a, the digest of simulated outputs. */
class Digest
{
  public:
    void add(const std::string& s);
    void add(std::uint64_t v);
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Host-time span recorder for traced runs. Spans nest; each span's
 * self time is its duration minus the time its child spans cover.
 * Export is Chrome trace_event JSON in the object format sim::Tracer
 * uses, with host microseconds as timestamps and the simulated time
 * covered by the span as an argument.
 */
class Spans
{
  public:
    struct Totals {
        std::uint64_t count = 0;
        double totalS = 0.0;
        double selfS = 0.0;
        double simS = 0.0;
    };

    void begin(const char* name, double sim_s);
    void end(double sim_s);

    const std::map<std::string, Totals>& totals() const
    {
        return totals_;
    }
    std::string exportJson() const;
    bool writeFile(const std::string& path) const;

  private:
    struct Open {
        const char* name;
        double t0;
        double sim0;
        double childS;
        bool recorded;
    };
    struct Event {
        const char* name;
        char phase;
        double tsUs;
        double simUs;
        double selfUs;
    };

    /** Recorded begin/end events are capped (later ones are counted
     * as dropped); the totals cover every span. */
    static constexpr std::size_t kMaxEvents = 1 << 16;

    std::vector<Open> stack_;
    std::vector<Event> events_;
    std::uint64_t dropped_ = 0;
    std::map<std::string, Totals> totals_;
};

/** How a phase advances the simulator. */
enum class Slicing {
    Quanta, ///< fixed simulated quanta (the measured mode)
    Single, ///< one Testbed::run per host intervention (self-test)
};

/** The ticks at which the harness stepped in, recorded by a sliced
 * run so that a Single run can stop at exactly the same points. */
struct Boundaries {
    Tick bootEnd = 0;
    Tick end = 0;
};

/** Everything one phase (one testbed) produced. */
struct PhaseOutcome {
    std::string name;
    bool ok = true;
    std::vector<std::string> problems;
    std::string digest;      ///< simulated outputs, hex
    std::string inputDigest; ///< generated inputs, hex
    double setupS = 0.0;
    double wallS = 0.0;
    double simRunS = 0.0; ///< host time inside Testbed::run
    /** Host ms of each timed quantum, counted from the end of the
     * previous one (or the timed start): the quanta cover the timed
     * phase, harness and churn-op work between them included. */
    std::vector<double> quantaMs;
    Boundaries bounds;
    std::uint64_t ops = 0; ///< I/Os, round trips or churn ops done
    std::map<std::string, double> layer; ///< folded per-layer values
    /** Host seconds from the start of the timed phase to the end of
     * each churn op. */
    std::vector<double> opEnds;
    /** Host seconds of the timed phase until the workload's I/O was
     * done (the fig. 9 probe; the rest is idle ticking). */
    double ioDoneS = 0.0;
};

/** One repetition of a workload: its phases plus how to run them. */
struct Ctx {
    std::uint64_t seed = 1;
    Slicing slicing = Slicing::Quanta;
    /** Single mode: per-phase boundaries from the sliced run. */
    const std::vector<Boundaries>* replay = nullptr;
    Spans* spans = nullptr; ///< non-null in traced repetitions
    bool setupOnly = false; ///< stop every phase after boot
    int churnOps = 0;       ///< churn op count (0: the workload's own)
    std::vector<PhaseOutcome> phases;
};

/** RAII span; a no-op unless the repetition is traced. */
class Scope
{
  public:
    Scope(Ctx& ctx, const char* name, Testbed* bed);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Ctx& ctx_;
    Testbed* bed_;
};

/** splitmix64: derives independent seeds from (seed, stream). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * One testbed's life: set-up (construction, VMs, devices, boot until
 * started() opens) and the timed phase, both advanced in quanta of
 * @p quantum simulated ticks.
 */
class Phase
{
  public:
    Phase(Ctx& ctx, std::string name, Tick quantum);
    ~Phase();

    /** Construct the testbed (timed as set-up). */
    Testbed& build(Testbed::Config cfg);
    Testbed& bed() { return *bed_; }

    /** Run @p fn as a set-up step under span @p span. */
    template <typename F>
    decltype(auto)
    setup(const char* span, F&& fn)
    {
        const double t0 = hostNow();
        Scope s(ctx_, span, bed_.get());
        struct Acc {
            PhaseOutcome& o;
            double t0;
            ~Acc() { o.setupS += hostNow() - t0; }
        } acc{out_, t0};
        return fn();
    }

    /** Spawn startAll() and advance until started() opens. */
    bool boot(Tick limit);

    /** Set-up-only repetition: true after boot() when the workload
     * must stop here (the phase keeps only its set-up time). */
    bool setupOnly() const { return ctx_.setupOnly; }

    /**
     * The timed phase: advance in quanta until @p done() holds or the
     * simulated clock passes @p limit (a failure).
     */
    bool runUntil(const std::function<bool()>& done, Tick limit);

    /** Advance the timed phase to exactly @p t (churn op grid),
     * calling @p after_quantum (if set) after each quantum. */
    void advanceTo(Tick t, const std::function<void()>& after_quantum);

    /** Host-side work inside the timed phase (churn ops). */
    void beginTimed();
    void endTimed();

    void check(bool cond, const std::string& what);

    /** Fold every per-VM stat of @p vm_name into the retired totals
     * (call before Testbed::destroyVm detaches them). */
    void retireVm(const std::string& vm_name);

    void setInputs(const Digest& d) { out_.inputDigest = d.hex(); }
    void countOps(std::uint64_t n) { out_.ops += n; }
    /** Note the end of a churn op (host time since the timed start). */
    void markOp() { out_.opEnds.push_back(hostNow() - timedStart_); }
    /** Note that the timed host time so far was the I/O part. */
    void markIoDone() { out_.ioDoneS = out_.wallS; }

    /** Digest @p results plus the stats dump, fold per-layer counters
     * and hand the outcome to the context. */
    void finish(const std::string& results);

  private:
    void step(Tick to);
    const Boundaries* replay() const;

    Ctx& ctx_;
    Tick quantum_;
    std::unique_ptr<Testbed> bed_;
    PhaseOutcome out_;
    std::map<std::string, double> retired_;
    std::size_t pendingMax_ = 0;
    double timedStart_ = 0.0;
    double quantumStart_ = 0.0; ///< end of the previous timed quantum
    bool timed_ = false; ///< inside beginTimed() .. endTimed()
    bool finished_ = false;
};

/** The four workloads; each appends its phases to @p ctx. */
void runBlkIo(Ctx& ctx);
void runTick(Ctx& ctx);
void runChurn(Ctx& ctx);
void runNetRr(Ctx& ctx);

/** Diagnostic: fig. 9's 16-vCPU testbed doing 4096 x 4 KiB reads,
 * then idling to fig. 9's 120 s limit; one phase per mode. */
void runFig9Probe(Ctx& ctx);

struct WorkloadDef {
    const char* name;
    void (*run)(Ctx&);
};

const std::vector<WorkloadDef>& workloads();

} // namespace corgi::bench

#endif // CORGI_BENCH_BENCH_HH
