/**
 * @file
 * The simulation tracer: a bounded per-simulation event ring with
 * Chrome trace_event JSON export.
 *
 * Components emit tracepoints at the load-bearing transitions of the
 * core-gapped design — REC enter/exit, SyncRpc post/pickup/response,
 * doorbell ring/wake, IPI send/deliver, hotplug offline/online, vCPU
 * rebind — onto two track families:
 *
 *  - pid coresPid:   one track (tid) per physical core;
 *  - pid domainsPid: one track (tid) per security domain (host = 0,
 *                    monitor = 1, VMs >= 2).
 *
 * The tracer is disabled by default and every emit call is a cheap
 * early-out in that state. Enabling it records into a fixed-capacity
 * ring (oldest events are overwritten and counted as dropped), so
 * memory stays bounded no matter how long the run is. Tracing is pure
 * observation: it schedules no events and consumes no randomness, so
 * simulated results are bit-identical with tracing on or off.
 *
 * Event names and argument names/values must be string literals (or
 * otherwise outlive the tracer): the ring stores the pointers.
 *
 * exportJson() produces the Chrome trace_event "JSON Object Format"
 * ({"traceEvents": [...], "displayTimeUnit": "ns"}) loadable in
 * chrome://tracing and Perfetto; timestamps are microseconds.
 */

#ifndef CG_SIM_TRACE_HH
#define CG_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace cg::sim {

class Tracer
{
  public:
    /** Track families (trace_event pids). */
    static constexpr int coresPid = 1;
    static constexpr int domainsPid = 2;

    static constexpr std::size_t defaultCapacity = 1 << 16;

    /** One recorded tracepoint. */
    struct Event {
        Tick ts = 0;
        const char* name = nullptr;
        char phase = 'i'; ///< 'B' begin, 'E' end, 'i' instant
        std::int32_t pid = 0;
        std::int32_t tid = 0;
        const char* argName = nullptr; ///< nullptr: no argument
        std::uint64_t argValue = 0;
        const char* argStr = nullptr; ///< string argument (else numeric)
    };

    explicit Tracer(const EventQueue& q) : queue_(q) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return enabled_; }

    /** Start recording into a ring of @p capacity events. */
    void enable(std::size_t capacity = defaultCapacity);

    std::size_t capacity() const { return ring_.size(); }
    std::size_t size() const { return count_; }
    std::uint64_t dropped() const { return dropped_; }

    /** @{ Emission; all no-ops while disabled. */
    void begin(const char* name, int pid, int tid);
    void end(const char* name, int pid, int tid);
    void end(const char* name, int pid, int tid, const char* arg_name,
             const char* arg_value);
    void instant(const char* name, int pid, int tid);
    void instant(const char* name, int pid, int tid,
                 const char* arg_name, std::uint64_t arg_value);
    void instant(const char* name, int pid, int tid,
                 const char* arg_name, const char* arg_value);
    /** @} */

    /** Recorded events, oldest first. */
    std::vector<Event> events() const;

    /** Chrome trace_event JSON (object format, ts in microseconds). */
    std::string exportJson() const;

    /** Write exportJson() to @p path; false on I/O failure. */
    bool writeFile(const std::string& path) const;

  private:
    void push(Event e);

    const EventQueue& queue_;
    bool enabled_ = false;
    std::vector<Event> ring_;
    std::size_t head_ = 0; ///< next write position
    std::size_t count_ = 0;
    std::uint64_t dropped_ = 0;
};

/**
 * Process-global observability request, set by the benchmark harness
 * (`--stats <path>` / `--trace <path>` in bench/common.hh). The first
 * Testbed constructed after the request claims it and becomes the
 * observed run: it enables its simulation's tracer and writes the
 * requested files on destruction. claim() is atomic, so parallel
 * sweeps observe exactly one of their runs.
 */
class ObservabilityRequest
{
  public:
    static void configure(std::string stats_path,
                          std::string trace_path);

    static bool requested();

    /** True exactly once per configure() (thread-safe). */
    static bool claim();

    /** Forget the request and any claim (tests). */
    static void reset();

    static const std::string& statsPath();
    static const std::string& tracePath();
};

} // namespace cg::sim

#endif // CG_SIM_TRACE_HH
