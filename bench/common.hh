/**
 * @file
 * Shared helpers for the benchmark binaries: table formatting,
 * paper-vs-measured comparison rows, and machine-readable JSON output.
 *
 * Note on methodology: these harnesses report *simulated* time and
 * throughput from the discrete-event model, not host wall-clock time —
 * which is why they print tables directly instead of wrapping runs in
 * google-benchmark's timing loop (that would measure the simulator,
 * not the system under study). A google-benchmark microbenchmark of
 * the simulation kernel itself lives in sim_microbench.cc.
 *
 * Every harness calls initHarness(argc, argv) first. With
 * `--json <path>` the comparison rows recorded via compareRow()/
 * jsonRow() are additionally written to <path> as a JSON array of
 * {bench, metric, paper, measured} objects, so successive PRs can
 * track the perf trajectory mechanically (BENCH_*.json files).
 */

#ifndef CG_BENCH_COMMON_HH
#define CG_BENCH_COMMON_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "sim/fault.hh"
#include "sim/trace.hh"

namespace cg::bench {

/** One paper-vs-measured data point, for the JSON report. */
struct JsonRow {
    std::string metric;
    double paper;
    double measured;
};

namespace detail {

inline std::string json_path;   // empty: no JSON output
inline std::string bench_name;  // argv[0] basename
inline std::vector<JsonRow> json_rows;
inline bool quick_requested = false;

/** Minimal JSON string escaping (quotes and backslashes). */
inline std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

inline void
writeJsonReport()
{
    if (json_path.empty())
        return;
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write JSON report to '%s'\n",
                     json_path.c_str());
        return;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
        const JsonRow& r = json_rows[i];
        std::fprintf(f,
                     "  {\"bench\": \"%s\", \"metric\": \"%s\", "
                     "\"paper\": %.6g, \"measured\": %.6g}%s\n",
                     jsonEscape(bench_name).c_str(),
                     jsonEscape(r.metric).c_str(), r.paper, r.measured,
                     i + 1 < json_rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

} // namespace detail

/** Whole-string unsigned integer (decimal, 0x-hex or 0-octal). */
inline bool
parseCount(const char* s, std::uint64_t& out)
{
    if (*s < '0' || *s > '9')
        return false; // no sign, no leading space, not empty
    char* end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, 0);
    return errno == 0 && *end == '\0';
}

/**
 * Parse common harness flags and register the JSON report writer to
 * run at exit. Call first in main().
 *
 *   --json <path>    write the compareRow()/jsonRow() points as JSON
 *   --stats <path>   dump the stats registry of the first Testbed the
 *                    run constructs (".json" suffix selects JSON)
 *   --trace <path>   record that Testbed's tracepoints and write them
 *                    as Chrome trace_event JSON (chrome://tracing)
 *   --faults <plan>  arm the fault plan (FaultPlan::parse grammar) in
 *                    every Testbed the run constructs
 *   --fault-seed <n> seed for the plan's probabilistic triggers
 *                    (default 1; mixed with each Testbed's sim seed)
 *   --check          arm the isolation checker (check::IsolationChecker)
 *                    in every Testbed; leak edges land in the stats
 *                    dump ("check.leakEdges.*") and the trace
 *   --check-abort    as --check, but abort on the first leak edge
 *   --quick          shrink the run for smoke tests (harnesses that
 *                    support it check bench::quick() and cut sweep
 *                    points / durations; others ignore it)
 */
inline void
initHarness(int argc, char** argv)
{
    const char* slash = std::strrchr(argv[0], '/');
    detail::bench_name = slash ? slash + 1 : argv[0];
    std::string stats_path;
    std::string trace_path;
    std::string fault_plan;
    std::uint64_t fault_seed = 1;
    bool check_requested = false;
    bool check_abort = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            detail::json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--stats") == 0 &&
                   i + 1 < argc) {
            stats_path = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0 &&
                   i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--faults") == 0 &&
                   i + 1 < argc) {
            fault_plan = argv[++i];
            if (fault_plan == "help" || fault_plan == "list") {
                std::printf("fault sites (plan grammar: "
                            "\"<site>[:key=val]...;...\" with keys "
                            "nth=, p=, from=, until=, max=, param=):\n"
                            "%s",
                            cg::sim::faultSiteListText().c_str());
                std::exit(0);
            }
        } else if (std::strcmp(argv[i], "--fault-seed") == 0 &&
                   i + 1 < argc && parseCount(argv[i + 1], fault_seed)) {
            ++i;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check_requested = true;
        } else if (std::strcmp(argv[i], "--check-abort") == 0) {
            check_requested = true;
            check_abort = true;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            detail::quick_requested = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json <path>] [--stats <path>] "
                         "[--trace <path>] [--faults <plan>] "
                         "[--fault-seed <n>] [--check] "
                         "[--check-abort] [--quick]\n",
                         argv[0]);
            std::exit(2);
        }
    }
    cg::sim::ObservabilityRequest::configure(stats_path, trace_path);
    if (!fault_plan.empty())
        cg::sim::FaultPlanRequest::configure(fault_plan, fault_seed);
    if (check_requested)
        cg::check::CheckRequest::configure(check_abort);
    std::atexit(detail::writeJsonReport);
}

/** Was --quick passed? Harnesses shrink sweeps/durations when set. */
inline bool
quick()
{
    return detail::quick_requested;
}

/** Record a data point for the JSON report only (no table output). */
inline void
jsonRow(const std::string& metric, double paper, double measured)
{
    detail::json_rows.push_back(JsonRow{metric, paper, measured});
}

inline void
banner(const std::string& title, const std::string& paper_ref)
{
    std::printf("\n=============================================="
                "==============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("================================================"
                "============================\n");
}

inline void
note(const std::string& text)
{
    std::printf("note: %s\n", text.c_str());
}

/** "paper X, measured Y" comparison row; also recorded for --json. */
inline void
compareRow(const std::string& what, double paper, double measured,
           const std::string& unit)
{
    const double ratio = paper != 0.0 ? measured / paper : 0.0;
    std::printf("  %-44s paper %10.2f %-6s measured %10.2f %-6s "
                "(x%.2f)\n",
                what.c_str(), paper, unit.c_str(), measured,
                unit.c_str(), ratio);
    jsonRow(what, paper, measured);
}

inline void
sectionEnd()
{
    std::printf("\n");
}

} // namespace cg::bench

#endif // CG_BENCH_COMMON_HH
