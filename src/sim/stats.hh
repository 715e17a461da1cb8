/**
 * @file
 * Lightweight statistics package: counters, accumulators (mean/stddev),
 * and sample histograms with percentile queries.
 *
 * Benchmarks reproduce the paper's tables from these objects; they are
 * intentionally simple value types that components embed directly.
 */

#ifndef CG_SIM_STATS_HH
#define CG_SIM_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace cg::sim {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Online mean / standard deviation (Welford's algorithm). */
class Accumulator
{
  public:
    void sample(double x);
    void reset();

    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Sample-retaining distribution for percentile queries.
 *
 * Keeps every sample (simulations here produce at most a few million);
 * percentile() maintains a separate sorted cache, so samples() always
 * returns the stable insertion-order view no matter which queries ran
 * in between.
 *
 * The cache is kept fresh *structurally* rather than by a validity
 * flag: sorted_ is always a sorted permutation of the first
 * sorted_.size() samples, and a query merges in whatever tail arrived
 * since the last one (sort the tail, then one inplace_merge). Freely
 * interleaved sample()/percentile() sequences therefore cannot observe
 * a stale cache — there is no flag to forget to invalidate — and a
 * query after k new samples costs O(k log k + n) instead of re-sorting
 * all n (the open-loop latency sweeps query p50/p99/p999 repeatedly
 * over growing sample sets).
 */
class Distribution
{
  public:
    void sample(double x);
    void reset();

    std::uint64_t count() const { return samples_.size(); }
    /** @{ O(1): running sum, min and max, kept by sample(). */
    double
    mean() const
    {
        return samples_.empty()
                   ? 0.0
                   : sum_ / static_cast<double>(samples_.size());
    }
    double min() const { return samples_.empty() ? 0.0 : min_; }
    double max() const { return samples_.empty() ? 0.0 : max_; }
    /** @} */

    /** p in [0, 100]; linear interpolation between order statistics. */
    double percentile(double p) const;
    double median() const { return percentile(50.0); }

    /** The samples in insertion order (never reordered by queries). */
    const std::vector<double>& samples() const { return samples_; }

  private:
    std::vector<double> samples_; ///< insertion order, query-immutable
    /** Left-to-right sum of samples_, so mean() matches re-summing them
     * bit for bit. */
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    /** Sorted copy of samples_[0, sorted_.size()); tail merged on
     * demand. Invariant: sorted_.size() <= samples_.size() always. */
    mutable std::vector<double> sorted_;

    const std::vector<double>& ensureSorted() const;
};

/** Convenience: record Tick latencies, report in ns/us/ms. All unit
 * conversions route through ticksToUs/ticksToMs (types.hh) so reports
 * cannot drift from the tick-per-picosecond convention. */
class LatencyStat
{
  public:
    void sample(Tick t);
    void reset();

    std::uint64_t count() const { return dist_.count(); }
    double meanNs() const { return dist_.mean() / 1e3; }
    double meanUs() const { return ticksToUs(dist_.mean()); }
    double meanMs() const { return ticksToMs(dist_.mean()); }
    double p50Us() const { return ticksToUs(dist_.percentile(50)); }
    double p95Us() const { return ticksToUs(dist_.percentile(95)); }
    double p99Us() const { return ticksToUs(dist_.percentile(99)); }
    /** The SLO tail the open-loop sweeps report (1-in-1000). */
    double p999Us() const { return ticksToUs(dist_.percentile(99.9)); }
    double p50Ms() const { return ticksToMs(dist_.percentile(50)); }
    double p99Ms() const { return ticksToMs(dist_.percentile(99)); }
    double p999Ms() const { return ticksToMs(dist_.percentile(99.9)); }
    double maxUs() const { return ticksToUs(dist_.max()); }
    const Distribution& dist() const { return dist_; }

  private:
    Distribution dist_; // samples stored in picoseconds
};

/** Format helper: "12345.6" with the given precision. */
std::string fmtDouble(double v, int precision = 1);

} // namespace cg::sim

#endif // CG_SIM_STATS_HH
