#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace cg::sim {

void
Accumulator::sample(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
Accumulator::reset()
{
    *this = Accumulator();
}

double
Accumulator::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

void
Distribution::sample(double x)
{
    // The sorted cache needs no invalidation: ensureSorted() compares
    // sizes and merges the new tail on the next query.
    if (samples_.empty()) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    sum_ += x;
    samples_.push_back(x);
}

void
Distribution::reset()
{
    samples_.clear();
    sorted_.clear();
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

const std::vector<double>&
Distribution::ensureSorted() const
{
    const size_t merged = sorted_.size();
    if (merged == samples_.size())
        return sorted_;
    sorted_.insert(sorted_.end(), samples_.begin() +
                   static_cast<std::ptrdiff_t>(merged), samples_.end());
    const auto mid = sorted_.begin() + static_cast<std::ptrdiff_t>(merged);
    std::sort(mid, sorted_.end());
    std::inplace_merge(sorted_.begin(), mid, sorted_.end());
    return sorted_;
}

double
Distribution::percentile(double p) const
{
    CG_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: %f", p);
    if (samples_.empty())
        return 0.0;
    const std::vector<double>& s = ensureSorted();
    if (s.size() == 1)
        return s[0];
    const double rank = (p / 100.0) * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return s[lo] * (1.0 - frac) + s[hi] * frac;
}

void
LatencyStat::sample(Tick t)
{
    dist_.sample(static_cast<double>(t));
}

void
LatencyStat::reset()
{
    dist_.reset();
}

std::string
fmtDouble(double v, int precision)
{
    return strFormat("%.*f", precision, v);
}

} // namespace cg::sim
