#include "attacks/catalog.hh"

namespace cg::attacks {

const char*
scopeName(Scope s)
{
    switch (s) {
      case Scope::SameThread:
        return "same-thread";
      case Scope::SiblingSmt:
        return "sibling-smt";
      case Scope::SameCore:
        return "same-core";
      case Scope::CrossCore:
        return "cross-core";
      case Scope::Remote:
        return "remote";
    }
    return "?";
}

const std::vector<Vulnerability>&
vulnerabilityCatalog()
{
    using K = Kind;
    using S = Scope;
    // Compiled from the paper's fig. 3 and its reference list. A
    // vulnerability is "mitigated by core gapping" when its reach is
    // confined to one core (time-sliced contexts or SMT siblings, which
    // core gapping co-dedicates; footnote 1 in the paper).
    static const std::vector<Vulnerability> catalog = {
        {"Spectre", 2018, K::TransientExecution, S::SameCore,
         "branch predictor", true},
        {"Meltdown", 2018, K::TransientExecution, S::SameCore,
         "L1D / permission check", true},
        {"Speculative Store Bypass", 2018, K::TransientExecution,
         S::SameCore, "store buffer", true},
        {"LazyFP", 2018, K::TransientExecution, S::SameCore,
         "FPU register state", true},
        {"Foreshadow/L1TF", 2018, K::TransientExecution, S::SiblingSmt,
         "L1D", true},
        {"NetSpectre", 2019, K::TransientExecution, S::Remote,
         "cache via network timing", false},
        {"ZombieLoad", 2019, K::TransientExecution, S::SiblingSmt,
         "fill buffers", true},
        {"RIDL", 2019, K::TransientExecution, S::SiblingSmt,
         "line fill buffers", true},
        {"Fallout", 2019, K::TransientExecution, S::SameCore,
         "store buffer", true},
        {"SWAPGS speculation", 2019, K::TransientExecution, S::SameCore,
         "branch predictor", true},
        {"iTLB multihit", 2019, K::ArchitecturalBug, S::SameCore,
         "iTLB", true},
        {"Plundervolt", 2020, K::ArchitecturalBug, S::SameCore,
         "voltage fault injection", true},
        {"LVI", 2020, K::TransientExecution, S::SameCore,
         "load value injection", true},
        {"CacheOut", 2020, K::TransientExecution, S::SiblingSmt,
         "L1D eviction sampling", true},
        {"Snoop-assisted L1 sampling", 2020, K::TransientExecution,
         S::SameCore, "L1D snoops", true},
        {"Straight-line speculation", 2020, K::TransientExecution,
         S::SameCore, "speculative fetch", true},
        {"CrossTalk", 2020, K::TransientExecution, S::CrossCore,
         "shared staging buffer (CPUID/RDRAND)", false},
        {"I see dead uops", 2021, K::TransientExecution, S::SiblingSmt,
         "micro-op cache", true},
        {"CacheWarp precursor (MMIO stale data)", 2022,
         K::ArchitecturalBug, S::SameCore, "fill/store buffers", true},
        {"Branch History Injection", 2022, K::TransientExecution,
         S::SameCore, "branch history buffer", true},
        {"Retbleed", 2022, K::TransientExecution, S::SameCore,
         "return stack / BTB", true},
        {"AEPIC leak", 2022, K::ArchitecturalBug, S::SameCore,
         "APIC MMIO / staging", true},
        {"PACMAN", 2022, K::TransientExecution, S::SameCore,
         "pointer authentication oracle", true},
        {"Augury", 2022, K::TransientExecution, S::SameCore,
         "data memory-dependent prefetcher", true},
        {"Hide-and-seek spectres", 2023, K::TransientExecution,
         S::SameCore, "assorted speculative leaks", true},
        {"Downfall", 2023, K::TransientExecution, S::SameCore,
         "gather data sampling", true},
        {"Inception", 2023, K::TransientExecution, S::SameCore,
         "return stack training", true},
        {"Zenbleed", 2023, K::ArchitecturalBug, S::SameCore,
         "vector register file", true},
        {"Reptar", 2023, K::ArchitecturalBug, S::SameCore,
         "instruction decode", true},
        {"Speculation at fault", 2023, K::TransientExecution,
         S::SameCore, "exception transients", true},
        {"(M)WAIT side channel", 2023, K::TransientExecution,
         S::CrossCore, "monitor/mwait coherence", false},
        {"GhostRace", 2024, K::TransientExecution, S::CrossCore,
         "speculative races (shared kernel)", true},
        {"CacheWarp", 2024, K::ArchitecturalBug, S::SameCore,
         "selective state reset (SEV)", true},
        {"GoFetch", 2024, K::TransientExecution, S::SameCore,
         "data memory-dependent prefetcher", true},
        {"TikTag", 2024, K::TransientExecution, S::SameCore,
         "MTE tag check transients", true},
        {"InSpectre Gadget", 2024, K::TransientExecution, S::SameCore,
         "residual Spectre-v2 gadgets", true},
        {"Leaky Address Masking", 2024, K::TransientExecution,
         S::SameCore, "non-canonical translation", true},
    };
    return catalog;
}

int
countInYear(int year)
{
    int n = 0;
    for (const auto& v : vulnerabilityCatalog())
        n += v.year == year ? 1 : 0;
    return n;
}

std::vector<Vulnerability>
mitigatedByCoreGapping()
{
    std::vector<Vulnerability> out;
    for (const auto& v : vulnerabilityCatalog()) {
        if (v.mitigatedByCoreGapping)
            out.push_back(v);
    }
    return out;
}

std::vector<Vulnerability>
notMitigatedByCoreGapping()
{
    std::vector<Vulnerability> out;
    for (const auto& v : vulnerabilityCatalog()) {
        if (!v.mitigatedByCoreGapping)
            out.push_back(v);
    }
    return out;
}

} // namespace cg::attacks
