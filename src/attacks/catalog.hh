/**
 * @file
 * The catalogue of disclosed transient-execution vulnerabilities and
 * CPU bugs that broke security isolation on mainstream CPUs since 2018
 * — the data behind fig. 3 and the paper's core observation: of 35+
 * such vulnerabilities, only CrossTalk demonstrated a cross-core leak
 * in a typical cloud VM setting (NetSpectre is remote but extremely
 * low rate), so isolating distrusting code on distinct cores removes
 * nearly the entire class.
 */

#ifndef CG_ATTACKS_CATALOG_HH
#define CG_ATTACKS_CATALOG_HH

#include <string>
#include <vector>

namespace cg::attacks {

/** How far the leak reaches. */
enum class Scope {
    SameThread,  ///< within one hardware thread (e.g. same-address-space)
    SiblingSmt,  ///< across SMT siblings of one core
    SameCore,    ///< across time-sliced contexts on one core
    CrossCore,   ///< across physical cores
    Remote,      ///< over the network
};

enum class Kind {
    TransientExecution, ///< speculation / out-of-order leak
    ArchitecturalBug,   ///< CPU erratum leaking or corrupting state
};

const char* scopeName(Scope s);

struct Vulnerability {
    std::string name;
    int year;
    Kind kind;
    Scope scope;
    /** Which structure class it exploits (free text, for reports). */
    std::string channel;
    /** Does binding distrusting code to distinct cores block it? */
    bool mitigatedByCoreGapping;
};

/** The full catalogue (fig. 3's timeline). */
const std::vector<Vulnerability>& vulnerabilityCatalog();

/** Count of catalogue entries disclosed in @p year. */
int countInYear(int year);

/** Entries core gapping mitigates / does not mitigate. */
std::vector<Vulnerability> mitigatedByCoreGapping();
std::vector<Vulnerability> notMitigatedByCoreGapping();

} // namespace cg::attacks

#endif // CG_ATTACKS_CATALOG_HH
