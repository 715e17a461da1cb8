/**
 * @file
 * The CVM-exit doorbell: the single additional IPI the paper's
 * prototype allocates (section 4.3 — Arm has 16 SGIs, Linux reserves 7,
 * so no information can travel in the IPI itself). The security monitor
 * rings it at a host core after writing exit information to shared
 * memory; the handler activates the wake-up threads subscribed on that
 * core, which then poll the RPC channels to find the exited vCPU.
 */

#ifndef CG_CORE_DOORBELL_HH
#define CG_CORE_DOORBELL_HH

#include <functional>
#include <map>
#include <vector>

#include "host/kernel.hh"
#include "sim/sync.hh"

namespace cg::core {

class ExitDoorbell
{
  public:
    using Handler = std::function<void()>;

    explicit ExitDoorbell(host::Kernel& kernel);
    ~ExitDoorbell();

    ExitDoorbell(const ExitDoorbell&) = delete;
    ExitDoorbell& operator=(const ExitDoorbell&) = delete;

    /**
     * Subscribe a wake-up handler for rings on @p core. Handlers must
     * be level-triggered on their side (set a flag, then notify): the
     * IPI carries no information and rings can coalesce.
     * @return a subscription id for unsubscribe().
     */
    std::uint64_t subscribe(sim::CoreId core, Handler fn);

    void unsubscribe(sim::CoreId core, std::uint64_t id);

    /** Ring the doorbell at @p core (called by the monitor side). */
    void ring(sim::CoreId core);

    /**
     * Ring again for a delivery the wake-up watchdog found missing
     * (at-least-once delivery; duplicates coalesce in the subscribers'
     * level-triggered flags and in RunSlot's delivered_ dedup).
     */
    void rering(sim::CoreId core);

    std::uint64_t rings() const { return rings_.value(); }
    std::uint64_t rerings() const { return rerings_.value(); }

    /** Register the doorbell's counters under "doorbell." in @p reg. */
    void registerStats(sim::StatRegistry& reg);

  private:
    void onIpi(sim::CoreId core);

    host::Kernel& kernel_;
    int ipi_;
    std::map<sim::CoreId,
             std::vector<std::pair<std::uint64_t, Handler>>> subs_;
    std::uint64_t nextSubId_ = 1;
    sim::Counter rings_;
    sim::Counter lostRings_;
    sim::Counter rerings_;
    sim::StatGroup statGroup_;
};

} // namespace cg::core

#endif // CG_CORE_DOORBELL_HH
