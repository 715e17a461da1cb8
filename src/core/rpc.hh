/**
 * @file
 * Cross-core RPC channels on shared (non-confidential) memory — the
 * transport that replaces same-core privilege transitions in the
 * core-gapped design (sections 3 and 4.3).
 *
 * Two kinds, mirroring the paper's split:
 *
 *  - SyncRpc: short RMM calls (page-table updates etc.). The host
 *    thread writes arguments and busy-polls for the response; a
 *    dedicated monitor core that is otherwise idle picks the call up
 *    from its polling loop. Round trip: ~2 cache-line transfers plus
 *    poll reactions (table 2: 257.7 ns).
 *
 *  - RunSlot: the asynchronous vCPU run call. The host posts arguments
 *    and blocks; the monitor runs the guest, writes the exit record,
 *    and rings the doorbell; the wake-up thread unblocks the vCPU
 *    thread (table 2: 2757.6 ns; fig. 4).
 *
 * core::GappedVm is the vmm::RmiTransport built on them: its call()
 * goes through the VM's SyncRpcQueue and its run() through the
 * vCPU's RunSlot.
 */

#ifndef CG_CORE_RPC_HH
#define CG_CORE_RPC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "hw/machine.hh"
#include "rmm/rmm.hh"
#include "sim/sync.hh"

namespace cg::core {

using sim::Proc;
using sim::Tick;

/**
 * A pending short synchronous call. Shared between the caller's
 * coroutine frame and the service queue so that a caller killed
 * mid-call (VM teardown) leaves no dangling queue entry.
 */
struct SyncCall {
    std::function<rmm::RmiStatus()> op;
    rmm::RmiStatus result = rmm::RmiStatus::Success;
    bool done = false;
};

/**
 * The shared-memory mailbox for short calls of one VM. Host side posts;
 * any of the VM's dedicated monitor cores services it while idle.
 *
 * With the simulation's fault plan armed, the busy-wait is bounded:
 * after pokeTimeout of spinning without pickup the caller re-pokes the
 * monitor (exponential backoff), and after maxRepokes the call is
 * withdrawn from the queue and fails with RmiStatus::Timeout — the op
 * never ran, so callers may retry safely (vmm::KvmVm does). Disarmed,
 * the wait is unbounded and byte-identical to the pre-fault model.
 */
class SyncRpcQueue
{
  public:
    /** @p monitor_poke is notified (after wire delay) on each post. */
    SyncRpcQueue(hw::Machine& m, sim::Notify& monitor_poke)
        : machine_(m), monitorPoke_(monitor_poke)
    {}

    ~SyncRpcQueue();

    SyncRpcQueue(const SyncRpcQueue&) = delete;
    SyncRpcQueue& operator=(const SyncRpcQueue&) = delete;

    /** Host side: post and busy-wait (caller is a host thread). */
    Proc<rmm::RmiStatus> call(std::function<rmm::RmiStatus()> op);

    /** Monitor side: anything to service? */
    bool pending() const { return !queue_.empty(); }

    /** Monitor side: service one call (charges handler+response). */
    Proc<void> serviceOne();

    std::uint64_t callsServed() const { return served_.value(); }
    const sim::Counter& servedStat() const { return served_; }
    const sim::Counter& timeoutStat() const { return timeouts_; }
    const sim::Counter& repokeStat() const { return repokes_; }

    /** VM-domain trace track for this queue's tracepoints. */
    void setTraceDomain(int domain) { traceDomain_ = domain; }

    /** @{ Bounded-wait policy (effective only with faults armed). */
    /** Base deadline before the first re-poke; doubles per retry. */
    static constexpr Tick pokeTimeout = 500 * sim::usec;
    /** Re-pokes before the call is withdrawn with Timeout. */
    static constexpr int maxRepokes = 4;
    /** @} */

  private:
    /** A wire-delay poke event that has not fired yet. */
    struct PendingPoke {
        std::uint64_t token;
        sim::EventId ev;
    };

    void completePoke(std::uint64_t token);

    /** Schedule the wire poke for a post (fault: may be stalled). */
    void sendPoke(bool repoke);

    /** Withdraw an unserviced call; false if already picked up. */
    bool withdraw(const std::shared_ptr<SyncCall>& call);

    hw::Machine& machine_;
    sim::Notify& monitorPoke_;
    std::deque<std::shared_ptr<SyncCall>> queue_;
    sim::Counter served_;
    sim::Counter timeouts_;
    sim::Counter repokes_;
    int traceDomain_ = 0;
    /** In-flight wire events, cancelled if we are destroyed first. */
    std::vector<PendingPoke> pendingPokes_;
    std::uint64_t nextPokeToken_ = 1;
};

/** The per-vCPU asynchronous run-call mailbox (fig. 4). */
class RunSlot
{
  public:
    /** @p monitor_poke is notified (after wire delay) on each post. */
    RunSlot(hw::Machine& m, sim::Notify& monitor_poke)
        : machine_(m), monitorPoke_(monitor_poke)
    {}

    ~RunSlot();

    /** @{ Host side. */
    /** Post run arguments; visible to the monitor after wire delay. */
    void post(rmm::RecEnterArgs args);

    /** Response arrived and not yet consumed? */
    bool responseReady() const { return state_ == State::Done; }

    /** @{ Wake-up thread bookkeeping: notify each response once. */
    bool needsDelivery() const
    {
        return state_ == State::Done && !delivered_;
    }
    void markDelivered() { delivered_ = true; }
    /** When the current response became host-visible (the wake-up
     * thread measures its own reaction latency from this). */
    Tick readyAt() const { return readyAt_; }
    /** @} */

    /** Consume the response (host thread; charges the read). */
    Proc<rmm::RecRunResult> takeResponse();

    /** The vCPU thread blocks here; poked by the wake-up thread. */
    sim::Notify& hostNotify() { return hostNotify_; }
    /** @} */

    /** @{ Monitor side. */
    bool posted() const { return state_ == State::Posted; }

    /** Begin executing a posted call (charges the pickup). */
    Proc<rmm::RecEnterArgs> takeArgs();

    /** Publish the result and make it host-visible. */
    void publish(rmm::RecRunResult result);
    /** @} */

    bool idle() const { return state_ == State::Idle; }

  private:
    enum class State { Idle, Posted, Running, Done };

    /** For panic messages from the state-machine guards. */
    const char* stateName() const;

    hw::Machine& machine_;
    sim::Notify& monitorPoke_;
    State state_ = State::Idle;
    bool delivered_ = false;
    Tick readyAt_ = 0;
    rmm::RecEnterArgs args_;
    rmm::RecRunResult result_;
    sim::Notify hostNotify_;
    /** In-flight wire-delay events, cancelled if we die first. */
    sim::EventId pendingPost_ = sim::invalidEventId;
    sim::EventId pendingPublish_ = sim::invalidEventId;
};

} // namespace cg::core

#endif // CG_CORE_RPC_HH
