/**
 * @file
 * The discrete-event heart of the simulator.
 *
 * Events are closures scheduled at an absolute Tick. Scheduling returns an
 * EventId that can later be cancelled. Ties are broken by insertion order,
 * which together with the deterministic Rng gives bit-identical replays.
 *
 * Internals are optimised for the schedule/run/cancel churn that dominates
 * simulation wall-clock time:
 *
 *  - Callbacks are EventFn (small-buffer optimised, move-only): the
 *    pointer-capture lambdas that make up nearly all events never touch
 *    the heap on schedule.
 *  - schedule() is a header template: the callable is constructed
 *    directly into its slot (no EventFn temporary, no type-erased
 *    relocation), and the monotone-append ordering fast path inlines
 *    into the caller.
 *  - Callback slots live in fixed-size chunks whose addresses never
 *    move, so a callback is invoked in place — growth of the slot pool
 *    from inside a running callback is safe, and the consume path pays
 *    one type-erased call (invoke) instead of three
 *    (relocate/invoke/destroy-moved).
 *  - Slot liveness is generation parity: a slot's generation is odd
 *    while occupied and even while free, so the heap entries and
 *    EventIds need no separate live flag and staleness checks read one
 *    dense uint32 array (gens_) instead of striding through the
 *    EventFn pool.
 *  - Ordering is two-tier. A push that sorts at-or-after the tail of
 *    the sorted run appends to it in O(1); the run is consumed front to
 *    back. Every other push goes to a 4-ary min-heap (half the levels
 *    of a binary heap, cache-line-friendly sift). A pop takes whichever
 *    front is earlier, so events still execute in the exact (when, seq)
 *    total order: the split is invisible to simulated results. Monotone
 *    appends are not the common case: they are 2-9% of the pushes on
 *    corgi-bench's blk-io, tick and net-rr workloads, whose heaps hold
 *    2.6, 20 and 5 entries on average at a pop. The run carries bulk
 *    loads and far-future entries such as the host scheduler's KVM_RUN
 *    sentinel, which is cancelled long before it is reached.
 *  - The run is bounded by the live events. On a monotone append, if it
 *    holds 2 * live + 4096 entries or more, it is filtered in place down
 *    to its live entries, in order, and its head reset to 0. That drops
 *    both the consumed prefix and the cancelled entries queued behind a
 *    live far-future one. At least half of what a filter scans is dead
 *    and each entry dies once, so the cost is O(1) amortized per push.
 *    A filter can only move the run's tail earlier, so the appends after
 *    it keep the run sorted.
 *  - Cancellation is O(1) generation invalidation: an EventId encodes its
 *    slot and the slot's generation at schedule time. Cancelling (or
 *    running) an event bumps the generation, so stale heap entries are
 *    skipped on pop and stale EventIds — including ids of events that
 *    already executed — fail to cancel, keeping pending() exact. No
 *    lazy-delete side table is needed.
 */

#ifndef CG_SIM_EVENT_QUEUE_HH
#define CG_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace cg::sim {

/**
 * Handle to a scheduled event; 0 is "no event". Encodes (generation,
 * slot) — opaque to callers, unique across the queue's lifetime.
 */
using EventId = std::uint64_t;

constexpr EventId invalidEventId = 0;

/** Priority queue of timed callbacks with O(1) cancellation. */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callable at absolute time @p when (>= now). The
     * callable is constructed directly into its recycled slot; small
     * captures never touch the heap.
     */
    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                          std::is_invocable_v<D&>>>
    EventId
    schedule(Tick when, F&& fn)
    {
        CG_ASSERT(when >= now_, "scheduling into the past: %llu < %llu",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now_));
        const std::uint32_t idx = acquireSlot();
        fnAt(idx).emplace(std::forward<F>(fn));
        const std::uint32_t gen = gens_[idx];
        pushEntry(when, idx, gen);
        return makeId(idx, gen);
    }

    /** Schedule a pre-built EventFn (type-erased callers). */
    EventId schedule(Tick when, EventFn fn);

    /** Schedule after a delay relative to now. */
    template <typename F>
    EventId
    scheduleIn(Tick delay, F&& fn)
    {
        CG_ASSERT(delay <= maxTick - now_, "tick overflow");
        return schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Cancel a previously scheduled event.
     * @return true if the event was pending and is now cancelled; false
     *         for invalid ids and events that already ran or were
     *         already cancelled.
     */
    bool cancel(EventId id);

    /** True if no runnable events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled) pending events. */
    std::size_t pending() const { return live_; }

    /**
     * Entries the ordering structure holds, live or not: the whole
     * sorted run (consumed prefix included) plus the heap. Compaction
     * keeps the run under about 2 * pending() + 4096 entries.
     */
    std::size_t stored() const { return sorted_.size() + heap_.size(); }

    /**
     * Execute events in time order until the queue drains or @p limit
     * is reached (events at exactly @p limit still run).
     * @return the final simulated time.
     */
    Tick run(Tick limit = maxTick);

    /** Execute a single event if one exists. @return false if empty. */
    bool step();

  private:
    /**
     * Callback storage: fixed-size chunks, addresses stable for the
     * queue's lifetime. Slots are recycled through a free list; a
     * slot's entry in gens_ counts occupancies twice (odd = occupied,
     * even = free), invalidating any outstanding EventId/heap entry
     * that still references a consumed occupancy.
     */
    static constexpr std::size_t chunkShift = 8;
    static constexpr std::size_t chunkSize = std::size_t{1} << chunkShift;

    struct Chunk {
        EventFn fns[chunkSize];
    };

    /**
     * Chunks live on the slab recycler (sim/slab.hh): a chunk is
     * exactly one top-bucket slab block, so growing a queue reuses
     * the chunks a destroyed queue gave back instead of hitting the
     * heap. Sweep-style workloads that build and tear down whole
     * simulations in a loop otherwise spend double-digit percent of
     * their time in glibc heap grow/trim for these.
     */
    struct ChunkDeleter {
        void operator()(Chunk* c) const noexcept;
    };
    using ChunkPtr = std::unique_ptr<Chunk, ChunkDeleter>;

    /** Heap entry: plain data, cheap to sift. */
    struct Entry {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;

        /** Total order: earlier time first, then insertion order. */
        bool
        before(const Entry& o) const
        {
            if (when != o.when)
                return when < o.when;
            return seq < o.seq;
        }
    };

    /** Children per heap node (see file comment). */
    static constexpr std::size_t heapArity = 4;

    /** Dead run entries tolerated beyond 2 * live_ (see file comment). */
    static constexpr std::size_t runSlack = 4096;

    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        // slot+1 keeps 0 reserved for invalidEventId.
        return (static_cast<EventId>(gen) << 32) |
               (static_cast<EventId>(slot) + 1);
    }

    EventFn&
    fnAt(std::uint32_t idx)
    {
        return chunks_[idx >> chunkShift]->fns[idx & (chunkSize - 1)];
    }

    std::uint32_t
    acquireSlot()
    {
        if (!freeSlots_.empty()) {
            const std::uint32_t idx = freeSlots_.back();
            freeSlots_.pop_back();
            ++gens_[idx]; // even -> odd: occupied
            return idx;
        }
        return appendSlot();
    }

    /** Grow the pool by one slot (new chunk when needed). */
    std::uint32_t appendSlot();

    /** Insert into the ordering structure (see file comment). */
    void
    pushEntry(Tick when, std::uint32_t idx, std::uint32_t gen)
    {
        const Entry e{when, nextSeq_++, idx, gen};
        if (sortedHead_ == sorted_.size()) {
            // Fully consumed: recycle the run. Anything may start it.
            sorted_.clear();
            sortedHead_ = 0;
            sorted_.push_back(e);
        } else if (!e.before(sorted_.back())) {
            // Monotone arrival: O(1) fast path. e sorts after the old
            // tail, and a compaction can only move the tail earlier.
            if (sorted_.size() >= 2 * live_ + runSlack)
                compactRun();
            sorted_.push_back(e);
        } else {
            heapPush(e); // out-of-order arrival
        }
        ++live_;
    }

    /**
     * Filter the run in place down to its live entries, in order, and
     * reset sortedHead_: drops the consumed prefix and the cancelled
     * entries queued behind a live one.
     */
    void compactRun();

    void releaseSlot(std::uint32_t idx);

    void heapPush(Entry e);
    void heapPopTop();

    bool entryLive(const Entry& e) const
    {
        return gens_[e.slot] == e.gen;
    }

    /**
     * Earliest live pending entry, dropping stale (cancelled) entries
     * encountered on the way; nullptr if drained. The pointer is
     * invalidated by the next push/pop.
     */
    const Entry* peekMin();

    /** Remove the entry peekMin() just returned. */
    void dropMin(const Entry* top);

    /**
     * Invoke slot @p idx in place and recycle it. The slot is marked
     * consumed (generation bump) before the call, so the callback may
     * schedule (growing the pool — chunk addresses are stable) and a
     * cancel of its own id correctly fails; it is returned to the free
     * list only after the call, so the running callable's captures are
     * never overwritten.
     */
    void runSlot(std::uint32_t idx);

    /** Pop and run the earliest live event; false if none (drained). */
    bool consumeOne();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
    /**
     * Append-only sorted run: ascending (when, seq), consumed from
     * sortedHead_. compactRun() bounds its size by live_.
     */
    std::vector<Entry> sorted_;
    std::size_t sortedHead_ = 0;
    std::vector<Entry> heap_; ///< implicit min-heap, arity heapArity
    std::vector<ChunkPtr> chunks_;
    std::vector<std::uint32_t> gens_; ///< per-slot; odd = occupied
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace cg::sim

#endif // CG_SIM_EVENT_QUEUE_HH
