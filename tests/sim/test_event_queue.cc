/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace cg::sim;

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30 * nsec, [&] { order.push_back(3); });
    q.schedule(10 * nsec, [&] { order.push_back(1); });
    q.schedule(20 * nsec, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30 * nsec);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(5 * nsec, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100 * nsec, [&] {
        q.scheduleIn(50 * nsec, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150 * nsec);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10 * nsec, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelIsIdempotent)
{
    EventQueue q;
    EventId id = q.schedule(10 * nsec, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(invalidEventId));
    EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10 * nsec, [&] { ++count; });
    q.schedule(20 * nsec, [&] { ++count; });
    q.schedule(30 * nsec, [&] { ++count; });
    q.run(20 * nsec); // events at exactly the limit still run
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20 * nsec);
    q.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, RunToLimitAdvancesTimeWithoutEvents)
{
    EventQueue q;
    q.run(5 * usec);
    EXPECT_EQ(q.now(), 5 * usec);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            q.scheduleIn(1 * nsec, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(q.now(), 9 * nsec);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue q;
    int count = 0;
    q.schedule(1 * nsec, [&] { ++count; });
    q.schedule(2 * nsec, [&] { ++count; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, PendingCountTracksCancellations)
{
    EventQueue q;
    EventId a = q.schedule(1 * nsec, [] {});
    q.schedule(2 * nsec, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelInsideEventCallback)
{
    EventQueue q;
    bool second_ran = false;
    EventId second = q.schedule(20 * nsec, [&] { second_ran = true; });
    q.schedule(10 * nsec, [&] { q.cancel(second); });
    q.run();
    EXPECT_FALSE(second_ran);
}

// Regression: the pre-slot-pool queue let cancel() of an id whose event
// had already executed "succeed", undercounting pending() and leaking a
// lazy-delete set entry.
TEST(EventQueue, CancelAfterExecutionReturnsFalse)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10 * nsec, [&] { ran = true; });
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.pending(), 0u);

    // pending() must stay exact afterwards: a later event is still
    // counted and still runs.
    bool later = false;
    q.schedule(20 * nsec, [&] { later = true; });
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.cancel(id)); // still false on repeat
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_TRUE(later);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelAfterStepPopReturnsFalseTwice)
{
    EventQueue q;
    EventId id = q.schedule(1 * nsec, [] {});
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelOwnIdInsideCallbackReturnsFalse)
{
    EventQueue q;
    EventId self = invalidEventId;
    bool cancelled_self = true;
    self = q.schedule(5 * nsec, [&] {
        cancelled_self = q.cancel(self);
    });
    q.run();
    EXPECT_FALSE(cancelled_self);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, StaleIdOfRecycledSlotDoesNotCancelNewEvent)
{
    EventQueue q;
    // Consume a slot, then schedule again (recycling it). The stale id
    // must neither cancel nor disturb the new occupant.
    EventId old_id = q.schedule(1 * nsec, [] {});
    q.run();
    bool ran = false;
    EventId new_id = q.schedule(2 * nsec, [&] { ran = true; });
    EXPECT_NE(old_id, new_id);
    EXPECT_FALSE(q.cancel(old_id));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, PendingStaysExactUnderScheduleCancelChurn)
{
    EventQueue q;
    int ran = 0;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(q.schedule(Tick(i + 1) * nsec, [&] { ++ran; }));
    // Cancel every third; re-cancel to confirm idempotence.
    std::size_t cancelled = 0;
    for (std::size_t i = 0; i < ids.size(); i += 3) {
        EXPECT_TRUE(q.cancel(ids[i]));
        EXPECT_FALSE(q.cancel(ids[i]));
        ++cancelled;
    }
    EXPECT_EQ(q.pending(), 100u - cancelled);
    q.run();
    EXPECT_EQ(static_cast<std::size_t>(ran), 100u - cancelled);
    EXPECT_EQ(q.pending(), 0u);
    // Post-drain, every id is dead.
    for (EventId id : ids)
        EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, RunLimitEventsExactlyAtLimitRun)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10 * nsec, [&] { order.push_back(1); });
    q.schedule(20 * nsec, [&] { order.push_back(2); });
    q.schedule(20 * nsec, [&] { order.push_back(3); });
    q.schedule(20 * nsec + 1, [&] { order.push_back(4); });
    q.run(20 * nsec);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 20 * nsec);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunLimitAdvancesNowWhenQueueDrainsEarly)
{
    EventQueue q;
    bool ran = false;
    q.schedule(3 * nsec, [&] { ran = true; });
    q.run(90 * nsec); // drains at t=3, then jumps to the limit
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.now(), 90 * nsec);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunWithoutLimitLeavesNowAtLastEvent)
{
    EventQueue q;
    q.schedule(7 * nsec, [] {});
    q.run();
    EXPECT_EQ(q.now(), 7 * nsec);
}

// Out-of-order scheduling exercises the heap path; interleaved with
// in-order (sorted-run) arrivals, the pop order must still be the
// strict (when, insertion) total order.
TEST(EventQueue, TieBreakAcrossInOrderAndOutOfOrderArrivals)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(50 * nsec, [&] { order.push_back(0); }); // run
    q.schedule(10 * nsec, [&] { order.push_back(1); }); // heap
    q.schedule(50 * nsec, [&] { order.push_back(2); }); // run (tie w/ 0)
    q.schedule(10 * nsec, [&] { order.push_back(3); }); // heap (tie w/ 1)
    q.schedule(60 * nsec, [&] { order.push_back(4); }); // run
    q.schedule(30 * nsec, [&] { order.push_back(5); }); // heap
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 0, 2, 4}));
}

TEST(EventQueue, DeterministicOrderUnderHeavyChurnWithCancels)
{
    // Two identical schedules of interleaved in/out-of-order events
    // with cancellations must execute in the identical order.
    auto run_once = [] {
        EventQueue q;
        std::vector<int> order;
        std::vector<EventId> ids;
        for (int i = 0; i < 200; ++i) {
            // Times bounce around to mix the sorted run and the heap.
            const Tick t = Tick((i * 37) % 101) * nsec;
            ids.push_back(
                q.schedule(t, [&order, i] { order.push_back(i); }));
        }
        for (int i = 0; i < 200; i += 5)
            q.cancel(ids[static_cast<std::size_t>(i)]);
        q.run();
        return order;
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 160u);
}

namespace {

/** The host scheduler's KVM_RUN sentinel: far in the future, cancelled
 * before it is reached, so it leaves the run only as a stale entry. */
constexpr Tick sentinelDelay = 3600 * sec;

/**
 * Each step appends a sentinel to the run and cancels the previous one
 * (@p sentinel), then runs a near event that goes through the heap: the
 * run's front only ever moves by the stale-entry skip, never by a pop
 * from the run. Checks the compaction rule's bound after every call.
 */
void
sentinelChurn(EventQueue& q, int steps, EventId& sentinel)
{
    int ran = 0;
    auto bounded = [&q] { return q.stored() <= 2 * q.pending() + 4097; };
    for (int i = 0; i < steps; ++i) {
        const EventId next = q.scheduleIn(sentinelDelay, [] {});
        ASSERT_TRUE(bounded()) << "step " << i << ": " << q.stored();
        q.cancel(sentinel);
        sentinel = next;
        ASSERT_TRUE(bounded()) << "step " << i << ": " << q.stored();
        q.scheduleIn(1 * nsec, [&ran] { ++ran; });
        ASSERT_TRUE(bounded()) << "step " << i << ": " << q.stored();
        ASSERT_TRUE(q.step());
        ASSERT_TRUE(bounded()) << "step " << i << ": " << q.stored();
    }
    EXPECT_EQ(ran, steps);
}

} // namespace

TEST(EventQueue, SentinelChurnKeepsStorageBoundedByLiveEvents)
{
    EventQueue q;
    EventId sentinel = invalidEventId;
    sentinelChurn(q, 20000, sentinel);
    EXPECT_EQ(q.pending(), 1u);
}

// The same churn behind one live far-future entry at the run's front:
// the run's head never moves, so dropping only a consumed prefix would
// leave every cancelled sentinel in place.
TEST(EventQueue, SentinelChurnBehindLiveFrontKeepsStorageBounded)
{
    EventQueue q;
    bool front_ran = false;
    q.schedule(3000 * sec, [&front_ran] { front_ran = true; });
    EventId sentinel = invalidEventId;
    sentinelChurn(q, 20000, sentinel);
    EXPECT_FALSE(front_ran);
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(sentinel);
    q.run();
    EXPECT_TRUE(front_ran);
    EXPECT_EQ(q.now(), 3000 * sec);
}

// A seeded random mix of zero-delay, near, random and sentinel-like
// schedules, cancels, steps and bounded runs, checked against a
// std::multimap (equal keys keep insertion order, i.e. the queue's
// (when, seq) order): execution order must match exactly across the
// run's compactions.
TEST(EventQueue, RandomScheduleCancelRunMatchesMultimapReference)
{
    using Ref = std::multimap<Tick, int>;
    EventQueue q;
    Ref ref;
    std::vector<EventId> ids;
    std::vector<Ref::iterator> where;
    std::vector<bool> queued;
    std::vector<int> order, expected;
    Rng rng(0x5e47);

    auto pop_expected = [&] {
        const int label = ref.begin()->second;
        ref.erase(ref.begin());
        queued[static_cast<std::size_t>(label)] = false;
        expected.push_back(label);
    };

    auto cancel_label = [&](std::size_t k) {
        EXPECT_EQ(q.cancel(ids[k]), static_cast<bool>(queued[k]));
        if (queued[k]) {
            ref.erase(where[k]);
            queued[k] = false;
        }
    };

    std::size_t compactions = 0;
    int sentinel = -1;
    for (int op = 0; op < 100000; ++op) {
        const std::uint64_t r = rng.uniformInt(0, 99);
        if (r < 45) {
            Tick delay = 0;
            const std::uint64_t kind = rng.uniformInt(0, 99);
            if (kind < 15)
                delay = 0;
            else if (kind < 40)
                delay = rng.uniformInt(1, 1000) * nsec;
            else if (kind < 50)
                delay = rng.uniformInt(1, 10000) * usec;
            else
                delay = sentinelDelay;
            const int label = static_cast<int>(ids.size());
            const std::size_t before = q.stored();
            ids.push_back(q.scheduleIn(
                delay, [&order, label] { order.push_back(label); }));
            // The live sentinel keeps the run from draining, so only a
            // compaction drops 4096 or more entries on a push.
            if (q.stored() + 4096 <= before + 1)
                ++compactions;
            where.push_back(ref.emplace(q.now() + delay, label));
            queued.push_back(true);
            if (delay == sentinelDelay) {
                // A new sentinel replaces the previous one.
                if (sentinel >= 0)
                    cancel_label(static_cast<std::size_t>(sentinel));
                sentinel = label;
            }
        } else if (r < 75) {
            if (ids.empty())
                continue;
            // Cancel one of the 64 newest events, as timeouts are.
            const std::uint64_t window = std::min<std::size_t>(ids.size(), 64);
            const std::uint64_t back = rng.uniformInt(0, window - 1);
            const std::size_t k = ids.size() - 1 - back;
            if (static_cast<int>(k) != sentinel)
                cancel_label(k);
        } else if (r < 95) {
            // Like the real one, the sentinel is cancelled, not reached.
            if (!ref.empty() && ref.begin()->second == sentinel)
                continue;
            ASSERT_EQ(q.step(), !ref.empty()) << "op " << op;
            if (!ref.empty())
                pop_expected();
        } else {
            const Tick limit = q.now() + rng.uniformInt(0, 2000) * usec;
            while (!ref.empty() && ref.begin()->first <= limit)
                pop_expected();
            q.run(limit);
            ASSERT_EQ(q.now(), limit);
        }
        ASSERT_EQ(q.pending(), ref.size()) << "op " << op;
        ASSERT_EQ(order.size(), expected.size()) << "op " << op;
    }
    while (!ref.empty())
        pop_expected();
    q.run();
    EXPECT_EQ(order, expected);
    EXPECT_TRUE(q.empty());
    // The sequence is long enough to compact the run several times.
    EXPECT_GE(compactions, 4u);
}
