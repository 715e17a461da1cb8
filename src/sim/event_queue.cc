#include "sim/event_queue.hh"

#include <new>
#include <utility>

#include "sim/logging.hh"
#include "sim/slab.hh"

namespace cg::sim {

void
EventQueue::ChunkDeleter::operator()(Chunk* c) const noexcept
{
    c->~Chunk();
    slabFree(c, sizeof(Chunk));
}

std::uint32_t
EventQueue::appendSlot()
{
    const std::size_t idx = gens_.size();
    CG_ASSERT(idx < UINT32_MAX, "event slot pool exhausted");
    if ((idx & (chunkSize - 1)) == 0)
        chunks_.push_back(ChunkPtr(new (slabAlloc(sizeof(Chunk))) Chunk));
    gens_.push_back(1); // odd: occupied from birth
    return static_cast<std::uint32_t>(idx);
}

void
EventQueue::releaseSlot(std::uint32_t idx)
{
    fnAt(idx).reset();
    ++gens_[idx]; // odd -> even: free; invalidates outstanding ids
    freeSlots_.push_back(idx);
}

void
EventQueue::heapPush(Entry e)
{
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
        const std::size_t parent = (i - 1) / heapArity;
        if (!e.before(heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

void
EventQueue::heapPopTop()
{
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return;
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = heapArity * i + 1;
        if (first >= n)
            break;
        const std::size_t end =
            first + heapArity < n ? first + heapArity : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (heap_[c].before(heap_[best]))
                best = c;
        }
        if (!heap_[best].before(last))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
}

EventId
EventQueue::schedule(Tick when, EventFn fn)
{
    CG_ASSERT(when >= now_, "scheduling into the past: %llu < %llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    const std::uint32_t idx = acquireSlot();
    fnAt(idx) = std::move(fn);
    const std::uint32_t gen = gens_[idx];
    pushEntry(when, idx, gen);
    return makeId(idx, gen);
}

bool
EventQueue::cancel(EventId id)
{
    if (id == invalidEventId)
        return false;
    const std::uint64_t slot_plus1 = id & 0xffffffffULL;
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (slot_plus1 == 0 || slot_plus1 > gens_.size())
        return false;
    const auto idx = static_cast<std::uint32_t>(slot_plus1 - 1);
    if (gens_[idx] != gen)
        return false; // already ran, already cancelled, or slot reused
    releaseSlot(idx);
    CG_ASSERT(live_ > 0, "cancel accounting underflow");
    --live_;
    return true;
}

const EventQueue::Entry*
EventQueue::peekMin()
{
    // Drop stale (cancelled) entries from both candidate fronts.
    while (sortedHead_ < sorted_.size() &&
           !entryLive(sorted_[sortedHead_]))
        ++sortedHead_;
    while (!heap_.empty() && !entryLive(heap_[0]))
        heapPopTop();

    const bool has_sorted = sortedHead_ < sorted_.size();
    const bool has_heap = !heap_.empty();
    if (has_sorted && has_heap) {
        return sorted_[sortedHead_].before(heap_[0]) ? &sorted_[sortedHead_]
                                                     : &heap_[0];
    }
    if (has_sorted)
        return &sorted_[sortedHead_];
    if (has_heap)
        return &heap_[0];
    if (!sorted_.empty()) {
        sorted_.clear();
        sortedHead_ = 0;
    }
    return nullptr;
}

void
EventQueue::dropMin(const Entry* top)
{
    if (!heap_.empty() && top == &heap_[0]) {
        heapPopTop();
        return;
    }
    ++sortedHead_;
}

void
EventQueue::compactRun()
{
    std::size_t out = 0;
    for (std::size_t i = sortedHead_; i < sorted_.size(); ++i) {
        if (entryLive(sorted_[i]))
            sorted_[out++] = sorted_[i];
    }
    sorted_.resize(out);
    sortedHead_ = 0;
}

void
EventQueue::runSlot(std::uint32_t idx)
{
    // Consume before invoking: the callback may schedule or try to
    // cancel its own id (must fail). The slot joins the free list only
    // after the call returns, even if the callback throws.
    ++gens_[idx]; // odd -> even: consumed
    --live_;
    EventFn& fn = fnAt(idx);
    struct Recycle {
        EventQueue* q;
        EventFn* fn;
        std::uint32_t idx;
        ~Recycle()
        {
            fn->reset();
            q->freeSlots_.push_back(idx);
        }
    } recycle{this, &fn, idx};
    fn();
}

bool
EventQueue::consumeOne()
{
    const Entry* top = peekMin();
    if (!top)
        return false;
    const Entry e = *top;
    dropMin(top);
    CG_ASSERT(e.when >= now_, "event queue time went backwards");
    now_ = e.when;
    runSlot(e.slot);
    return true;
}

bool
EventQueue::step()
{
    return consumeOne();
}

Tick
EventQueue::run(Tick limit)
{
    for (;;) {
        const Entry* top = peekMin();
        if (!top)
            break;
        if (top->when > limit) {
            now_ = limit;
            return now_;
        }
        const Entry e = *top;
        dropMin(top);
        now_ = e.when;
        runSlot(e.slot);
    }
    if (limit != maxTick && limit > now_)
        now_ = limit;
    return now_;
}

} // namespace cg::sim
