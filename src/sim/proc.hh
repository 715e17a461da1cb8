/**
 * @file
 * Coroutine-based simulated processes.
 *
 * A simulated process is a C++20 coroutine returning Proc<T>. Code between
 * awaits executes in zero simulated time; simulated time passes only at
 * awaitables:
 *
 *   co_await Delay{t};     sleep for simulated time t (no CPU consumed)
 *   co_await Compute{t};   consume t of CPU time under the process's
 *                          Dispatcher (which may preempt / delay it)
 *   co_await gate.wait();  block until signalled (see sync.hh)
 *   co_await child(args);  run a sub-process to completion (same Process)
 *
 * Each top-level spawned coroutine gets a Process control block that tracks
 * its state and its Dispatcher. Dispatchers give the same coroutine code
 * different execution semantics: free-running (hardware, firmware on a
 * dedicated core), host-kernel thread (preemptively scheduled on host
 * cores), or guest vCPU (advances only while the vCPU is entered).
 */

#ifndef CG_SIM_PROC_HH
#define CG_SIM_PROC_HH

#include <coroutine>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/slab.hh"
#include "sim/types.hh"

namespace cg::sim {

class Notify;
class Process;
class Simulation;
class Waitable;

/** State shared by every Proc<T> promise. */
struct PromiseBase {
    /** Control block of the process this coroutine runs in. */
    Process* proc = nullptr;
    /** Parent coroutine awaiting this one (empty for top level). */
    std::coroutine_handle<> continuation{};
    /** Uncaught exception, rethrown at the await site. */
    std::exception_ptr exception{};
};

/**
 * Execution policy for a Process.
 *
 * Implementations decide *when* a ready process actually resumes: the
 * FreeDispatcher resumes immediately (at the correct simulated time),
 * while the host-kernel and vCPU dispatchers gate resumption on CPU
 * scheduling.
 */
class Dispatcher
{
  public:
    virtual ~Dispatcher() = default;

    /** @p p was suspended and wants @p amount of CPU time before resuming. */
    virtual void compute(Process& p, Tick amount) = 0;

    /** @p p was suspended awaiting an external wake(). */
    virtual void blocked(Process& p) = 0;

    /** Make a blocked process ready; must eventually resume it. */
    virtual void wake(Process& p) = 0;

    /** @p p finished or was killed; drop any scheduling state for it. */
    virtual void detach(Process& p) = 0;
};

/** Coroutine return object for simulated processes. */
template <typename T = void>
class [[nodiscard]] Proc;

namespace detail {

template <typename T>
struct ProcPromise;

struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename P>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<P> h) noexcept;

    void await_resume() const noexcept {}
};

struct PromiseCommon : PromiseBase {
    std::suspend_always initial_suspend() const noexcept { return {}; }
    FinalAwaiter final_suspend() const noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }

    /**
     * Coroutine frames are the dominant steady-state allocation (every
     * co_await chain); recycle them through the slab pool. The sized
     * delete is required so the pool can bucket without per-frame
     * headers.
     */
    static void* operator new(std::size_t sz) { return slabAlloc(sz); }
    static void
    operator delete(void* p, std::size_t sz) noexcept
    {
        slabFree(p, sz);
    }
};

template <typename T>
struct ProcPromise : PromiseCommon {
    T value{};

    Proc<T> get_return_object();

    void
    return_value(T v)
    {
        value = std::move(v);
    }
};

template <>
struct ProcPromise<void> : PromiseCommon {
    Proc<void> get_return_object();
    void return_void() const {}
};

} // namespace detail

/**
 * The process control block for a spawned top-level coroutine.
 *
 * Created via Simulation::spawn(); never constructed directly. Lives until
 * the Simulation is destroyed, so references stay valid after completion.
 */
class Process
{
  public:
    enum class State {
        Ready,    ///< created or woken; waiting for the dispatcher
        Running,  ///< currently executing coroutine code
        Blocked,  ///< suspended: sleeping, computing, or waiting
        Done,     ///< finished or killed
    };

    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;
    ~Process();

    const std::string& name() const { return name_; }
    State state() const { return state_; }
    bool done() const { return state_ == State::Done; }
    Simulation& simulation() const { return sim_; }
    Dispatcher& dispatcher() const { return *disp_; }

    /**
     * Spawn-order serial within the owning Simulation. Stable across
     * replays, unlike the Process's address — use it whenever
     * processes key an ordered container (ordering by pointer value
     * follows allocation addresses and breaks bit-identical replay).
     */
    std::uint64_t serial() const { return serial_; }

    /**
     * Wake a blocked process (make it Ready). Called by sync primitives
     * and dispatchers; safe to call redundantly.
     */
    void wake();

    /**
     * Resume the coroutine right now. Only dispatchers call this, from
     * event context, when the process is Ready.
     */
    void resumeNow();

    /**
     * Destroy the process: cancel pending wakeups, unlink from wait
     * queues, destroy coroutine frames. Joiners are woken.
     */
    void kill();

    /** Signalled (notifyAll) when the process completes or is killed. */
    Notify& doneNotify();

    /** @{ Used by awaitables; not for component code. */
    void suspendAt(std::coroutine_handle<> h);
    void setWaitingOn(Waitable* w) { waitingOn_ = w; }
    void setPendingEvent(EventId id) { pendingEvent_ = id; }
    /** @} */

    /** Opaque per-dispatcher slot (e.g. points at the owning Thread). */
    void* schedCookie = nullptr;

  private:
    friend class Simulation;

    Process(Simulation& sim, Dispatcher& disp, std::string name,
            Proc<void>&& top);

    void onTopDone();
    void finish();

    Simulation& sim_;
    Dispatcher* disp_;
    std::string name_;
    std::uint64_t serial_ = 0; ///< set by Simulation::spawnOn
    State state_ = State::Ready;
    std::coroutine_handle<detail::ProcPromise<void>> top_{};
    std::coroutine_handle<> resumePoint_{};
    Waitable* waitingOn_ = nullptr;
    EventId pendingEvent_ = invalidEventId;
    std::unique_ptr<Notify> doneNotify_;
    bool killRequested_ = false;

    friend struct detail::FinalAwaiter;
};

template <typename T>
class [[nodiscard]] Proc
{
  public:
    using promise_type = detail::ProcPromise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Proc() = default;
    explicit Proc(Handle h) : handle_(h) {}
    Proc(Proc&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}

    Proc&
    operator=(Proc&& o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, {});
        }
        return *this;
    }

    Proc(const Proc&) = delete;
    Proc& operator=(const Proc&) = delete;
    ~Proc() { destroy(); }

    bool valid() const { return static_cast<bool>(handle_); }
    Handle release() { return std::exchange(handle_, {}); }

    /** Awaiting a Proc runs it as a sub-process of the awaiter. */
    struct Awaiter {
        Handle child;

        bool
        await_ready() const
        {
            CG_ASSERT(child, "awaiting an empty Proc");
            return child.done();
        }

        template <typename P>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<P> parent)
        {
            auto& parent_pb = static_cast<PromiseBase&>(parent.promise());
            auto& child_pb = static_cast<PromiseBase&>(child.promise());
            child_pb.proc = parent_pb.proc;
            child_pb.continuation = parent;
            return child; // start the child coroutine
        }

        T
        await_resume()
        {
            auto& p = child.promise();
            if (p.exception)
                std::rethrow_exception(p.exception);
            if constexpr (!std::is_void_v<T>)
                return std::move(p.value);
        }
    };

    Awaiter operator co_await() && { return Awaiter{handle_}; }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = {};
        }
    }

    Handle handle_{};
};

namespace detail {

template <typename P>
std::coroutine_handle<>
FinalAwaiter::await_suspend(std::coroutine_handle<P> h) noexcept
{
    auto& pb = static_cast<PromiseBase&>(h.promise());
    if (pb.continuation)
        return pb.continuation;
    if (pb.proc)
        pb.proc->onTopDone();
    return std::noop_coroutine();
}

template <typename T>
Proc<T>
ProcPromise<T>::get_return_object()
{
    return Proc<T>(
        std::coroutine_handle<ProcPromise<T>>::from_promise(*this));
}

inline Proc<void>
ProcPromise<void>::get_return_object()
{
    return Proc<void>(
        std::coroutine_handle<ProcPromise<void>>::from_promise(*this));
}

/** Fetch the Process from an awaiting coroutine's promise. */
template <typename P>
Process&
processOf(std::coroutine_handle<P> h)
{
    auto& pb = static_cast<PromiseBase&>(h.promise());
    CG_ASSERT(pb.proc, "awaitable used outside a spawned process");
    return *pb.proc;
}

} // namespace detail

/** Sleep for a simulated duration without consuming CPU. */
struct Delay {
    Tick amount;

    bool await_ready() const { return amount == 0; }

    template <typename P>
    void
    await_suspend(std::coroutine_handle<P> h) const
    {
        Process& proc = detail::processOf(h);
        proc.suspendAt(h);
        sleepProcess(proc, amount);
    }

    void await_resume() const {}

  private:
    static void sleepProcess(Process& p, Tick amount);
};

/** Consume CPU time under the process's dispatcher (may be preempted). */
struct Compute {
    Tick amount;

    bool await_ready() const { return amount == 0; }

    template <typename P>
    void
    await_suspend(std::coroutine_handle<P> h) const
    {
        Process& proc = detail::processOf(h);
        proc.suspendAt(h);
        proc.dispatcher().compute(proc, amount);
    }

    void await_resume() const {}
};

/**
 * Dispatcher that resumes processes as soon as simulated time permits.
 * Used for hardware components, the network fabric, and firmware running
 * with exclusive use of a core.
 */
class FreeDispatcher : public Dispatcher
{
  public:
    explicit FreeDispatcher(EventQueue& q) : queue_(q) {}

    void compute(Process& p, Tick amount) override;
    void blocked(Process& p) override;
    void wake(Process& p) override;
    void detach(Process& p) override;

  private:
    EventQueue& queue_;
};

} // namespace cg::sim

#endif // CG_SIM_PROC_HH
