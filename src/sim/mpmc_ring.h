#ifndef CARAM_SIM_MPMC_RING_H_
#define CARAM_SIM_MPMC_RING_H_

/**
 * @file
 * Lock-free hand-off for the parallel search engine: a bounded
 * multi-producer/multi-consumer ring (Vyukov's per-slot sequence
 * design) and a doorbell that a waiting thread spins on briefly and
 * then parks on.
 *
 * A push or a pop touches the slot it claims, its own side's position
 * counter and nothing a thread on the other side writes.  The doorbell's
 * mutex and condition variable are used only once a waiter has actually
 * parked; ring() on an unparked doorbell is a single load.
 *
 * Wakeups cannot be lost.  Every atomic that takes part in a park/ring
 * decision is accessed seq_cst: the slot sequence a push publishes, the
 * ring's closed flag and the doorbell's parked count (and, in the
 * engine, the port busy flag a writer lane clears).  A waiter raises
 * the parked count and then re-checks its predicate; a publisher
 * publishes and then reads the parked count.  In the single total order
 * of seq_cst operations one of the two comes first, so either the
 * waiter's re-check sees the work or the publisher sees the waiter and
 * notifies it.  No standalone fence is used: ThreadSanitizer does not
 * model atomic_thread_fence.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include <sys/mman.h>

#include "common/logging.h"

namespace caram::sim {

/** Cache-line size used to keep producer- and consumer-written state
 *  apart. */
inline constexpr std::size_t kCacheLineBytes = 64;

/** A spin-loop hint to the core (no-op where none is known). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Spin-then-park wait point.  A waiter polls its predicate for a short
 * spin (kSpin unless the caller passes another), then counts itself
 * parked, re-checks the predicate under the
 * mutex and sleeps on the condition variable.  Publishers call ring()
 * after publishing; it notifies only while some waiter is parked.
 *
 * The predicate must read, seq_cst, every atomic whose publication is
 * followed by ring() -- see the file comment for why that is enough.
 */
class alignas(kCacheLineBytes) Doorbell
{
  public:
    /** How long wait() polls before it parks. */
    static constexpr std::chrono::microseconds kSpin{20};

    /** Wake every parked waiter; a single load when none is parked. */
    void
    ring()
    {
        if (parked_.load(std::memory_order_seq_cst) == 0)
            return;
        // The empty critical section orders the notify after the
        // waiter's locked re-check: either the re-check saw the
        // publication, or the waiter is already asleep.
        { std::lock_guard<std::mutex> lock(mutex_); }
        cv_.notify_all();
    }

    /**
     * Return once @p ready() is true: spin for about @p spin, then park
     * (at once when @p spin is zero).  The spin yields the CPU every
     * few polls: a spinner that shares a core with the thread it waits
     * for (the scheduler places new threads next to their creator)
     * would otherwise hold that thread off for a whole time slice per
     * hand-off.
     */
    template <typename Ready>
    void
    wait(Ready ready, std::chrono::microseconds spin = kSpin)
    {
        const auto deadline = std::chrono::steady_clock::now() + spin;
        for (unsigned i = 1; !ready(); ++i) {
            if (i % 16 != 0 && spin.count() > 0) {
                cpuRelax();
                continue;
            }
            if (std::chrono::steady_clock::now() >= deadline) {
                std::unique_lock<std::mutex> lock(mutex_);
                parked_.fetch_add(1, std::memory_order_seq_cst);
                cv_.wait(lock, ready);
                parked_.fetch_sub(1, std::memory_order_relaxed);
                return;
            }
            std::this_thread::yield();
        }
    }

  private:
    /** Waiters currently parked (or about to park) on cv_. */
    std::atomic<unsigned> parked_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
};

/**
 * A bounded lock-free FIFO with exact capacity.  tryPush() refuses the
 * (capacity + 1)-th outstanding item; push() waits for space; a push
 * that starts after close() fails, while items already in the ring
 * still drain.  close() does not wait for pushes already in progress.
 *
 * T must be default-constructible and movable: the slots hold T by
 * value and items move in and out.  The slots are one slab mapped
 * straight from the OS, not taken from the malloc heap: an engine's
 * 128 KiB request slab in the heap shifted glibc's placement of later
 * allocations enough to raise a benchmark's peak RSS by ~5 MB.
 */
template <typename T>
class MpmcRing
{
  public:
    explicit MpmcRing(std::size_t capacity)
        : cap_(capacity), pow2_((capacity & (capacity - 1)) == 0)
    {
        if (capacity == 0)
            fatal("ring capacity must be nonzero");
        if (capacity > std::numeric_limits<std::size_t>::max() / sizeof(Slot))
            fatal("ring capacity too large");
        slots_ = Slab(mapSlots(capacity), SlabUnmap{capacity});
        for (std::size_t i = 0; i < capacity; ++i)
            slots_[i].seq.store(freeFor(i), std::memory_order_relaxed);
    }

    MpmcRing(const MpmcRing &) = delete;
    MpmcRing &operator=(const MpmcRing &) = delete;

    /**
     * Push if a slot is free.  False when the ring is full or closed;
     * @p item is moved from only on success.
     */
    bool
    tryPush(T &&item)
    {
        if (closed_.load(std::memory_order_acquire))
            return false;
        uint64_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            Slot &s = slot(pos);
            const uint64_t seq = s.seq.load(std::memory_order_acquire);
            const auto diff = static_cast<int64_t>(seq - freeFor(pos));
            if (diff == 0) {
                if (head_.compare_exchange_weak(pos, pos + 1,
                                                std::memory_order_relaxed))
                    break;
            } else if (diff < 0) {
                return false; // the slot still holds an unpopped item
            } else {
                pos = head_.load(std::memory_order_relaxed);
            }
        }
        Slot &s = slot(pos);
        s.value = std::move(item);
        s.seq.store(heldFrom(pos), std::memory_order_seq_cst); // publish
        return true;
    }

    /** Push, waiting while the ring is full.  False only when the ring
     *  was closed before space appeared. */
    bool
    push(T item)
    {
        while (!tryPush(std::move(item))) {
            if (closed())
                return false;
            // No spin: a full ring means the consumer is behind, so the
            // wait is long and a spinning producer only takes CPU time
            // from it.
            notFull_.wait([&] { return closed() || !full(); },
                          std::chrono::microseconds{0});
        }
        return true;
    }

    /**
     * Pop up to @p max items, oldest first, into @p out (cleared
     * first) with one claim on the consumer position.  Never blocks;
     * returns the number popped, 0 when the ring is empty (closed or
     * not).
     */
    std::size_t
    tryPopBatch(std::vector<T> &out, std::size_t max)
    {
        out.clear();
        uint64_t pos = tail_.load(std::memory_order_relaxed);
        std::size_t n = 0;
        for (;;) {
            n = 0;
            while (n < max && slot(pos + n).seq.load(
                                  std::memory_order_acquire) ==
                                  heldFrom(pos + n))
                ++n;
            if (n == 0) {
                const uint64_t now = tail_.load(std::memory_order_relaxed);
                if (now == pos)
                    return 0;
                pos = now; // another consumer claimed the head
                continue;
            }
            if (tail_.compare_exchange_weak(pos, pos + n,
                                            std::memory_order_relaxed))
                break;
        }
        for (std::size_t i = 0; i < n; ++i) {
            Slot &s = slot(pos + i);
            out.push_back(std::move(s.value));
            // Free the slot for the push one lap later (seq_cst: a
            // producer parked on a full ring re-checks this word).
            s.seq.store(freeFor(pos + i + cap_), std::memory_order_seq_cst);
        }
        notFull_.ring();
        return n;
    }

    /** Refuse every later push and wake producers waiting for space. */
    void
    close()
    {
        closed_.store(true, std::memory_order_seq_cst);
        notFull_.ring();
    }

    bool closed() const { return closed_.load(std::memory_order_seq_cst); }

    /**
     * True when the oldest slot holds no published item.  Reads
     * seq_cst, so a doorbell predicate may use it; with several
     * consumers it may report a stale "not empty", never a stale
     * "empty" for the consumer that calls it.
     */
    bool
    empty() const
    {
        const uint64_t pos = tail_.load(std::memory_order_seq_cst);
        return static_cast<int64_t>(
                   slot(pos).seq.load(std::memory_order_seq_cst) -
                   heldFrom(pos)) < 0;
    }

    /** Items in the ring (exact only while no thread pushes or pops). */
    std::size_t
    size() const
    {
        const uint64_t tail = tail_.load(std::memory_order_acquire);
        const uint64_t head = head_.load(std::memory_order_acquire);
        return head > tail ? static_cast<std::size_t>(head - tail) : 0;
    }

    std::size_t capacity() const { return cap_; }

  private:
    struct alignas(kCacheLineBytes) Slot
    {
        /** freeFor(pos): free for the push at position pos;
         *  heldFrom(pos): holds that push's item.  A pop frees the slot
         *  for position pos + capacity.  (Doubling keeps the states of
         *  consecutive laps apart even at capacity 1.) */
        std::atomic<uint64_t> seq{0};
        T value{};
    };

    static constexpr uint64_t freeFor(uint64_t pos) { return 2 * pos; }
    static constexpr uint64_t heldFrom(uint64_t pos) { return 2 * pos + 1; }

    Slot &
    slot(uint64_t pos) const
    {
        return slots_[pow2_ ? pos & (cap_ - 1) : pos % cap_];
    }

    /** True when the next push's slot still holds an unpopped item. */
    bool
    full() const
    {
        const uint64_t pos = head_.load(std::memory_order_seq_cst);
        return static_cast<int64_t>(
                   slot(pos).seq.load(std::memory_order_seq_cst) -
                   freeFor(pos)) < 0;
    }

    // Read-mostly state, shared by both sides.
    const std::size_t cap_;
    /** cap_ is a power of two: index by mask instead of division. */
    const bool pow2_;
    /** Destroys the slots and unmaps the slab. */
    struct SlabUnmap
    {
        std::size_t n;
        void
        operator()(Slot *p) const
        {
            std::destroy_n(p, n);
            ::munmap(p, n * sizeof(Slot));
        }
    };
    using Slab = std::unique_ptr<Slot[], SlabUnmap>;
    static Slot *
    mapSlots(std::size_t n)
    {
        void *mem = ::mmap(nullptr, n * sizeof(Slot), PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mem == MAP_FAILED)
            throw std::bad_alloc();
        Slot *slots = static_cast<Slot *>(mem);
        std::uninitialized_default_construct_n(slots, n);
        return slots;
    }
    Slab slots_;
    std::atomic<bool> closed_{false};
    /** Next push position (written by producers only). */
    alignas(kCacheLineBytes) std::atomic<uint64_t> head_{0};
    /** Next pop position (written by consumers only). */
    alignas(kCacheLineBytes) std::atomic<uint64_t> tail_{0};
    /** Producers waiting for space park here. */
    Doorbell notFull_;
};

} // namespace caram::sim

#endif // CARAM_SIM_MPMC_RING_H_
