#ifndef CARAM_SIM_SPSC_BLOCK_QUEUE_H_
#define CARAM_SIM_SPSC_BLOCK_QUEUE_H_

/**
 * @file
 * Lock-free, unbounded single-producer/single-consumer FIFO of
 * fixed-size blocks: the parallel search engine's per-port result
 * stream.
 *
 * Unbounded on purpose.  Nothing bounds how many results a caller
 * leaves unfetched -- submitting thousands of requests, draining, then
 * fetching is a supported pattern -- so a bounded ring would stall the
 * producer and deadlock a drain.  Items live in linked blocks of
 * kBlockItems slots; the consumer hands each block it has emptied back
 * as the one spare the producer takes before it allocates, so a steady
 * push/pop window allocates nothing after its first two blocks.
 *
 * One release store per push publishes the item: the producer's
 * running count, on a cache line of its own.  The consumer keeps a
 * copy of the last count it read and reads the shared line again only
 * once it has used that copy up, so draining a backlog touches the
 * shared line once, and the producer reads nothing the consumer
 * writes except the spare block, once per block.
 *
 * "Single producer" means one pushing thread *at a time*, not one
 * thread for the queue's life: the producer's private state (the tail
 * block and the running count) may pass from one thread to another as
 * long as a happens-before edge orders the old producer's last push
 * before the new one's first.  The same holds for the consumer side,
 * which callers with several consumers serialize themselves (one lock
 * around tryPop()).
 */

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "sim/mpmc_ring.h"

namespace caram::sim {

template <typename T, std::size_t kBlockItems = 128>
class SpscBlockQueue
{
    static_assert(kBlockItems > 0, "a block must hold at least one item");

  public:
    /** Allocates the first block; nothing else until a push needs it. */
    SpscBlockQueue() { head_ = tail_ = allocate(); }

    /** Destroys every queued item.  No push or pop may be running. */
    ~SpscBlockQueue()
    {
        for (Block *b = head_; b != nullptr;) {
            Block *next = b->next.load(std::memory_order_relaxed);
            delete b;
            b = next;
        }
        delete spare_.load(std::memory_order_relaxed);
    }

    SpscBlockQueue(const SpscBlockQueue &) = delete;
    SpscBlockQueue &operator=(const SpscBlockQueue &) = delete;

    /** Append @p item (producer side).  Never blocks; allocates only
     *  when the tail block is full and no spare is waiting. */
    void
    push(T item)
    {
        const std::size_t slot = pushed_ % kBlockItems;
        if (slot == 0 && pushed_ != 0) {
            Block *b = spare_.exchange(nullptr, std::memory_order_acquire);
            if (b == nullptr)
                b = allocate();
            // Ordered before the consumer's read of it by the count
            // store below, which covers the item that needs it.
            tail_->next.store(b, std::memory_order_relaxed);
            tail_ = b;
        }
        tail_->items[slot] = std::move(item);
        published_.store(++pushed_, std::memory_order_release);
    }

    /** Take the oldest item (consumer side); nullopt when none has been
     *  published. */
    std::optional<T>
    tryPop()
    {
        if (popped_ == seen_) {
            seen_ = published_.load(std::memory_order_acquire);
            if (popped_ == seen_)
                return std::nullopt;
        }
        const std::size_t slot = popped_ % kBlockItems;
        if (slot == 0 && popped_ != 0) {
            // The head block is used up and the producer has moved on
            // (the item just seen lives in the next block).
            Block *done = head_;
            head_ = done->next.load(std::memory_order_relaxed);
            recycle(done);
        }
        ++popped_;
        return std::optional<T>(std::move(head_->items[slot]));
    }

    /** Blocks allocated over the queue's life (producer-written; exact
     *  once the producer is quiet). */
    std::size_t
    allocatedBlocks() const
    {
        return allocated_.load(std::memory_order_relaxed);
    }

    /** Blocks currently held: the chain plus the spare (exact once
     *  both sides are quiet). */
    std::size_t
    liveBlocks() const
    {
        return allocatedBlocks() - freed_.load(std::memory_order_relaxed);
    }

  private:
    struct Block
    {
        std::array<T, kBlockItems> items{};
        /** The block after this one; null until the producer fills
         *  this one and links the next. */
        std::atomic<Block *> next{nullptr};
    };

    Block *
    allocate()
    {
        allocated_.store(allocated_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
        return new Block;
    }

    /** Offer the emptied @p b as the spare; free the spare it
     *  replaces, if the producer has not taken that one yet. */
    void
    recycle(Block *b)
    {
        b->next.store(nullptr, std::memory_order_relaxed);
        // Release: this thread's reads of b's items happen before the
        // producer, which acquires the spare, writes them again.
        Block *old = spare_.exchange(b, std::memory_order_release);
        if (old != nullptr) {
            delete old;
            freed_.store(freed_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
        }
    }

    /** Producer side: the block being filled and the running count. */
    alignas(kCacheLineBytes) Block *tail_ = nullptr;
    uint64_t pushed_ = 0;
    std::atomic<std::size_t> allocated_{0};
    /** The producer's count as of its last push; the one word both
     *  sides touch per item. */
    alignas(kCacheLineBytes) std::atomic<uint64_t> published_{0};
    /** Consumer side: the block being read, the count taken, and the
     *  last published count read. */
    alignas(kCacheLineBytes) Block *head_ = nullptr;
    uint64_t popped_ = 0;
    uint64_t seen_ = 0;
    std::atomic<std::size_t> freed_{0};
    /** An emptied block waiting for reuse (consumer puts, producer
     *  takes). */
    alignas(kCacheLineBytes) std::atomic<Block *> spare_{nullptr};
};

} // namespace caram::sim

#endif // CARAM_SIM_SPSC_BLOCK_QUEUE_H_
