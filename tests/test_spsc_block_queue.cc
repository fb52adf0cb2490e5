/** @file Tests for sim::SpscBlockQueue: FIFO order across block
 *  boundaries, block reuse under a steady window, destruction with
 *  items queued, and a producer role that passes between threads. */

#include "sim/spsc_block_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace caram::sim {
namespace {

TEST(SpscBlockQueue, EmptyQueueHoldsOneBlock)
{
    SpscBlockQueue<int> q;
    EXPECT_FALSE(q.tryPop().has_value());
    EXPECT_EQ(q.allocatedBlocks(), 1u);
    EXPECT_EQ(q.liveBlocks(), 1u);
}

TEST(SpscBlockQueue, FifoAcrossBlockBoundaries)
{
    // Four-item blocks: 78 items cross 19 block boundaries, and the
    // pops interleave with pushes at every offset in a block.
    SpscBlockQueue<int, 4> q;
    int pushed = 0;
    int popped = 0;
    for (int round = 0; round < 23; ++round) {
        for (int k = 0; k <= round % 6; ++k)
            q.push(int{pushed++});
        for (int k = 0; k < round % 4; ++k) {
            const auto v = q.tryPop();
            if (!v)
                break;
            EXPECT_EQ(*v, popped++);
        }
    }
    ASSERT_GT(pushed, 4 * 4);
    while (const auto v = q.tryPop())
        EXPECT_EQ(*v, popped++);
    EXPECT_EQ(popped, pushed);
    EXPECT_FALSE(q.tryPop().has_value());
}

TEST(SpscBlockQueue, BacklogOf100kDrainsInOrder)
{
    // Nothing bounds the unfetched backlog: the producer never waits.
    SpscBlockQueue<uint64_t> q;
    constexpr uint64_t kItems = 100000;
    for (uint64_t i = 0; i < kItems; ++i)
        q.push(uint64_t{i});
    EXPECT_EQ(q.allocatedBlocks(), (kItems + 127) / 128);
    for (uint64_t i = 0; i < kItems; ++i) {
        const auto v = q.tryPop();
        ASSERT_TRUE(v.has_value()) << i;
        ASSERT_EQ(*v, i);
    }
    EXPECT_FALSE(q.tryPop().has_value());
    // Emptied blocks were freed as the consumer passed them, bar the
    // block being read and one spare.
    EXPECT_LE(q.liveBlocks(), 2u);
}

TEST(SpscBlockQueue, SteadyPingPongAllocatesNothing)
{
    // A window of up to 3 items cycles through many blocks: after the
    // first two, the consumer's emptied block is always the spare the
    // producer takes next.
    SpscBlockQueue<int, 8> q;
    int next = 0;
    int expect = 0;
    for (int i = 0; i < 3; ++i)
        q.push(int{next++});
    std::size_t warm = 0;
    for (int step = 0; step < 10000; ++step) {
        const auto v = q.tryPop();
        ASSERT_TRUE(v.has_value());
        ASSERT_EQ(*v, expect++);
        q.push(int{next++});
        if (step == 100)
            warm = q.allocatedBlocks();
        if (step > 100) {
            ASSERT_EQ(q.allocatedBlocks(), warm) << "step " << step;
            ASSERT_LE(q.liveBlocks(), 2u) << "step " << step;
        }
    }
    EXPECT_LE(warm, 2u);
}

TEST(SpscBlockQueue, DestructionReleasesQueuedItems)
{
    // Items still queued across several blocks (and a spare block
    // holding moved-from items) are destroyed with the queue; under
    // ASan/LSan a leak or a double free fails the test binary.
    const auto sentinel = std::make_shared<int>(7);
    {
        SpscBlockQueue<std::shared_ptr<int>, 4> q;
        for (int i = 0; i < 19; ++i)
            q.push(sentinel);
        for (int i = 0; i < 9; ++i)
            ASSERT_TRUE(q.tryPop().has_value());
        EXPECT_EQ(sentinel.use_count(), 1 + 10);
        SpscBlockQueue<std::vector<int>, 4> heavy;
        for (int i = 0; i < 11; ++i)
            heavy.push(std::vector<int>(100, i));
    }
    EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(SpscBlockQueue, ProducerRoleMovesBetweenThreads)
{
    // Two producer threads take turns, handing the producer role over
    // with a release/acquire flag (as the engine's owner and writer
    // lane do with a port's busy flag), while two consumers take turns
    // on one lock.  Every item arrives once, and each consumer sees
    // its share in push order.
    SpscBlockQueue<uint64_t, 16> q;
    constexpr uint64_t kItems = 60000;
    constexpr uint64_t kTurn = 37;
    std::atomic<unsigned> turn{0};
    std::mutex consumer_lock;
    std::atomic<uint64_t> taken{0};
    auto producer = [&](unsigned me) {
        for (uint64_t base = me * kTurn; base < kItems; base += 2 * kTurn) {
            while (turn.load(std::memory_order_acquire) % 2 != me)
                std::this_thread::yield();
            for (uint64_t i = base; i < std::min(base + kTurn, kItems); ++i)
                q.push(uint64_t{i});
            turn.fetch_add(1, std::memory_order_release);
        }
    };
    std::vector<uint64_t> got[2];
    auto consumer = [&](unsigned me) {
        while (taken.load(std::memory_order_relaxed) < kItems) {
            std::optional<uint64_t> v;
            {
                std::lock_guard<std::mutex> lock(consumer_lock);
                v = q.tryPop();
            }
            if (!v) {
                std::this_thread::yield();
                continue;
            }
            got[me].push_back(*v);
            taken.fetch_add(1, std::memory_order_relaxed);
        }
    };
    std::thread p0(producer, 0u), p1(producer, 1u);
    std::thread c0(consumer, 0u), c1(consumer, 1u);
    p0.join();
    p1.join();
    c0.join();
    c1.join();
    std::vector<bool> seen(kItems, false);
    for (const auto &mine : got) {
        for (std::size_t i = 0; i < mine.size(); ++i) {
            if (i > 0) {
                ASSERT_LT(mine[i - 1], mine[i]);
            }
            ASSERT_LT(mine[i], kItems);
            ASSERT_FALSE(seen[mine[i]]) << mine[i];
            seen[mine[i]] = true;
        }
    }
    EXPECT_EQ(got[0].size() + got[1].size(), kItems);
    EXPECT_FALSE(q.tryPop().has_value());
}

} // namespace
} // namespace caram::sim
