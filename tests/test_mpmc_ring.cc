/** @file Tests for sim::MpmcRing and sim::Doorbell (including MPMC
 *  stress with a per-producer order check and a lost-wakeup stress). */

#include "sim/mpmc_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace caram::sim {
namespace {

/** Pop everything currently in @p q (test helper). */
template <typename T>
std::vector<T>
popAll(MpmcRing<T> &q)
{
    std::vector<T> out;
    q.tryPopBatch(out, q.capacity());
    return out;
}

TEST(ConcurrentQueue, RejectsZeroCapacity)
{
    EXPECT_THROW(MpmcRing<int> q(0), caram::FatalError);
}

TEST(ConcurrentQueue, FifoOrderAndOccupancy)
{
    MpmcRing<int> q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.tryPush(int{i}));
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.size(), 4u);
    std::vector<int> one;
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(q.tryPopBatch(one, 1), 1u);
        EXPECT_EQ(one[0], i);
    }
    EXPECT_EQ(q.tryPopBatch(one, 1), 0u);
    EXPECT_TRUE(one.empty());
    EXPECT_TRUE(q.empty());
}

TEST(ConcurrentQueue, TryPushRefusesAtExactCapacity)
{
    // Capacity is exact, power of two or not: the (capacity + 1)-th
    // outstanding item is refused, and one pop makes room for exactly
    // one more.  A refused item is left untouched.
    for (std::size_t cap : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                            std::size_t{5}}) {
        MpmcRing<std::vector<int>> q(cap);
        for (std::size_t i = 0; i < cap; ++i)
            ASSERT_TRUE(q.tryPush(std::vector<int>{static_cast<int>(i)}));
        std::vector<int> refused{42, 43};
        EXPECT_FALSE(q.tryPush(std::move(refused))) << "cap " << cap;
        EXPECT_EQ(refused, (std::vector<int>{42, 43}));
        EXPECT_EQ(q.size(), cap);
        std::vector<std::vector<int>> out;
        ASSERT_EQ(q.tryPopBatch(out, 1), 1u);
        EXPECT_EQ(out[0], std::vector<int>{0});
        EXPECT_TRUE(q.tryPush(std::move(refused)));
        EXPECT_FALSE(q.tryPush(std::vector<int>{7})) << "cap " << cap;
        // Wrap-around keeps FIFO order.
        out = popAll(q);
        ASSERT_EQ(out.size(), cap);
        EXPECT_EQ(out.back(), (std::vector<int>{42, 43}));
        for (std::size_t i = 0; i + 1 < cap; ++i)
            EXPECT_EQ(out[i], std::vector<int>{static_cast<int>(i + 1)});
    }
}

TEST(ConcurrentQueue, BlockingPushWaitsForSpace)
{
    MpmcRing<int> q(1);
    ASSERT_TRUE(q.tryPush(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(2)); // waits (spins, then parks) for a pop
        pushed = true;
    });
    // Long enough for the producer to pass the spin and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(pushed.load());
    std::vector<int> out;
    ASSERT_EQ(q.tryPopBatch(out, 1), 1u);
    EXPECT_EQ(out[0], 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    ASSERT_EQ(q.tryPopBatch(out, 1), 1u);
    EXPECT_EQ(out[0], 2);
}

TEST(ConcurrentQueue, CloseDrainsThenSignalsEnd)
{
    MpmcRing<int> q(4);
    q.tryPush(1);
    q.tryPush(2);
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.tryPush(3)); // closed: pushes fail
    EXPECT_FALSE(q.push(4));
    std::vector<int> out;
    EXPECT_EQ(q.tryPopBatch(out, 8), 2u); // remaining items still drain
    EXPECT_EQ(out, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.tryPopBatch(out, 8), 0u); // then closed and empty
    EXPECT_TRUE(q.empty());
}

TEST(ConcurrentQueue, CloseWakesBlockedProducer)
{
    MpmcRing<int> q(1);
    ASSERT_TRUE(q.tryPush(1));
    std::thread producer([&] {
        EXPECT_FALSE(q.push(2)); // parked on the full ring, then closed
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    producer.join();
}

TEST(ConcurrentQueue, CloseWakesBlockedConsumer)
{
    // Consumers wait on a doorbell, not inside the ring: close() plus a
    // ring wakes a consumer parked on "not empty or closed".
    MpmcRing<int> q(4);
    Doorbell bell;
    std::thread consumer([&] {
        bell.wait([&] { return !q.empty() || q.closed(); });
        std::vector<int> out;
        EXPECT_EQ(q.tryPopBatch(out, 4), 0u); // woken empty
        EXPECT_TRUE(q.closed());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    bell.ring();
    consumer.join();
}

TEST(ConcurrentQueue, PopBatchAmortizesLocking)
{
    // One claim of the consumer position per batch, capped at max.
    MpmcRing<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.tryPush(int{i});
    std::vector<int> batch;
    EXPECT_EQ(q.tryPopBatch(batch, 4), 4u);
    EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(q.tryPopBatch(batch, 4), 2u);
    EXPECT_EQ(batch, (std::vector<int>{4, 5}));
    q.close();
    EXPECT_EQ(q.tryPopBatch(batch, 4), 0u);
}

TEST(ConcurrentQueue, TryPopBatchNeverBlocks)
{
    MpmcRing<int> q(8);
    std::vector<int> batch{99};
    // Empty ring: returns 0 immediately (and clears the output).
    EXPECT_EQ(q.tryPopBatch(batch, 4), 0u);
    EXPECT_TRUE(batch.empty());
    for (int i = 0; i < 6; ++i)
        q.tryPush(int{i});
    EXPECT_EQ(q.tryPopBatch(batch, 4), 4u);
    EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(q.tryPopBatch(batch, 4), 2u);
    EXPECT_EQ(batch, (std::vector<int>{4, 5}));
    // Closed and drained: still 0, still no blocking.
    q.close();
    EXPECT_EQ(q.tryPopBatch(batch, 4), 0u);
}

TEST(ConcurrentQueue, TryPopBatchDrainsAfterClose)
{
    // Items pushed before close() are still delivered -- consumers
    // multiplexing sources via tryPopBatch must not lose the tail.
    MpmcRing<int> q(4);
    q.tryPush(7);
    q.tryPush(8);
    q.close();
    std::vector<int> batch;
    EXPECT_EQ(q.tryPopBatch(batch, 8), 2u);
    EXPECT_EQ(batch, (std::vector<int>{7, 8}));
}

TEST(ConcurrentQueue, MultiProducerMultiConsumerStress)
{
    // 4 producers x 3 consumers through a deliberately tiny ring of a
    // non-power-of-two size, so the full side parks and the index
    // wraps by division.  Consumers wait on a shared doorbell the
    // producers ring.  Every element arrives exactly once, and each
    // consumer sees each producer's elements in push order.
    constexpr int kProducers = 4;
    constexpr int kConsumers = 3;
    constexpr uint64_t kPerProducer = 5000;
    MpmcRing<uint64_t> q(7);
    Doorbell notEmpty;

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (uint64_t i = 0; i < kPerProducer; ++i) {
                ASSERT_TRUE(q.push(p * kPerProducer + i));
                notEmpty.ring();
            }
        });
    }

    std::mutex seen_mutex;
    std::vector<uint64_t> seen;
    bool ordered = true;
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&, c] {
            std::vector<uint64_t> local;
            std::vector<uint64_t> batch;
            std::vector<uint64_t> last(kProducers, 0);
            std::vector<bool> any(kProducers, false);
            bool in_order = true;
            for (;;) {
                if (q.tryPopBatch(batch, 1 + c) == 0) {
                    if (q.closed() && q.empty())
                        break;
                    notEmpty.wait([&] { return !q.empty() || q.closed(); });
                    continue;
                }
                for (uint64_t v : batch) {
                    const auto p = static_cast<std::size_t>(v / kPerProducer);
                    if (any[p] && v <= last[p])
                        in_order = false;
                    any[p] = true;
                    last[p] = v;
                    local.push_back(v);
                }
            }
            std::lock_guard<std::mutex> lock(seen_mutex);
            seen.insert(seen.end(), local.begin(), local.end());
            ordered = ordered && in_order;
        });
    }

    for (auto &t : producers)
        t.join();
    q.close();
    notEmpty.ring();
    for (auto &t : consumers)
        t.join();

    EXPECT_TRUE(ordered);
    ASSERT_EQ(seen.size(), kProducers * kPerProducer);
    std::sort(seen.begin(), seen.end());
    for (uint64_t i = 0; i < seen.size(); ++i)
        ASSERT_EQ(seen[i], i);
}

TEST(Doorbell, NoLostWakeupPingPong)
{
    // Two threads hand a token back and forth through two rings, each
    // ringing the other's doorbell after its push.  Every fourth round
    // the sender sleeps past the spin window first, so the receiver
    // has parked: a lost wakeup would hang the test.
    constexpr int kRounds = 400;
    MpmcRing<int> to_b(1), to_a(1);
    Doorbell bell_a, bell_b;
    std::thread b([&] {
        std::vector<int> got;
        for (int r = 0; r < kRounds; ++r) {
            bell_b.wait([&] { return !to_b.empty(); });
            ASSERT_EQ(to_b.tryPopBatch(got, 1), 1u);
            ASSERT_EQ(got[0], r);
            if (r % 4 == 1)
                std::this_thread::sleep_for(std::chrono::microseconds(60));
            ASSERT_TRUE(to_a.tryPush(int{r}));
            bell_a.ring();
        }
    });
    std::vector<int> got;
    for (int r = 0; r < kRounds; ++r) {
        if (r % 4 == 3)
            std::this_thread::sleep_for(std::chrono::microseconds(60));
        ASSERT_TRUE(to_b.tryPush(int{r}));
        bell_b.ring();
        bell_a.wait([&] { return !to_a.empty(); });
        ASSERT_EQ(to_a.tryPopBatch(got, 1), 1u);
        ASSERT_EQ(got[0], r);
    }
    b.join();
}

} // namespace
} // namespace caram::sim
