// ReadyQueue tests: the relaxed-FIFO contract (strict FIFO per
// producer, arbitrary interleave across producers), empty/full
// backpressure, close/drain semantics, cancellation, and an MPMC
// stress that scripts/run_tsan.sh runs under ThreadSanitizer.

#include "src/util/ready_queue.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/cancel.hpp"

namespace dfmres {
namespace {

TEST(ReadyQueue, SingleThreadFifo) {
  ReadyQueue q(8);
  for (std::uint64_t v = 0; v < 8; ++v) EXPECT_TRUE(q.try_push(v));
  for (std::uint64_t v = 0; v < 8; ++v) {
    std::uint64_t got = 0;
    ASSERT_TRUE(q.try_pop(&got));
    EXPECT_EQ(got, v);
  }
  std::uint64_t got = 0;
  EXPECT_FALSE(q.try_pop(&got));
}

TEST(ReadyQueue, CapacityRoundsUpToWholeBlocks) {
  ReadyQueue q(5, /*block_size=*/4);
  EXPECT_EQ(q.block_size(), 4u);
  EXPECT_GE(q.capacity(), 5u);
  EXPECT_EQ(q.capacity() % q.block_size(), 0u);
  // At least two blocks: the cursor protocol needs a distinct "next".
  EXPECT_GE(q.capacity() / q.block_size(), 2u);
}

TEST(ReadyQueue, FullQueueBackpressure) {
  ReadyQueue q(4, /*block_size=*/2);
  const std::size_t cap = q.capacity();
  for (std::size_t v = 0; v < cap; ++v) EXPECT_TRUE(q.try_push(v));
  EXPECT_FALSE(q.try_push(99));  // full: explicit backpressure
  EXPECT_EQ(q.size_approx(), cap);
  std::uint64_t got = 0;
  ASSERT_TRUE(q.try_pop(&got));
  EXPECT_EQ(got, 0u);
  EXPECT_TRUE(q.try_push(99));  // slot freed, push succeeds again
}

TEST(ReadyQueue, WrapsManyRounds) {
  ReadyQueue q(4, /*block_size=*/2);
  std::uint64_t next = 0;
  for (int round = 0; round < 1000; ++round) {
    EXPECT_TRUE(q.try_push(static_cast<std::uint64_t>(round)));
    std::uint64_t got = 0;
    ASSERT_TRUE(q.try_pop(&got));
    EXPECT_EQ(got, next++);
  }
  EXPECT_EQ(q.size_approx(), 0u);
}

TEST(ReadyQueue, CloseDrainsThenUnavailable) {
  ReadyQueue q(8);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.push(3).code(), StatusCode::kUnavailable);
  // Poppers drain the committed backlog before seeing closed.
  EXPECT_EQ(q.pop().value(), 1u);
  EXPECT_EQ(q.pop().value(), 2u);
  EXPECT_EQ(q.pop().status().code(), StatusCode::kUnavailable);
  q.close();  // idempotent
}

TEST(ReadyQueue, BlockingPopUnblocksOnClose) {
  ReadyQueue q(8);
  std::thread popper([&] {
    const auto got = q.pop();
    EXPECT_FALSE(got);
    EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  popper.join();
}

TEST(ReadyQueue, BlockingPopUnblocksOnCancel) {
  ReadyQueue q(8);
  CancelToken token;
  std::thread popper([&] {
    const auto got = q.pop(&token);
    EXPECT_FALSE(got);
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  token.cancel();
  popper.join();
}

TEST(ReadyQueue, BlockingPushWaitsForSpace) {
  ReadyQueue q(4, /*block_size=*/2);
  const std::size_t cap = q.capacity();
  for (std::size_t v = 0; v < cap; ++v) ASSERT_TRUE(q.try_push(v));
  std::atomic<bool> pushed{false};
  std::thread pusher([&] {
    EXPECT_TRUE(q.push(77).is_ok());
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());  // still full, still blocked
  std::uint64_t got = 0;
  ASSERT_TRUE(q.try_pop(&got));
  pusher.join();
  EXPECT_TRUE(pushed.load());
}

/// Strict FIFO per producer: tag each value with its producer in the
/// high bits and a per-producer sequence in the low bits; every
/// consumer must observe each producer's sequence strictly increasing.
TEST(ReadyQueue, FifoPerProducer) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr std::uint64_t kPerProducer = 2000;
  ReadyQueue q(64, /*block_size=*/8);

  std::vector<std::vector<std::uint64_t>> consumed(kConsumers);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (std::uint64_t s = 0; s < kPerProducer; ++s) {
        const std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | s;
        ASSERT_TRUE(q.push(v).is_ok());
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&q, &consumed, c] {
      for (;;) {
        const auto got = q.pop();
        if (!got) break;  // closed and drained
        consumed[static_cast<std::size_t>(c)].push_back(*got);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c) {
    threads[static_cast<std::size_t>(kProducers + c)].join();
  }

  // Each consumer saw each producer's sequence strictly increasing.
  std::uint64_t total = 0;
  for (const auto& log : consumed) {
    std::vector<std::uint64_t> last(kProducers, 0);
    std::vector<bool> seen(kProducers, false);
    for (const std::uint64_t v : log) {
      const std::size_t p = static_cast<std::size_t>(v >> 32);
      const std::uint64_t s = v & 0xffffffffu;
      if (seen[p]) {
        EXPECT_GT(s, last[p]) << "producer " << p;
      }
      seen[p] = true;
      last[p] = s;
    }
    total += log.size();
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
}

/// MPMC stress (the TSan target): every pushed value is consumed
/// exactly once, across blocking and non-blocking paths.
TEST(ReadyQueue, MpmcStressExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  ReadyQueue q(128);

  std::vector<std::atomic<int>> hits(kTotal);
  for (auto& h : hits) h.store(0);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (std::uint64_t s = 0; s < kPerProducer; ++s) {
        const std::uint64_t v = static_cast<std::uint64_t>(p) * kPerProducer + s;
        // Mix non-blocking and blocking pushes.
        if (!q.try_push(v)) {
          ASSERT_TRUE(q.push(v).is_ok());
        }
      }
    });
  }
  std::atomic<std::uint64_t> consumed{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        std::uint64_t v = 0;
        if (q.try_pop(&v)) {
          hits[v].fetch_add(1);
          consumed.fetch_add(1);
          continue;
        }
        const auto got = q.pop();
        if (!got) break;
        hits[*got].fetch_add(1);
        consumed.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c) {
    threads[static_cast<std::size_t>(kProducers + c)].join();
  }
  EXPECT_EQ(consumed.load(), kTotal);
  for (std::uint64_t v = 0; v < kTotal; ++v) {
    ASSERT_EQ(hits[v].load(), 1) << "value " << v;
  }
}

}  // namespace
}  // namespace dfmres
