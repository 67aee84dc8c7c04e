/**
 * @file
 * Worker-pool tests: result ordering via futures, exception
 * propagation, concurrency, and clean shutdown under load.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

namespace fbdp {
namespace {

TEST(ThreadPoolTest, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> n{0};
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 100; ++i)
        futs.push_back(pool.submit([&n] { ++n; }));
    for (auto &f : futs)
        f.get();
    EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPoolTest, FuturesPreserveSubmissionOrder)
{
    // Results come back through the future of each submission, so
    // collecting futures in order yields submission order no matter
    // which worker finished first.
    ThreadPool pool(4);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; ++i) {
        futs.push_back(pool.submit([i] {
            if (i % 7 == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            return i * i;
        }));
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit([]() -> int {
        throw std::runtime_error("task failed");
    });
    auto after = pool.submit([] { return 8; });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(after.get(), 8);
}

TEST(ThreadPoolTest, ActuallyRunsConcurrently)
{
    // Two tasks that each wait for the other can only finish if two
    // workers run them at the same time.
    ThreadPool pool(2);
    std::atomic<int> arrived{0};
    auto rendezvous = [&arrived] {
        ++arrived;
        for (int spin = 0; arrived.load() < 2 && spin < 10'000;
             ++spin)
            std::this_thread::sleep_for(
                std::chrono::microseconds(100));
        return arrived.load();
    };
    auto a = pool.submit(rendezvous);
    auto b = pool.submit(rendezvous);
    EXPECT_EQ(a.get(), 2);
    EXPECT_EQ(b.get(), 2);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    auto f = pool.submit([] { return 42; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, DestructorDrainsQueue)
{
    std::atomic<int> n{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 32; ++i)
            pool.submit([&n] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                ++n;
            });
        // No get(): the destructor must still run everything.
    }
    EXPECT_EQ(n.load(), 32);
}

} // namespace
} // namespace fbdp
