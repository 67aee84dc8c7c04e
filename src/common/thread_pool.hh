/**
 * @file
 * A small fixed-size worker pool for embarrassingly parallel batch
 * work (independent simulator runs).
 *
 * Design constraints, in order:
 *   - determinism at the call site: submit() returns a std::future, so
 *     the caller collects results in whatever order it likes
 *     (runCells(), the batch executor Sweep is built on, collects in
 *     submission order, which is what makes parallel CSV output
 *     byte-identical to the serial run);
 *   - exception propagation: a task that throws stores the exception
 *     in its future and the pool keeps running;
 *   - no global state: each pool owns its threads and queue, and
 *     joins them in the destructor.
 *
 * This is intentionally not a work-stealing scheduler; sweep cells are
 * seconds-long simulations, so a single locked queue is nowhere near
 * contention.
 */

#ifndef FBDP_COMMON_THREAD_POOL_HH
#define FBDP_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace fbdp {

/** Fixed set of worker threads draining one task queue. */
class ThreadPool
{
  public:
    /** Spawn @p n workers (clamped to at least one). */
    explicit ThreadPool(unsigned n)
    {
        if (n < 1)
            n = 1;
        workers.reserve(n);
        for (unsigned i = 0; i < n; ++i)
            workers.emplace_back([this] { workerLoop(); });
    }

    /** Drains the queue, then joins every worker. */
    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lk(mtx);
            stopping = true;
        }
        cv.notify_all();
        for (auto &w : workers)
            w.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p fn; the returned future yields its result or
     * rethrows whatever it threw.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        // packaged_task is move-only but std::function wants copyable
        // targets, hence the shared_ptr indirection.
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard<std::mutex> lk(mtx);
            queue.push([task] { (*task)(); });
        }
        cv.notify_one();
        return fut;
    }

    /** Number of worker threads. */
    unsigned
    size() const
    {
        return static_cast<unsigned>(workers.size());
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lk(mtx);
                cv.wait(lk,
                        [this] { return stopping || !queue.empty(); });
                if (queue.empty())
                    return; // stopping and drained
                task = std::move(queue.front());
                queue.pop();
            }
            task(); // packaged_task captures exceptions itself
        }
    }

    std::mutex mtx;
    std::condition_variable cv;
    std::queue<std::function<void()>> queue;
    std::vector<std::thread> workers;
    bool stopping = false;
};

} // namespace fbdp

#endif // FBDP_COMMON_THREAD_POOL_HH
