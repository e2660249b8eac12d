/// \file
/// Deterministic parallel evaluation primitives: a work-stealing thread
/// pool plus ParallelFor/ParallelMap built on top of it.
///
/// Design constraints (DESIGN.md "Threading and reproducibility"):
///
/// - **Determinism.** Parallelism must never change results. Every loop
///   body receives its explicit index and derives any randomness from a
///   per-index seed (DeriveSeed in common/rng.h), so the schedule -- which
///   thread runs which chunk, in what order -- is unobservable. ParallelMap
///   writes results into index-addressed slots, preserving input order.
/// - **Exception propagation.** The first exception thrown by any loop
///   body cancels the remaining chunks and is rethrown on the calling
///   thread once all in-flight work has drained.
/// - **Telemetry attribution.** Pool tasks run under the submitting
///   thread's telemetry sink (common/telemetry.h), so what a loop body
///   records is credited to the caller, on whichever thread it ran.
/// - **Nested-call safety.** A ParallelFor issued from inside another
///   parallel region (worker thread or a caller executing chunks) runs
///   serially inline: no deadlock, no oversubscription, same results.
/// - **Thread-count control.** SetNumThreads() > STEMROOT_THREADS env >
///   std::thread::hardware_concurrency(), resolved by NumThreads().
///   threads == 1 short-circuits to plain serial loops (the TSan baseline).

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace stemroot {

/// Explicitly set the parallelism (0 restores auto: STEMROOT_THREADS env,
/// then hardware concurrency). Takes effect at the next parallel region;
/// do not call concurrently with running parallel work. Throws
/// std::invalid_argument for negative n.
void SetNumThreads(int n);

/// Resolved parallelism (always >= 1): explicit SetNumThreads value when
/// set, else the STEMROOT_THREADS environment variable when it parses to a
/// positive integer, else hardware concurrency.
int NumThreads();

/// True when the calling thread is inside a parallel region (a pool worker
/// or a caller thread currently executing ParallelFor chunks). Nested
/// parallel calls detect this and degrade to serial execution.
bool InParallelRegion();

/// Work-stealing thread pool. Each worker owns a deque: submissions are
/// distributed round-robin, workers pop their own deque LIFO and steal
/// FIFO from siblings when empty (classic Blumofe-Leiserson discipline --
/// LIFO keeps caches warm, FIFO steals grab the oldest, largest-granularity
/// work). All public methods are thread-safe except Resize.
class ThreadPool {
 public:
  /// The process-global pool used by ParallelFor/ParallelMap. Created on
  /// first use with NumThreads() - 1 workers (the caller is the Nth lane).
  static ThreadPool& Global();

  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not block on other tasks (ParallelFor's
  /// helpers never do; they only claim chunk indices).
  void Submit(std::function<void()> task);

  /// Stop workers, join, and restart with a new worker count. Must only be
  /// called while the pool is idle (between parallel regions); pending
  /// tasks are drained before the old workers exit.
  void Resize(size_t num_workers);

  size_t NumWorkers() const;

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void Start(size_t num_workers);
  void StopAndJoin();
  void WorkerLoop(size_t self);
  /// Pop from own queue (back) or steal from a sibling (front).
  std::function<void()> TryPop(size_t self);

  mutable std::mutex structural_mu_;  ///< guards threads_/queues_ layout
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  size_t pending_ = 0;      ///< submitted, not yet popped (under wake_mu_)
  bool stopping_ = false;   ///< under wake_mu_
  std::atomic<size_t> next_queue_{0};  ///< round-robin submit cursor
};

/// Run body(i) for every i in [begin, end), distributing contiguous chunks
/// over NumThreads() lanes (the calling thread plus pool workers). Chunks
/// are claimed from a shared atomic cursor, so load balances even when
/// iteration costs are skewed. `grain` is the chunk size; 0 picks
/// max(1, n / (threads * 8)). Runs serially when the range or thread count
/// is 1, or when already inside a parallel region (nested call).
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& body, size_t grain = 0);

/// Run body(lane) exactly once for every lane in [0, lanes), with at most
/// `max_concurrency` lanes in flight (0 = NumThreads()). Unlike
/// ParallelFor, the concurrency cap is a per-call argument, so callers can
/// bound a region independently of the global thread count (the sharded
/// simulator's --sim-threads, the DSE sweep's point concurrency). Lanes
/// are claimed from a shared atomic cursor in index order; the determinism
/// contract is the same as ParallelFor's -- bodies address state by lane
/// index, so the schedule is unobservable. Runs serially when the lane
/// count or the cap is 1, or when already inside a parallel region.
void ParallelLanes(size_t lanes, size_t max_concurrency,
                   const std::function<void(size_t)>& body);

/// Map fn over [0, n), returning results in index order. fn must be
/// invocable as fn(size_t) -> R; R needs to be move-constructible. Order
/// and values are independent of the thread count.
template <typename F>
auto ParallelMap(size_t n, F&& fn)
    -> std::vector<std::invoke_result_t<F&, size_t>> {
  using R = std::invoke_result_t<F&, size_t>;
  std::vector<std::optional<R>> slots(n);
  ParallelFor(0, n, [&](size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(n);
  for (std::optional<R>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace stemroot
