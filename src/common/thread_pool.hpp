// Small reusable worker pool for data-parallel loops.
//
// Built for CRAM's pair search (Section IV-C): one pool is created per
// allocation run and reused across every refresh of the dirty set, so the
// thread-spawn cost is paid once, not per iteration. The calling thread
// participates in every loop, so a pool of size N uses N-1 workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace greenps {

class ThreadPool {
 public:
  // `threads` counts the calling thread: 2 means one extra worker.
  // 0 resolves to std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total threads participating in a loop (workers + caller).
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  // Invoke fn(i) exactly once for every i in [0, n), blocking until all
  // indices finished. Indices are claimed dynamically, so fn may run on any
  // thread in any order — callers needing determinism must write results
  // into per-index slots and merge after the join. fn must not throw.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Resolve a thread-count option: 0 = hardware_concurrency (min 1).
  [[nodiscard]] static std::size_t resolve(std::size_t requested);

 private:
  // `slot` tags the thread's pool.work spans: the caller is 0, workers are
  // 1..size()-1.
  void worker_loop(std::size_t slot);
  void run_indices(const std::function<void(std::size_t)>& fn, std::size_t n);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t active_ = 0;       // workers still inside the current job
  std::uint64_t generation_ = 0;  // bumped per job so workers never re-run one
  bool stop_ = false;
};

}  // namespace greenps
