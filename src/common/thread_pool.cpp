#include "common/thread_pool.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace greenps {

std::size_t ThreadPool::resolve(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t total = resolve(threads);
  workers_.reserve(total - 1);
  for (std::size_t i = 1; i < total; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_indices(const std::function<void(std::size_t)>& fn, std::size_t n) {
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    fn(i);
  }
}

void ThreadPool::worker_loop(std::size_t slot) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const auto* job = job_;
    const std::size_t n = job_n_;
    lk.unlock();
    {
      // One span per job execution, tagged with the worker slot so traces
      // show which worker carried which share of the parallel region.
      GREENPS_SPAN_TAGGED("pool.work", slot);
      run_indices(*job, n);
    }
    lk.lock();
    if (--active_ == 0) cv_done_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    job_n_ = n;
    next_.store(0, std::memory_order_relaxed);
    active_ = workers_.size();
    ++generation_;
  }
  cv_start_.notify_all();
  {
    GREENPS_SPAN_TAGGED("pool.work", 0);
    run_indices(fn, n);
  }
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return active_ == 0; });
  job_ = nullptr;
}

}  // namespace greenps
