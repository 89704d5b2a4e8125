// The benchmark's clock and its host-speed reference.
//
// Timings are CPU seconds of the process, not wall seconds. On a shared
// virtual machine the wall clock also counts the time other processes held
// the CPU and the time the hypervisor gave the vCPU to another guest
// (steal); with every stage pinned to one thread, CPU time is the wall time
// the same run takes on an otherwise idle host.
//
// CPU time still moves with the host: other guests on the same cores and
// memory slow every instruction, by 10-35% from one minute to the next on
// the 4-vCPU development host. The HostMeter measures that: it runs a fixed
// piece of work of its own (never the program's code, so a change to the
// program cannot move it) at regular points of a run and reports how much
// slower than nominal the host ran. Time spent in the reference work is
// excluded from CpuClock, so it never enters a timed region.
#pragma once

#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

// CPU time of the whole process minus the time spent in HostMeter samples,
// as a std::chrono clock.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;

  static duration raw() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec);
  }
  static time_point now() noexcept { return time_point(raw() - excluded()); }
  // CPU time spent outside the benchmark's timings (reference samples).
  static duration& excluded() noexcept {
    static duration d{0};
    return d;
  }
};

class HostMeter {
 public:
  // CPU seconds of the median reference sample on the development host
  // (Intel Xeon, 4 vCPUs, GCC 12, RelWithDebInfo). Only the ratio to it
  // matters; it fixes the scale at which timings are reported.
  static constexpr double kNominalSeconds = 0.030;
  // At most one sample per this much CPU time of measured work. Host speed
  // moves within seconds, so dense samples track it: one every 0.25 s cut
  // the spread of one instance's timings across runs by a third to a half.
  static constexpr double kSpacingSeconds = 0.25;

  HostMeter() { prepare(); }

  // Take a sample now.
  void sample() {
    const CpuClock::duration t0 = CpuClock::raw();
    sink_ += reference_work();
    const CpuClock::duration d = CpuClock::raw() - t0;
    CpuClock::excluded() += d;
    samples_.push_back(std::chrono::duration<double>(d).count());
    last_ = CpuClock::now();
  }

  // Take a sample if kSpacingSeconds of measured work ran since the last.
  void tick() {
    if (std::chrono::duration<double>(CpuClock::now() - last_).count() >= kSpacingSeconds) {
      sample();
    }
  }

  [[nodiscard]] std::size_t mark() const { return samples_.size(); }

  // How many times slower than nominal the host ran over the samples taken
  // since `from` (their median); 1 when there are none.
  [[nodiscard]] double slowdown_since(std::size_t from) const {
    std::vector<double> v(samples_.begin() + static_cast<std::ptrdiff_t>(from), samples_.end());
    if (v.empty()) return 1.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const double med = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    return med / kNominalSeconds;
  }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr std::size_t kSlots = std::size_t{1} << 22;  // 16 MiB ring

  // One random cycle through kSlots slots (Sattolo's shuffle), built once,
  // outside any sample. It is the meter's only lasting memory: a constant
  // 16 MiB in the process's peak resident set.
  void prepare() {
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    succ_.resize(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) succ_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = kSlots - 1; i > 0; --i) std::swap(succ_[i], succ_[xorshift(x) % i]);
    last_ = CpuClock::now();
  }

  static std::uint64_t xorshift(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  // The same work on every call: pointer chasing through the ring (memory
  // latency), hash-map inserts and lookups, small allocations and sorts,
  // and AND + popcount over bit arrays, the kinds of work the simulator,
  // the matcher and CRAM do.
  std::uint64_t reference_work() {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t sum = 0;
    std::uint32_t at = static_cast<std::uint32_t>(sink_ % kSlots);
    for (int i = 0; i < 100000; ++i) at = succ_[at];
    sum += at;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (int i = 0; i < 40000; ++i) map[xorshift(x) % 80000] += 1;
    for (int i = 0; i < 80000; ++i) {
      const auto it = map.find(xorshift(x) % 80000);
      if (it != map.end()) sum += it->second;
    }
    std::vector<std::vector<std::uint32_t>> small(4000);
    for (auto& v : small) {
      v.resize(4 + xorshift(x) % 60);
      for (auto& e : v) e = static_cast<std::uint32_t>(xorshift(x));
      std::sort(v.begin(), v.end());
      sum += v.front();
    }
    std::vector<std::uint64_t> a(1 << 12);
    std::vector<std::uint64_t> b(1 << 12);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = xorshift(x);
      b[i] = xorshift(x);
    }
    for (std::size_t r = 0; r < 80; ++r) {
      for (std::size_t i = 0; i < a.size(); ++i) {
        sum += static_cast<std::uint64_t>(std::popcount(a[i] & b[(i + r) % b.size()]));
      }
    }
    return sum;
  }

  std::vector<std::uint32_t> succ_;
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;
  CpuClock::time_point last_{};
};

}  // namespace perfbench
