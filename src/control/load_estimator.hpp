// Windowed + EWMA load estimation over the simulator's per-broker
// time-series sampler (PR 4): the elastic controller's sensor fusion.
//
// Each control tick folds the sampler rows appended since the previous tick
// into a window digest (mean/max link utilization, worst queue backlog,
// system input rate) and updates exponentially-weighted running estimates.
// Rows arrive in (time, broker) order and the fold is pure arithmetic over
// them, so for a fixed seed the estimate series — and every controller
// decision derived from it — is identical from run to run.
#pragma once

#include <cstddef>

#include "obs/sampler.hpp"

namespace greenps::control {

// Digest of one control window, plus the running EWMA state after it.
struct LoadEstimate {
  double time_s = 0;             // sim time of the last sample folded in
  std::size_t brokers = 0;       // brokers that reported in the window
  std::size_t sample_ticks = 0;  // sampling instants folded in (0 = blind)
  // Window aggregates (across the window's sampling instants):
  double avg_util = 0;       // mean over instants of mean per-broker link util
  double peak_util = 0;      // max over instants of max per-broker link util
  double max_backlog_s = 0;  // worst output-queue backlog observed
  double in_rate_msg_s = 0;  // mean over instants of summed broker input rate
  // Running EWMA (seeded by the first window, updated once per instant):
  double ewma_avg_util = 0;
  double ewma_peak_util = 0;
  double ewma_in_rate = 0;
};

class LoadEstimator {
 public:
  // `alpha` is the per-sampling-instant EWMA weight of the new value.
  explicit LoadEstimator(double alpha = 0.4) : alpha_(alpha) {}

  // Fold rows [begin_row, row_count) of `sampler` into a fresh window
  // digest and advance the EWMA state. Row layout is the simulator's:
  // (time_s, broker, {in_rate_msg_s, out_rate_msg_s, queue_backlog_s,
  // bw_utilization}).
  const LoadEstimate& update(const obs::TimeSeriesSampler& sampler, std::size_t begin_row);

  [[nodiscard]] const LoadEstimate& current() const { return state_; }
  void reset();

 private:
  double alpha_;
  LoadEstimate state_;
  bool primed_ = false;
};

}  // namespace greenps::control
