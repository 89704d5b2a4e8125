// Sim time-series sampler.
//
// Collects periodic per-entity snapshots (per-broker message rates, queue
// depth, bandwidth utilization) keyed by sim time and renders them as CSV
// for offline plotting. The simulator drives it from the event loop when
// GREENPS_OBS_SAMPLE_MS is set; it stays completely inert otherwise so
// event counts and allocation decisions remain bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace greenps::obs {

class TimeSeriesSampler {
 public:
  struct Row {
    double time_s;
    std::uint64_t key;
    std::vector<double> values;
  };

  // `key_column` names the per-entity id column (e.g. "broker");
  // `value_columns` name the metrics appended per sample row.
  TimeSeriesSampler(std::string key_column, std::vector<std::string> value_columns);

  // Append one row: values.size() must equal the configured column count.
  void append(double time_s, std::uint64_t key, const std::vector<double>& values);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  // In-memory view for programmatic consumers (the elastic controller reads
  // load series straight off the simulator instead of re-parsing CSV).
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
  [[nodiscard]] std::string render_csv() const;
  bool write_csv(const std::string& path) const;
  void clear() { rows_.clear(); }

  // GREENPS_OBS_SAMPLE_MS parsed as a sim-time sampling interval; 0 when
  // unset/invalid, meaning sampling is disabled.
  [[nodiscard]] static std::int64_t interval_us_from_env();
  // GREENPS_OBS_SAMPLES output path, default "obs_samples.csv".
  [[nodiscard]] static std::string path_from_env();

 private:
  std::string key_column_;
  std::vector<std::string> value_columns_;
  std::vector<Row> rows_;
};

}  // namespace greenps::obs
