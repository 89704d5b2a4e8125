#include "obs/sampler.hpp"

#include <cassert>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "obs/report.hpp"

namespace greenps::obs {

TimeSeriesSampler::TimeSeriesSampler(std::string key_column,
                                     std::vector<std::string> value_columns)
    : key_column_(std::move(key_column)), value_columns_(std::move(value_columns)) {}

void TimeSeriesSampler::append(double time_s, std::uint64_t key,
                               const std::vector<double>& values) {
  assert(values.size() == value_columns_.size());
  rows_.push_back({time_s, key, values});
}

std::string TimeSeriesSampler::render_csv() const {
  std::string out = "time_s," + key_column_;
  for (const auto& c : value_columns_) {
    out += ',';
    out += c;
  }
  out += '\n';
  char buf[64];
  for (const Row& row : rows_) {
    std::snprintf(buf, sizeof(buf), "%.6f,%llu", row.time_s,
                  static_cast<unsigned long long>(row.key));
    out += buf;
    for (const double v : row.values) {
      std::snprintf(buf, sizeof(buf), ",%.6g", v);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

bool TimeSeriesSampler::write_csv(const std::string& path) const {
  const bool ok = write_text_file(path, render_csv());
  if (ok) {
    std::printf("wrote %s (%zu sample rows)\n", path.c_str(), rows_.size());
  }
  return ok;
}

std::int64_t TimeSeriesSampler::interval_us_from_env() {
  const char* v = std::getenv("GREENPS_OBS_SAMPLE_MS");
  if (v == nullptr || *v == '\0') return 0;
  const std::string_view text(v);
  std::int64_t ms = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), ms);
  if (ec != std::errc{} || ptr != text.data() + text.size() || ms < 1 ||
      ms > kMaxSampleMs) {
    std::fprintf(stderr,
                 "[greenps obs] GREENPS_OBS_SAMPLE_MS='%s' is not a whole number of "
                 "milliseconds in [1, %lld]; sampling stays off\n",
                 v, static_cast<long long>(kMaxSampleMs));
    return 0;
  }
  return ms * 1000;
}

std::string TimeSeriesSampler::path_from_env() {
  const char* v = std::getenv("GREENPS_OBS_SAMPLES");
  return (v != nullptr && *v != '\0') ? v : "obs_samples.csv";
}

}  // namespace greenps::obs
