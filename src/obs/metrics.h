// MetricsRegistry — named counters and fixed-bin histograms for the
// quantities the paper reports as latency arithmetic and the related work
// reports as reaction-latency distributions: trigger→RF latency, detection
// inter-arrival times, jam duty cycle, per-stream throughput.
//
// Histograms bin at fabric-tick resolution (1 tick = 10 ns): bins are
// [min + k*width, min + (k+1)*width) with explicit underflow/overflow
// buckets, so the exported distribution maps directly onto the paper's
// T_en / T_xcorr / T_init arithmetic (see DESIGN.md "Observability").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json_writer.h"

namespace rjf::obs {

class Histogram {
 public:
  Histogram() : Histogram(0, 1, 1) {}
  Histogram(std::uint64_t min, std::uint64_t bin_width, std::size_t num_bins);

  void record(std::uint64_t value) noexcept;

  /// Merge another histogram recorded with the same binning (min, width,
  /// bin count) into this one; bins, totals and extrema combine so the
  /// result equals one histogram having recorded both value streams, in
  /// any merge order. Returns false (and changes nothing) when the
  /// binnings differ. Lets sweep shards record into private histograms
  /// that the engine folds together deterministically afterwards.
  bool merge(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t min_seen() const noexcept { return min_seen_; }
  [[nodiscard]] std::uint64_t max_seen() const noexcept { return max_seen_; }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }

  [[nodiscard]] std::size_t num_bins() const noexcept { return bins_.size(); }
  [[nodiscard]] std::uint64_t bin_count(std::size_t k) const noexcept {
    return bins_[k];
  }
  /// Inclusive lower edge of bin k (values < edge(k+1) land in bin k).
  [[nodiscard]] std::uint64_t bin_edge(std::size_t k) const noexcept {
    return min_ + static_cast<std::uint64_t>(k) * bin_width_;
  }
  [[nodiscard]] std::uint64_t bin_width() const noexcept { return bin_width_; }

  /// Serialise into `out`: config, count/sum/min/max/mean, and the
  /// non-empty bins as an "edge: count" object.
  void write_json(JsonWriter& out) const;

 private:
  std::uint64_t min_;
  std::uint64_t bin_width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t min_seen_ = ~std::uint64_t{0};
  std::uint64_t max_seen_ = 0;
};

class MetricsRegistry {
 public:
  /// Monotonic counter, created at zero on first use.
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  void add(const std::string& name, std::uint64_t delta) {
    counters_[name] += delta;
  }
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  /// Named gauge (a derived double, e.g. a duty cycle or a rate).
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }

  /// Histogram, created with the given binning on first use; later calls
  /// with the same name return the existing instance unchanged.
  Histogram& histogram(const std::string& name, std::uint64_t min,
                       std::uint64_t bin_width, std::size_t num_bins);
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const {
    return gauges_;
  }

  /// Fold another registry into this one: counters add, gauges adopt the
  /// other's value (last merge wins — gauges are point-in-time readings),
  /// histograms merge bin-wise when the binning matches and are copied
  /// when absent here. Merging every shard's registry in shard-index order
  /// yields the same result on every run regardless of which threads
  /// produced the shards. Returns the number of histograms that could NOT
  /// be merged because their binning conflicted (0 on full success).
  std::size_t merge(const MetricsRegistry& other);

  /// Serialise everything into `out` under "counters" / "gauges" /
  /// "histograms" nested objects.
  void write_json(JsonWriter& out) const;
  bool write_file(const std::string& path) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace rjf::obs
