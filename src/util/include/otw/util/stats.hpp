// Statistics accumulator used by the kernel instrumentation and the bench
// harness: streaming mean/variance (Welford) with min/max tracking.
#pragma once

#include <cstdint>
#include <iosfwd>

namespace otw::util {

/// Streaming accumulator: count, mean, variance (Welford), min, max, sum.
class RunningStat {
 public:
  void add(double x) noexcept;
  void merge(const RunningStat& other) noexcept;
  void reset() noexcept { *this = RunningStat{}; }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

std::ostream& operator<<(std::ostream& os, const RunningStat& stat);

}  // namespace otw::util
