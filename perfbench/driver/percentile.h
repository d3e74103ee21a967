// Tail percentiles reported together with their evidence.
//
// A percentile rests on the samples ranked beyond it; with a handful of
// them it is one unlucky request, not a property of the workload. The
// helper therefore reports p50 / p99 / p999 only when at least
// kMinTailSamples lie strictly beyond the percentile's rank, and always
// states the sample count.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kMinTailSamples = 10;

/// Samples ranked strictly beyond percentile `p` of `count` samples. The
/// rank is ceil(p/100 * count) — the nearest-rank rule LatencyHistogram
/// uses — computed in parts per 1e7 so p = 99.9 is exact.
inline std::uint64_t samples_beyond(std::uint64_t count, double p) {
  const auto ppm = static_cast<unsigned __int128>(p * 1e5 + 0.5);
  const auto rank = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(count) * ppm + 9'999'999) / 10'000'000);
  return count - rank;
}

/// Nearest-rank percentile of ascending `sorted` (nonempty).
template <typename T>
T nearest_rank(const std::vector<T>& sorted, double p) {
  const std::uint64_t n = sorted.size();
  const std::uint64_t rank = n - samples_beyond(n, p);
  return sorted[rank == 0 ? 0 : rank - 1];
}

struct Percentile {
  double p = 0.0;
  bool reported = false;  // false: fewer than kMinTailSamples beyond it
  double value = 0.0;
  std::uint64_t beyond = 0;
};

struct TailReport {
  std::uint64_t count = 0;
  Percentile p50, p99, p999;
};

/// `quantile(p)` returns the value at percentile p; it is called only for
/// the percentiles that are reported.
template <typename Quantile>
TailReport tail_report(std::uint64_t count, Quantile&& quantile) {
  TailReport out;
  out.count = count;
  auto fill = [&](Percentile& slot, double p) {
    slot.p = p;
    slot.beyond = samples_beyond(count, p);
    slot.reported = slot.beyond >= kMinTailSamples;
    if (slot.reported) slot.value = static_cast<double>(quantile(p));
  };
  fill(out.p50, 50.0);
  fill(out.p99, 99.0);
  fill(out.p999, 99.9);
  return out;
}

}  // namespace perfbench
