// Self-test of the benchmark's percentile helper: the reporting rule (at
// least kMinTailSamples beyond a percentile) at its exact boundaries, and
// the values read through a LatencyHistogram. Exits nonzero on failure.
#include <cstdint>
#include <iostream>
#include <vector>

#include "common/latency.h"
#include "percentile.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

perfbench::TailReport report_of(std::uint64_t n) {
  ecoscale::LatencyHistogram h;
  for (std::uint64_t v = 1; v <= n; ++v) h.record(v);
  return perfbench::tail_report(h.count(),
                                [&](double p) { return h.percentile(p); });
}

}  // namespace

int main() {
  using perfbench::samples_beyond;

  // Nearest rank: ceil(p/100 * count), samples beyond = count - rank.
  expect(samples_beyond(1000, 99.0) == 10, "beyond(1000, p99) == 10");
  expect(samples_beyond(999, 99.0) == 9, "beyond(999, p99) == 9");
  expect(samples_beyond(10000, 99.9) == 10, "beyond(10000, p999) == 10");
  expect(samples_beyond(9999, 99.9) == 9, "beyond(9999, p999) == 9");
  expect(samples_beyond(20, 50.0) == 10, "beyond(20, p50) == 10");
  expect(samples_beyond(19, 50.0) == 9, "beyond(19, p50) == 9");
  expect(samples_beyond(0, 99.9) == 0, "beyond(0, p999) == 0");

  // Each percentile appears exactly at its 10-sample boundary.
  const perfbench::TailReport small = report_of(19);
  expect(small.count == 19, "count is stated");
  expect(!small.p50.reported && !small.p99.reported && !small.p999.reported,
         "19 samples: nothing reported");
  const perfbench::TailReport p50_only = report_of(20);
  expect(p50_only.p50.reported && !p50_only.p99.reported,
         "20 samples: p50 only");
  expect(p50_only.p50.value == 10.0, "p50 of 1..20 is 10");
  const perfbench::TailReport p99_edge = report_of(999);
  expect(p99_edge.p50.reported && !p99_edge.p99.reported,
         "999 samples: p99 dropped");
  const perfbench::TailReport p99 = report_of(1000);
  expect(p99.p99.reported && !p99.p999.reported,
         "1000 samples: p99 kept, p999 dropped");
  expect(p99.p99.beyond == 10, "p99 beyond count stated");
  const perfbench::TailReport p999 = report_of(10000);
  expect(p999.p999.reported && p999.p999.beyond == 10,
         "10000 samples: p999 kept with 10 beyond");
  // LatencyHistogram buckets are relative-resolution: the value is within
  // its bucket rounding of the exact rank (9990 of 1..10000).
  expect(p999.p999.value <= 9990.0 && p999.p999.value >= 9990.0 * 0.98,
         "p999 value near rank 9990");

  // nearest_rank on an exact sample set.
  std::vector<int> sorted;
  for (int v = 1; v <= 1000; ++v) sorted.push_back(v);
  expect(perfbench::nearest_rank(sorted, 50.0) == 500, "nearest_rank p50");
  expect(perfbench::nearest_rank(sorted, 99.0) == 990, "nearest_rank p99");
  expect(perfbench::nearest_rank(sorted, 99.9) == 999, "nearest_rank p999");
  expect(perfbench::nearest_rank(std::vector<int>{7}, 50.0) == 7,
         "nearest_rank of one sample");

  if (failures == 0) std::cout << "percentile_test: ok\n";
  return failures == 0 ? 0 : 1;
}
