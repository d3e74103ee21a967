// Strongly named scalar units used across the ECOSCALE simulator.
//
// All simulated time is kept in integer picoseconds so that event ordering is
// exact and deterministic; energy is kept in double picojoules (energy is
// only ever accumulated and reported, never used for ordering).
#pragma once

#include <cstdint>

namespace ecoscale {

/// Simulated time in picoseconds.
using SimTime = std::uint64_t;

/// Durations share the representation of absolute times.
using SimDuration = std::uint64_t;

inline constexpr SimDuration kPicosecond = 1;
inline constexpr SimDuration kNanosecond = 1000;
inline constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;

constexpr SimDuration picoseconds(std::uint64_t n) { return n; }
constexpr SimDuration nanoseconds(std::uint64_t n) { return n * kNanosecond; }
constexpr SimDuration microseconds(std::uint64_t n) { return n * kMicrosecond; }
constexpr SimDuration milliseconds(std::uint64_t n) { return n * kMillisecond; }

constexpr double to_nanoseconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kNanosecond);
}
constexpr double to_microseconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMicrosecond);
}
constexpr double to_milliseconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}
constexpr double to_seconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Bytes.
using Bytes = std::uint64_t;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

constexpr Bytes kibibytes(std::uint64_t n) { return n * kKiB; }
constexpr Bytes mebibytes(std::uint64_t n) { return n * kMiB; }

/// Energy in picojoules.
using Picojoules = double;

inline constexpr Picojoules kNanojoule = 1e3;
inline constexpr Picojoules kMicrojoule = 1e6;
inline constexpr Picojoules kMillijoule = 1e9;

constexpr double to_microjoules(Picojoules e) { return e / kMicrojoule; }
constexpr double to_millijoules(Picojoules e) { return e / kMillijoule; }

/// Bandwidth expressed as picoseconds needed per byte.
struct Bandwidth {
  double ps_per_byte = 0.0;

  static constexpr Bandwidth from_gib_per_s(double gib_s) {
    // 1 GiB/s == (1e12 ps/s) / (1 GiB) per byte.
    return Bandwidth{1e12 / (gib_s * static_cast<double>(kGiB))};
  }

  constexpr SimDuration transfer_time(Bytes n) const {
    return static_cast<SimDuration>(ps_per_byte * static_cast<double>(n));
  }
};

}  // namespace ecoscale
