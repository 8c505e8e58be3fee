// Simulated time: a signed microsecond count from experiment start.
#pragma once

#include <cstdint>

namespace cd::sim {

using SimTime = std::int64_t;  // microseconds

/// Largest schedulable instant (~146k simulated years). EventLoop clamps
/// schedule times here so sentinel-large delays saturate instead of wrapping
/// negative, and so every queued time fits the high half of its heap key.
constexpr SimTime kSimTimeMax = SimTime{1} << 62;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1'000;
constexpr SimTime kSecond = 1'000'000;
constexpr SimTime kMinute = 60 * kSecond;
constexpr SimTime kHour = 60 * kMinute;
constexpr SimTime kDay = 24 * kHour;

constexpr SimTime sim_seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kSecond));
}

constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

}  // namespace cd::sim
