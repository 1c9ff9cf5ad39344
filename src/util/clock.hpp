// The repo's single sanctioned monotonic-clock seam.
//
// Every wall-clock read outside src/obs goes through these helpers (the
// ufc_lint wall-clock rule enforces it), so the set of places where real
// time can enter the solver is reviewable in one file — and a clock read can
// never leak into iterate arithmetic. All timing uses
// std::chrono::steady_clock: monotonic, never stepped backwards by NTP.
#pragma once

#include <chrono>

namespace ufc::util {

/// Opaque monotonic timestamp. Value-initialized ticks compare equal and are
/// usable as "not started" sentinels.
using MonotonicTick = std::chrono::steady_clock::time_point;

/// The current monotonic timestamp.
inline MonotonicTick monotonic_now() {
  return std::chrono::steady_clock::now();
}

/// Seconds elapsed from `from` to `to` (negative if `to` precedes `from`).
inline double seconds_between(MonotonicTick from, MonotonicTick to) {
  return std::chrono::duration<double>(to - from).count();
}

/// A started stopwatch on the monotonic clock.
class MonotonicTimer {
 public:
  MonotonicTimer() : start_(monotonic_now()) {}

  /// Seconds elapsed since construction or the last restart().
  double elapsed_seconds() const {
    return seconds_between(start_, monotonic_now());
  }

  void restart() { start_ = monotonic_now(); }

 private:
  MonotonicTick start_;
};

/// RAII phase timer: adds the scope's elapsed seconds to an accumulator on
/// destruction. Accumulating (rather than overwriting) lets one accumulator
/// total a phase that runs many times per iteration.
class ScopedTimer {
 public:
  explicit ScopedTimer(double& accumulator) : accumulator_(accumulator) {}
  ~ScopedTimer() { accumulator_ += timer_.elapsed_seconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double& accumulator_;
  MonotonicTimer timer_;
};

}  // namespace ufc::util
