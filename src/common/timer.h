// Minimal wall-clock timer for examples and benches.

#ifndef MSQ_COMMON_TIMER_H_
#define MSQ_COMMON_TIMER_H_

#include <chrono>

namespace msq {

/// Microseconds from `start` to `end` of the steady clock.
inline double MicrosBetween(std::chrono::steady_clock::time_point start,
                            std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// Starts on construction; ElapsedMillis()/ElapsedMicros() read without
/// stopping; Reset() restarts.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
  }

  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace msq

#endif  // MSQ_COMMON_TIMER_H_
