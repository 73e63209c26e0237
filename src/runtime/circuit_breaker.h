// Circuit breaker guarding the condenser + checkpoint I/O path.
//
// When the durable condenser keeps failing (disk gone, fsyncs hanging,
// eigensolver stuck on pathological data) there is no point pushing every
// record through the same failing call: each one burns its full retry
// schedule and the queue backs up. The breaker watches consecutive
// failures and switches the pipeline into degraded (buffer-and-checkpoint
// -only) mode instead:
//
//   kClosed    normal operation; failures are counted, `failure_threshold`
//              consecutive ones trip the breaker.
//   kOpen      requests are refused outright for `open_duration_ms`
//              (records are spooled durably, not lost).
//   kHalfOpen  after the cooldown, probe requests are let through one at
//              a time; `probe_successes_to_close` consecutive successes
//              re-close the breaker (and the pipeline drains its spool),
//              a single failure re-opens it.
//
// The clock is injectable so state transitions are testable without real
// waiting. Thread-safe: the pipeline's worker drives it (and trips it via
// ForceTrip on a batch past its deadline) while stats readers on other
// threads query it.

#ifndef CONDENSA_RUNTIME_CIRCUIT_BREAKER_H_
#define CONDENSA_RUNTIME_CIRCUIT_BREAKER_H_

#include <cstddef>
#include <functional>
#include <mutex>

namespace condensa::runtime {

struct CircuitBreakerOptions {
  // Consecutive failures that trip kClosed -> kOpen. Must be >= 1.
  std::size_t failure_threshold = 5;
  // Cooldown before probes are allowed through.
  double open_duration_ms = 250.0;
  // Consecutive probe successes that close the breaker from kHalfOpen.
  std::size_t probe_successes_to_close = 2;
};

class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  // Monotonic now() in milliseconds; the default reads steady_clock.
  using ClockFn = std::function<double()>;

  explicit CircuitBreaker(CircuitBreakerOptions options,
                          ClockFn clock = nullptr);

  // True when a request may be attempted now. In kOpen this flips the
  // breaker to kHalfOpen once the cooldown has passed (admitting the
  // caller as the probe); in kHalfOpen only one in-flight probe is
  // admitted at a time.
  bool AllowRequest();

  // Reports the outcome of an admitted request.
  void RecordSuccess();
  void RecordFailure();

  // Trips straight to kOpen regardless of counts (batch deadline overrun).
  void ForceTrip();

  State state() const;
  std::size_t trip_count() const;

  static const char* StateName(State state);

 private:
  void TripLocked();

  const CircuitBreakerOptions options_;
  const ClockFn clock_;

  mutable std::mutex mu_;
  State state_ = State::kClosed;
  std::size_t consecutive_failures_ = 0;
  std::size_t probe_successes_ = 0;
  bool probe_in_flight_ = false;
  double opened_at_ms_ = 0.0;
  std::size_t trip_count_ = 0;
};

}  // namespace condensa::runtime

#endif  // CONDENSA_RUNTIME_CIRCUIT_BREAKER_H_
