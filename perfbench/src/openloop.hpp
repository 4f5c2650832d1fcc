// Open-loop timing of the serve workload. Request i is due at
// start + i * period whether or not earlier requests were answered; its
// latency runs from the due time, so a stall of the generator or the
// server is charged to every request it delays, and the generator's own
// lateness (send - due) is reported as the validity check of the loop.
#pragma once

#include <cstdint>

namespace perfbench {

class OpenLoopClock {
 public:
  OpenLoopClock(double start_ms, double rate_per_s)
      : start_ms_(start_ms), period_ms_(1000.0 / rate_per_s) {}
  double due_ms(std::uint64_t i) const {
    return start_ms_ + static_cast<double>(i) * period_ms_;
  }

 private:
  double start_ms_;
  double period_ms_;
};

/// Timestamps of one request, in ms from a common origin.
struct RequestTimes {
  double due_ms = 0.0;   ///< when the request should have been sent
  double sent_ms = 0.0;  ///< when its frame was written
  double recv_ms = 0.0;  ///< when its response frame was complete
};

/// Latency as a client of an open system sees it: from due time.
inline double open_loop_latency_ms(const RequestTimes& t) {
  return t.recv_ms - t.due_ms;
}
/// How late the generator sent the request.
inline double lateness_ms(const RequestTimes& t) {
  return t.sent_ms - t.due_ms;
}

}  // namespace perfbench
