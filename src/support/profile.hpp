#pragma once
// RAII profiling scopes feeding named latency histograms (ahg::obs).
//
// The null-handle contract: a ProfileScope built on a nullptr histogram does
// NOTHING — no clock read, no store — so un-instrumented hot loops pay one
// predictable branch. Callers resolve Histogram handles once (outside the
// loop) via phase_histogram(), which itself accepts a null registry.

#include <chrono>

#include "support/metrics.hpp"

namespace ahg::obs {

/// Default bucket upper bounds for phase latencies, in seconds: roughly
/// 1-2-5 decades from 1 microsecond to 10 seconds. Shared by every phase
/// histogram so snapshots from different runs always merge.
std::span<const double> latency_bounds_seconds() noexcept;

/// Resolve (create on first use) a latency histogram; null registry -> null.
inline Histogram* phase_histogram(MetricsRegistry* registry, std::string_view name) {
  return registry == nullptr
             ? nullptr
             : &registry->histogram(name, latency_bounds_seconds());
}

/// Times its lifetime into a histogram (seconds). Null histogram = no-op.
class ProfileScope {
 public:
  explicit ProfileScope(Histogram* histogram) noexcept : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = Clock::now();
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  ~ProfileScope() {
    if (histogram_ != nullptr) {
      histogram_->observe(
          std::chrono::duration<double>(Clock::now() - start_).count());
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* histogram_;
  Clock::time_point start_;
};

}  // namespace ahg::obs
