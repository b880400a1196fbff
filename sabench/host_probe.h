// Host-speed probe: a small fixed kernel owned by the benchmark, timed again
// and again during a run, so that each run can state how fast the host was
// while it measured.
//
// On a shared 4-core VM the same binary on the same inputs drifted by 20%
// over ten minutes: single-thread decode and 3-thread prefill slowed and
// recovered together, while nothing in the program changed. Such drift
// between runs is larger than any bound a benchmark can hold. The end-to-end
// timings are therefore reported at the reference host speed: each is
// divided by the run's slowdown, the median probe time over
// kReferenceSeconds. The probe runs no library code, so a change to the
// library moves the reported timings in full; only the host's speed cancels.
// Each run prints its slowdown and raw figures alongside.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

namespace sabench {

class HostProbe {
 public:
  // Median probe time on a quiet 4-core x86 (Xeon, AVX2) host; any fixed
  // value works, it only sets the scale the timings are reported at.
  static constexpr double kReferenceSeconds = 0.55e-3;

  HostProbe() : keys_(kRows * kDim), query_(kDim) {
    for (std::size_t i = 0; i < keys_.size(); ++i) keys_[i] = static_cast<float>(i % 97) * 0.01f;
    for (std::size_t j = 0; j < kDim; ++j) query_[j] = static_cast<float>(j % 13) * 0.1f;
  }

  // Runs the kernel once (scores of one query against 1 MiB of keys, the
  // memory and arithmetic mix of an attention row sweep) and records its
  // wall time.
  void sample() {
    const auto t0 = std::chrono::steady_clock::now();
    float best = 0.0f;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t r = 0; r < kRows; ++r) {
        const float* k = keys_.data() + r * kDim;
        float dot = 0.0f;
        for (std::size_t j = 0; j < kDim; ++j) dot += k[j] * query_[j];
        best = std::max(best, dot);
      }
      query_[static_cast<std::size_t>(pass) % kDim] += best * 1e-9f;  // a data dependency
    }
    sink_ = best;
    seconds_.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }

  std::size_t samples() const { return seconds_.size(); }

  // Median probe time over the reference: above 1 when the host ran slower
  // than the reference host. 1 when nothing was sampled.
  double slowdown() const {
    if (seconds_.empty()) return 1.0;
    std::vector<double> s = seconds_;
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(s.size() / 2), s.end());
    return s[s.size() / 2] / kReferenceSeconds;
  }

 private:
  static constexpr std::size_t kRows = 2048;
  static constexpr std::size_t kDim = 128;
  static constexpr int kPasses = 4;

  std::vector<float> keys_;
  std::vector<float> query_;
  std::vector<double> seconds_;
  volatile float sink_ = 0.0f;
};

}  // namespace sabench
