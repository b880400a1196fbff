// Common interface implemented by every attention algorithm in the library:
// the exact baselines (full / flash), SampleAttention, and the four
// approximate baselines from the paper's evaluation (BigBird, StreamingLLM,
// HyperAttention, Hash-Sparse).
//
// All algorithms are causal prefill attention: query i may attend key j iff
// j <= i + (Sk - Sq). Sparse methods compute softmax over the keys they keep
// (as a real kernel does), not a post-hoc masked renormalization; the
// theory-side masked quantities (CRA, SD) live in src/metrics.
#pragma once

#include <string>

#include "core/tensor.h"

namespace sattn {

// Causal limit: largest key index (inclusive) visible to query row i.
inline Index causal_limit(Index i, Index sq, Index sk) { return i + (sk - sq); }

// Number of (i, j) pairs in the causal region — the denominator for density.
inline double causal_pairs(Index sq, Index sk) {
  // sum_i max(0, causal_limit + 1): the last n = min(sq, sk) rows see
  // sk, sk - 1, ..., sk - n + 1 keys; any earlier row (sq > sk) sees none.
  const auto n = static_cast<double>(sq < sk ? sq : sk);
  return n * static_cast<double>(sk) - 0.5 * n * (n - 1.0);
}

struct AttentionResult {
  Matrix out;  // [Sq x d]

  // Fraction of causal score entries the method actually computed in its
  // final attention pass (1.0 for exact methods). Drives the cost model.
  double density = 1.0;

  // Extra work done before the sparse pass, expressed as an equivalent
  // fraction of full causal attention (SampleAttention's Stage-1 sampling;
  // HyperAttention's hashing). Reported separately so Fig 5(b)'s
  // sampling-overhead breakdown can be regenerated.
  double overhead_density = 0.0;
};

class AttentionMethod {
 public:
  virtual ~AttentionMethod() = default;
  virtual std::string name() const = 0;

  // Runs the method. Non-virtual wrapper: when tracing is enabled
  // (obs/trace.h) it opens a "method/<name>" span and charges the shared
  // attention counters from the result's densities, so every method —
  // including all Table-2 baselines — is observable without per-method
  // instrumentation.
  AttentionResult run(const AttentionInput& in) const;

 protected:
  // The actual algorithm, implemented by each method.
  virtual AttentionResult run_impl(const AttentionInput& in) const = 0;
};

}  // namespace sattn
