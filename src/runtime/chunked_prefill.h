// Chunked prefill along the sequence dimension — the memory-efficiency
// measure the paper's serving discussion (Appendix A.6 and Table 4 setup)
// relies on for >= 128K requests.
//
// Queries are processed in chunks of `chunk_size`; each chunk attends the
// key prefix that exists by its end, so the result is mathematically
// identical to one-shot causal attention while peak intermediate memory is
// O(chunk * prefix) instead of O(S^2)-shaped worst cases. Each chunk runs in
// place — its queries and key prefix are read through mk::KvView::of(in)
// and its output rows written straight into the result, with no per-chunk
// copy. Optionally fills a KVCache for the subsequent decode phase.
//
// Two variants: exact flash attention per chunk, and SampleAttention per
// chunk (each chunk plans its own mask against the current prefix — the
// natural way to run SampleAttention under chunked serving).
//
// Prefix cache: when a cache is supplied together with the prompt's row
// keys (one per token, each standing for that row's Q, K and V; see
// runtime/kv_page.h), the prefill first probes the cache's arena's prefix
// index (the cache must start empty) and attaches every matching leading
// page — those tokens' outputs are copied from the index and their chunks
// are never computed (ChunkedPrefillResult::prefix_hit_tokens) — and
// afterwards publishes the prompt's full pages so later prefills with the
// same leading keys hit. Without keys nothing is shared. A cache on a
// private arena makes both steps no-ops in effect (nothing to hit, nobody
// to share with).
//
// Malformed requests (non-square prefill, chunk_size <= 0, cache head_dim
// mismatch, row keys without a cache or not one per token) return a
// checked Status instead of asserting.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "attention/attention_method.h"
#include "core/status.h"
#include "runtime/kv_cache.h"
#include "sample_attention/sample_attention.h"

namespace sattn {

struct ChunkedPrefillResult {
  Matrix out;          // [Sq x d], identical layout to one-shot attention
  Index chunks = 0;
  double mean_density = 1.0;  // mean kept density across chunks (sparse variant)
  Index prefix_hit_tokens = 0;  // leading tokens served from the prefix index
};

// Exact chunked prefill. If cache != nullptr, all K/V rows are appended.
// Non-empty `row_keys` turn on prefix sharing through the cache. A
// non-empty `request_id` runs the prefill under an obs::RequestContext so
// per-chunk kernel charges are attributed to that request.
StatusOr<ChunkedPrefillResult> chunked_flash_prefill(const AttentionInput& in, Index chunk_size,
                                                     KVCache* cache = nullptr,
                                                     std::span<const std::uint64_t> row_keys = {},
                                                     const std::string& request_id = {});

// Chunked SampleAttention prefill: Stage-1/2 run per chunk over the prefix.
StatusOr<ChunkedPrefillResult> chunked_sample_prefill(const AttentionInput& in, Index chunk_size,
                                                      const SampleAttentionConfig& cfg,
                                                      KVCache* cache = nullptr,
                                                      std::span<const std::uint64_t> row_keys = {},
                                                      const std::string& request_id = {});

}  // namespace sattn
