#include "runtime/chunked_prefill.h"

#include <algorithm>
#include <memory>

#include "attention/flash_attention.h"
#include "attention/sparse_flash_attention.h"
#include "obs/accounting.h"
#include "obs/trace.h"

namespace sattn {
namespace {

template <typename RunChunk>
StatusOr<ChunkedPrefillResult> run_chunked(const AttentionInput& in, Index chunk_size,
                                           KVCache* cache,
                                           std::span<const std::uint64_t> row_keys,
                                           const std::string& request_id, RunChunk run_chunk) {
  const Index sq = in.sq(), d = in.head_dim();
  SATTN_CHECK(in.sq() == in.sk(), kInvalidArgument,
              "chunked prefill expects a standard prefill shape, got Sq=", in.sq(),
              " Sk=", in.sk());
  SATTN_CHECK(chunk_size > 0, kInvalidArgument, "chunk_size must be > 0, got ", chunk_size);
  SATTN_CHECK(cache == nullptr || cache->head_dim() == d, kInvalidArgument,
              "cache head_dim ", cache == nullptr ? 0 : cache->head_dim(),
              " does not match input head_dim ", d);
  SATTN_CHECK(row_keys.empty() || (cache != nullptr && static_cast<Index>(row_keys.size()) == sq),
              kInvalidArgument, "prefix sharing needs a cache and one row key per token, got ",
              row_keys.size(), " keys for ", sq, " tokens");
  SATTN_SPAN("runtime/chunked_prefill");
  std::unique_ptr<obs::RequestContext> request;
  std::unique_ptr<obs::ScopedSpan> request_span;
  if (!request_id.empty() && obs::enabled()) {
    request = std::make_unique<obs::RequestContext>(request_id);
    request_span = std::make_unique<obs::ScopedSpan>("request/" + request_id);
  }
  ChunkedPrefillResult res;
  res.out.resize(sq, d);
  // Prefix cache: attach any published leading pages before computing —
  // their outputs come straight from the index, so the loop below starts
  // past them (a fully shared prompt computes nothing at all).
  if (!row_keys.empty() && cache->empty()) {
    res.prefix_hit_tokens = cache->try_attach_prefix(row_keys, sq, &res.out);
  }
  // Each chunk runs in place: queries [q_lo, q_hi) against the key prefix
  // [0, q_hi) of the input, writing straight into its output rows.
  const mk::KvView kv = mk::KvView::of(in);
  double density_sum = 0.0;
  for (Index q_lo = res.prefix_hit_tokens; q_lo < sq; q_lo += chunk_size) {
    SATTN_SPAN("runtime/prefill_chunk");
    SATTN_COUNTER_ADD("runtime.prefill_chunks", 1);
    const Index q_hi = std::min(sq, q_lo + chunk_size);
    density_sum +=
        run_chunk(in.q.row(q_lo).data(), q_hi - q_lo, kv, q_hi, res.out.row(q_lo).data());
    if (cache != nullptr) {
      for (Index j = q_lo; j < q_hi; ++j) {
        SATTN_RETURN_IF_ERROR(cache->append(j, in.k.row(j), in.v.row(j)));
      }
    }
    ++res.chunks;
  }
  res.mean_density = res.chunks > 0 ? density_sum / res.chunks : 1.0;
  if (!row_keys.empty()) cache->publish_prefix(row_keys, res.out);
  return res;
}

}  // namespace

StatusOr<ChunkedPrefillResult> chunked_flash_prefill(const AttentionInput& in, Index chunk_size,
                                                     KVCache* cache,
                                                     std::span<const std::uint64_t> row_keys,
                                                     const std::string& request_id) {
  return run_chunked(in, chunk_size, cache, row_keys, request_id,
                     [](const float* q, Index rows, const mk::KvView& kv, Index k_hi, float* out) {
                       flash_attention(q, rows, kv, k_hi, out);
                       return 1.0;
                     });
}

StatusOr<ChunkedPrefillResult> chunked_sample_prefill(const AttentionInput& in, Index chunk_size,
                                                      const SampleAttentionConfig& cfg,
                                                      KVCache* cache,
                                                      std::span<const std::uint64_t> row_keys,
                                                      const std::string& request_id) {
  return run_chunked(in, chunk_size, cache, row_keys, request_id,
                     [&cfg](const float* q, Index rows, const mk::KvView& kv, Index k_hi,
                            float* out) {
                       const SamplePlan plan = plan_sample_attention(q, rows, kv, k_hi, cfg);
                       sparse_flash_attention(q, rows, kv, k_hi, plan.mask, out);
                       return plan.density;
                     });
}

}  // namespace sattn
