#include "attention/sparse_flash_attention.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "attention/microkernel.h"
#include "core/thread_pool.h"
#include "obs/accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sattn {
namespace {

// Kept keys per key chunk. Every group of a tile absorbs the chunk's keys
// before the tile moves on, so the chunk's K/V rows are read from memory
// once per tile and stay cache-hot for the other groups; each group
// rescales once per chunk.
constexpr Index kKeyChunk = 128;

// Appends a ∩ b to out, for sorted, disjoint run lists.
void intersect_runs(std::span<const ColumnRun> a, std::span<const ColumnRun> b,
                    std::vector<ColumnRun>& out) {
  std::size_t x = 0, y = 0;
  while (x < a.size() && y < b.size()) {
    const Index lo = std::max(a[x].lo, b[y].lo);
    const Index hi = std::min(a[x].hi, b[y].hi);
    if (lo < hi) out.push_back({lo, hi});
    if (a[x].hi < b[y].hi) {
      ++x;
    } else {
      ++y;
    }
  }
}

// Appends a \ b to out, for sorted, disjoint run lists with b ⊆ a.
void subtract_runs(std::span<const ColumnRun> a, std::span<const ColumnRun> b,
                   std::vector<ColumnRun>& out) {
  std::size_t y = 0;
  for (const ColumnRun& run : a) {
    Index lo = run.lo;
    for (; y < b.size() && b[y].lo < run.hi; ++y) {
      if (b[y].lo > lo) out.push_back({lo, b[y].lo});
      lo = b[y].hi;
    }
    if (lo < run.hi) out.push_back({lo, run.hi});
  }
}

// [begin, end) of a run list stored in a flat vector.
struct RunSlice {
  std::size_t begin = 0, end = 0;
  std::span<const ColumnRun> of(const std::vector<ColumnRun>& v) const {
    return {v.data() + begin, end - begin};
  }
};

// One group of up to mk::kQRows rows of a tile.
struct Group {
  mk::QBlock b;                 // the rows that keep any key
  RunSlice common;              // the keys all of them keep
  RunSlice ragged[mk::kQRows];  // per block row: its other kept keys
  std::size_t cursor = 0;       // next common run to absorb
};

// Per-tile scratch and online-softmax state. Run lists live in flat
// vectors, so a tile allocates a fixed handful of buffers.
struct TileScratch {
  std::vector<double> q;  // the tile's query rows, widened once
  std::vector<float> m;
  std::vector<double> l;
  Matrix acc;
  std::vector<Group> groups;
  std::vector<ColumnRun> rows[mk::kQRows];  // the current group's kept runs
  std::vector<ColumnRun> common, ragged;    // every group's, flat
  std::vector<ColumnRun> tmp, next, chunk;
  std::vector<Index> cuts;  // key-chunk ends
  std::vector<float> logits;
};

// Chunk ends: every kKeyChunk keys of `guide`, then sk for the rest.
void key_chunk_cuts(std::span<const ColumnRun> guide, Index sk, std::vector<Index>& cuts) {
  cuts.clear();
  Index kept = 0;
  for (const ColumnRun& run : guide) {
    for (Index lo = run.lo; lo < run.hi;) {
      const Index take = std::min(kKeyChunk - kept, run.hi - lo);
      lo += take;
      kept += take;
      if (kept == kKeyChunk) {
        cuts.push_back(lo);
        kept = 0;
      }
    }
  }
  if (cuts.empty() || cuts.back() < sk) cuts.push_back(sk);
}

}  // namespace

void sparse_flash_attention(const AttentionInput& in, const StructuredMask& mask, Matrix& out) {
  out.resize(in.sq(), in.head_dim());
  sparse_flash_attention(in.q.data(), in.sq(), mk::KvView::of(in), in.sk(), mask, out.data());
}

void sparse_flash_attention(const float* q, Index sq, const mk::KvView& kv, Index sk,
                            const StructuredMask& mask, float* out) {
  assert(mask.sq() == sq && mask.sk() == sk);
  SATTN_SPAN("kernel/sparse_flash");
  // Tallied per tile, one atomic add each.
  std::atomic<double> evals{0.0};
  std::atomic<double> meta_reads{0.0};
  parallel_for((sq + kTileQ - 1) / kTileQ, [&](Index t) {
    const SparseTileWork w = sparse_flash_tiles(q, sq, kv, sk, mask, out, t, t + 1);
    evals.fetch_add(w.evals, std::memory_order_relaxed);
    meta_reads.fetch_add(w.meta_reads, std::memory_order_relaxed);
  });
  sparse_flash_record(mask, kv.d, {evals.load(), meta_reads.load()});
}

SparseTileWork sparse_flash_tiles(const float* q, Index sq, const mk::KvView& kv, Index sk,
                                  const StructuredMask& mask, float* out, Index t_lo,
                                  Index t_hi) {
  const Index d = kv.d;
  assert(mask.sq() == sq && mask.sk() == sk);
  assert(0 <= t_lo && t_lo <= t_hi && t_hi * kTileQ < sq + kTileQ);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  SparseTileWork work;
  for (Index t = t_lo; t < t_hi; ++t) {
    const Index t0 = t * kTileQ;
    const Index nt = std::min(sq, t0 + kTileQ) - t0;
    const Index n_groups = (nt + mk::kQRows - 1) / mk::kQRows;
    TileScratch sc;
    sc.m.assign(static_cast<std::size_t>(nt), -std::numeric_limits<float>::infinity());
    sc.l.assign(static_cast<std::size_t>(nt), 0.0);
    sc.acc.resize(nt, d);
    sc.groups.resize(static_cast<std::size_t>(n_groups));
    sc.q.resize(static_cast<std::size_t>(nt) * static_cast<std::size_t>(d));
    simd::widen(q + static_cast<std::size_t>(t0) * static_cast<std::size_t>(d), nt * d,
                sc.q.data());

    // 1. Each row's kept runs, built once. The rows of a group that keep
    //    any key form its block; the keys all of them keep are its common
    //    runs, and each row's remaining keys are its ragged runs.
    for (Index g = 0; g < n_groups; ++g) {
      Group& grp = sc.groups[static_cast<std::size_t>(g)];
      mk::QBlock& b = grp.b;
      b.d = d;
      const Index r0 = g * mk::kQRows, r1 = std::min(nt, r0 + mk::kQRows);
      for (Index r = r0; r < r1; ++r) {
        std::vector<ColumnRun>& runs = sc.rows[b.rows];
        work.meta_reads += static_cast<double>(mask.row_runs(t0 + r, runs));
        if (runs.empty()) continue;
        for (const ColumnRun& run : runs) work.evals += static_cast<double>(run.width());
        const auto rr = static_cast<std::size_t>(r);
        b.q[b.rows] = sc.q.data() + rr * static_cast<std::size_t>(d);
        b.m[b.rows] = &sc.m[rr];
        b.l[b.rows] = &sc.l[rr];
        b.acc[b.rows] = sc.acc.row(r).data();
        ++b.rows;
      }
      if (b.rows == 0) continue;
      sc.tmp = sc.rows[0];
      for (Index k = 1; k < b.rows; ++k) {
        sc.next.clear();
        intersect_runs(sc.tmp, sc.rows[k], sc.next);
        std::swap(sc.tmp, sc.next);
      }
      grp.common.begin = sc.common.size();
      sc.common.insert(sc.common.end(), sc.tmp.begin(), sc.tmp.end());
      grp.common.end = sc.common.size();
      grp.cursor = grp.common.begin;
      for (Index k = 0; k < b.rows; ++k) {
        grp.ragged[k].begin = sc.ragged.size();
        subtract_runs(sc.rows[k], sc.tmp, sc.ragged);
        grp.ragged[k].end = sc.ragged.size();
      }
    }

    // 2. Common keys, chunk by chunk: every group absorbs its common runs
    //    inside [k_lo, k_hi) through the register-blocked path while the
    //    chunk's K/V rows are hot. The last group (largest causal limit)
    //    guides the chunk ends.
    key_chunk_cuts(sc.groups.back().common.of(sc.common), sk, sc.cuts);
    Index k_lo = 0;
    for (const Index k_hi : sc.cuts) {
      for (Group& grp : sc.groups) {
        sc.chunk.clear();
        for (; grp.cursor < grp.common.end; ++grp.cursor) {
          const ColumnRun& run = sc.common[grp.cursor];
          if (run.lo >= k_hi) break;
          sc.chunk.push_back({std::max(run.lo, k_lo), std::min(run.hi, k_hi)});
          if (run.hi > k_hi) break;  // the rest of this run is in the next chunk
        }
        if (!sc.chunk.empty()) mk::absorb_key_runs(grp.b, kv, scale, sc.chunk, sc.logits);
      }
      k_lo = k_hi;
    }

    // 3. The few keys only some rows of a group keep (ragged causal and
    //    band edges), through the single-row path; then normalize.
    for (const Group& grp : sc.groups) {
      for (Index k = 0; k < grp.b.rows; ++k) {
        for (const ColumnRun& run : grp.ragged[k].of(sc.ragged)) {
          mk::absorb_key_run(grp.b, k, kv, scale, run.lo, run.hi, sc.logits);
        }
      }
    }
    for (Index r = 0; r < nt; ++r) {
      mk::finalize_row(sc.acc.row(r).data(), sc.l[static_cast<std::size_t>(r)], d,
                       out + static_cast<std::size_t>(t0 + r) * static_cast<std::size_t>(d));
    }
  }
  return work;
}

void sparse_flash_record(const StructuredMask& mask, Index d, const SparseTileWork& work) {
  // Measured work: the kept keys each row absorbs, plus the mask metadata
  // read to build its runs (8 bytes per stripe run / window / band / block
  // descriptor, per row).
  SATTN_COUNTER_ADD("sattn.mask_stripe_columns", mask.stripe_columns().size());
  SATTN_HISTOGRAM("kernel.sparse_flash.score_evals", work.evals);
  obs::charge_attention_kernel("sparse_flash", mask.sq(), mask.sk(), d, work.evals,
                               /*score_bytes=*/0.0,
                               /*meta_bytes=*/8.0 * work.meta_reads);
}

double sparse_flash_work(const StructuredMask& mask) {
  // The kernel evaluates exactly the masked-in causal cells (each row's
  // kept runs are the normalized union of bands, stripes and blocks), so
  // work equals density * causal_pairs.
  return mask.density() * causal_pairs(mask.sq(), mask.sk());
}

AttentionResult MaskedAttention::run_impl(const AttentionInput& in) const {
  const StructuredMask mask = builder_(in);
  AttentionResult r;
  sparse_flash_attention(in, mask, r.out);
  r.density = mask.density();
  return r;
}

}  // namespace sattn
