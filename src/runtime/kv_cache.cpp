#include "runtime/kv_cache.h"

#include <algorithm>
#include <cstring>

#include "obs/trace.h"

namespace sattn {

KVCache::KVCache(Index head_dim, std::shared_ptr<KvPageArena> arena)
    : d_(head_dim), arena_(std::move(arena)) {
  assert(head_dim > 0);
  if (arena_ == nullptr) arena_ = std::make_shared<KvPageArena>(head_dim);
  assert(arena_->head_dim() == d_ && "cache head_dim must match its arena");
  shift_ = arena_->page_shift();
  mask_ = arena_->page_mask();
}

KVCache::~KVCache() { release_all_pages(); }

KVCache& KVCache::operator=(KVCache&& other) noexcept {
  if (this != &other) {
    release_all_pages();
    d_ = other.d_;
    shift_ = other.shift_;
    mask_ = other.mask_;
    arena_ = std::move(other.arena_);
    pages_ = std::move(other.pages_);
    k_ptrs_ = std::move(other.k_ptrs_);
    v_ptrs_ = std::move(other.v_ptrs_);
    shared_pages_ = other.shared_pages_;
    positions_ = std::move(other.positions_);
    other.shared_pages_ = 0;
  }
  return *this;
}

void KVCache::push_page(const KvPageArena::PageRef& ref) {
  pages_.push_back(ref.id);
  k_ptrs_.push_back(ref.k);
  v_ptrs_.push_back(ref.v);
}

void KVCache::release_all_pages() {
  if (arena_ == nullptr) return;  // moved-from
  for (const Index id : pages_) arena_->release(id);
  pages_.clear();
  k_ptrs_.clear();
  v_ptrs_.clear();
  shared_pages_ = 0;
}

double KVCache::bytes() const {
  double total = shared_bytes();
  // Private pages: sole owner by construction.
  for (Index pi = shared_pages_; pi < pages(); ++pi) total += arena_->page_bytes();
  return total;
}

double KVCache::shared_bytes() const {
  const double page_bytes = arena_->page_bytes();
  double total = 0.0;
  for (Index pi = 0; pi < shared_pages_; ++pi) {
    const int owners = arena_->owner_count(pages_[static_cast<std::size_t>(pi)]);
    total += page_bytes / static_cast<double>(std::max(owners, 1));
  }
  return total;
}

mk::KvView KVCache::view() const {
  mk::KvView v;
  v.d = d_;
  v.k_pages = k_ptrs_.data();
  v.v_pages = v_ptrs_.data();
  v.page_shift = shift_;
  v.page_mask = mask_;
  return v;
}

Status KVCache::append(Index pos, std::span<const float> k_row, std::span<const float> v_row) {
  SATTN_CHECK(static_cast<Index>(k_row.size()) == d_ && static_cast<Index>(v_row.size()) == d_,
              kInvalidArgument, "KV row dim mismatch: cache head_dim=", d_, ", k_row=",
              k_row.size(), ", v_row=", v_row.size());
  SATTN_CHECK(positions_.empty() || pos > positions_.back(), kFailedPrecondition,
              "KV append position ", pos, " breaks position monotonicity (last appended position ",
              positions_.empty() ? -1 : positions_.back(), ")");
  const Index slot = size();
  const Index pi = slot >> shift_;
  if (pi == static_cast<Index>(pages_.size())) push_page(arena_->alloc());
  assert(pi < static_cast<Index>(pages_.size()));
  assert(pi >= shared_pages_ && "appends must land after the shared prefix (shared pages are full)");
  const std::size_t off = static_cast<std::size_t>(slot & mask_) * static_cast<std::size_t>(d_);
  std::copy(k_row.begin(), k_row.end(), k_ptrs_[static_cast<std::size_t>(pi)] + off);
  std::copy(v_row.begin(), v_row.end(), v_ptrs_[static_cast<std::size_t>(pi)] + off);
  positions_.push_back(pos);
  SATTN_COUNTER_ADD("kv_cache.appended_rows", 1);
  return Status::Ok();
}

Status KVCache::append_prefill(const AttentionInput& in) {
  SATTN_CHECK(in.head_dim() == d_, kInvalidArgument, "prefill head_dim ", in.head_dim(),
              " does not match cache head_dim ", d_);
  SATTN_CHECK(in.k.rows() == in.v.rows(), kInvalidArgument, "prefill K has ", in.k.rows(),
              " rows but V has ", in.v.rows());
  // The attach/append lifecycle: the cache holds exactly positions
  // [0, size()) — an attached prefix or a previous partial fill — and this
  // call appends the remaining suffix.
  SATTN_CHECK(positions_.empty() || positions_.back() == size() - 1, kFailedPrecondition,
              "append_prefill needs a dense position prefix, cache ends at position ",
              positions_.empty() ? -1 : positions_.back(), " with ", size(), " slots");
  for (Index j = size(); j < in.sk(); ++j) {
    SATTN_RETURN_IF_ERROR(append(j, in.k.row(j), in.v.row(j)));
  }
  return Status::Ok();
}

Status KVCache::extend(Index n) {
  SATTN_CHECK(n >= 0, kInvalidArgument, "extend by a negative row count ", n);
  SATTN_CHECK(positions_.empty() || positions_.back() == size() - 1, kFailedPrecondition,
              "extend needs a dense position prefix, cache ends at position ",
              positions_.empty() ? -1 : positions_.back(), " with ", size(), " slots");
  const Index hi = size() + n;
  while (static_cast<Index>(pages_.size()) << shift_ < hi) push_page(arena_->alloc());
  for (Index j = size(); j < hi; ++j) positions_.push_back(j);
  SATTN_COUNTER_ADD("kv_cache.appended_rows", static_cast<double>(n));
  return Status::Ok();
}

Index KVCache::slot_of(Index pos) const {
  const auto it = std::lower_bound(positions_.begin(), positions_.end(), pos);
  if (it == positions_.end() || *it != pos) {
    SATTN_COUNTER_ADD("kv_cache.lookup_misses", 1);
    return -1;
  }
  SATTN_COUNTER_ADD("kv_cache.lookup_hits", 1);
  return static_cast<Index>(it - positions_.begin());
}

Status KVCache::keep_slots(std::span<const Index> sorted_slots) {
  // Validate the whole list before touching any storage so a rejected call
  // leaves the cache untouched.
  Index prev = -1;
  for (Index slot : sorted_slots) {
    SATTN_CHECK(slot > prev, kInvalidArgument, "keep_slots list not strictly ascending at slot ",
                slot, " after ", prev);
    SATTN_CHECK(slot < size(), kOutOfRange, "keep_slots slot ", slot,
                " out of range for cache of size ", size());
    prev = slot;
  }
  SATTN_COUNTER_ADD("kv_cache.evicted_rows",
                    size() - static_cast<Index>(sorted_slots.size()));
  // Copy-on-write compaction: survivors are rewritten into fresh private
  // pages, then every old page — shared prefix pages included — is
  // released. Whole pages go back to the arena's freelist; a shared image
  // other caches still reference is never written.
  std::vector<Index> old_pages = std::move(pages_);
  std::vector<float*> old_k = std::move(k_ptrs_);
  std::vector<float*> old_v = std::move(v_ptrs_);
  pages_.clear();
  k_ptrs_.clear();
  v_ptrs_.clear();
  shared_pages_ = 0;
  std::vector<Index> npos;
  npos.reserve(sorted_slots.size());
  const std::size_t row = static_cast<std::size_t>(d_);
  Index slot_out = 0;
  for (Index slot : sorted_slots) {
    const Index pi = slot_out >> shift_;
    if (pi == static_cast<Index>(pages_.size())) push_page(arena_->alloc());
    const std::size_t dst = static_cast<std::size_t>(slot_out & mask_) * row;
    const std::size_t spi = static_cast<std::size_t>(slot >> shift_);
    const std::size_t src = static_cast<std::size_t>(slot & mask_) * row;
    std::memcpy(k_ptrs_[static_cast<std::size_t>(pi)] + dst, old_k[spi] + src,
                row * sizeof(float));
    std::memcpy(v_ptrs_[static_cast<std::size_t>(pi)] + dst, old_v[spi] + src,
                row * sizeof(float));
    npos.push_back(positions_[static_cast<std::size_t>(slot)]);
    ++slot_out;
  }
  for (const Index id : old_pages) arena_->release(id);
  positions_ = std::move(npos);
  return Status::Ok();
}

Index KVCache::try_attach_prefix(std::span<const std::uint64_t> row_keys, Index max_tokens,
                                 Matrix* out) {
  assert(empty() && "prefix attach requires an empty cache");
  const Index P = arena_->page_tokens();
  const Index limit = std::min(max_tokens, static_cast<Index>(row_keys.size()));
  assert(out == nullptr || (out->rows() >= limit / P * P && out->cols() == d_));
  std::uint64_t chain = kPrefixChainSeed;
  Index attached = 0;
  while (attached + P <= limit) {
    const auto keys =
        row_keys.subspan(static_cast<std::size_t>(attached), static_cast<std::size_t>(P));
    chain = prefix_chain_fold(chain, prefix_page_digest(keys));
    const KvPageArena::PageRef ref =
        arena_->prefix_lookup(chain, keys, out != nullptr ? out->row(attached).data() : nullptr);
    if (ref.id < 0) break;
    push_page(ref);
    ++shared_pages_;
    for (Index r = attached; r < attached + P; ++r) positions_.push_back(r);
    attached += P;
  }
  if (attached > 0) SATTN_COUNTER_ADD("kv_cache.prefix_hit_tokens", attached);
  return attached;
}

Index KVCache::publish_prefix(std::span<const std::uint64_t> row_keys, const Matrix& out,
                              Index out_lo) {
  assert(out.cols() == d_);
  const Index P = arena_->page_tokens();
  // Only a dense position prefix is publishable: page p must hold exactly
  // tokens [p*P, (p+1)*P).
  Index dense = 0;
  while (dense < size() && positions_[static_cast<std::size_t>(dense)] == dense) ++dense;
  const Index full_pages =
      std::min({dense, static_cast<Index>(row_keys.size()), out_lo + out.rows()}) >> shift_;
  assert(shared_pages_ >= full_pages || shared_pages_ * P >= out_lo);
  Index published = 0;
  std::uint64_t chain = kPrefixChainSeed;
  for (Index pi = 0; pi < full_pages; ++pi) {
    const auto keys =
        row_keys.subspan(static_cast<std::size_t>(pi * P), static_cast<std::size_t>(P));
    chain = prefix_chain_fold(chain, prefix_page_digest(keys));
    if (pi < shared_pages_) continue;  // attached or already published
    if (!arena_->prefix_publish(chain, keys, pages_[static_cast<std::size_t>(pi)],
                                out.row(pi * P - out_lo).data())) {
      // Lost the publish race: another cache's image already backs this
      // chain (and therefore every longer chain). Our pages stay private
      // duplicates; later requests will hit the winner's image.
      break;
    }
    ++published;
    // Published pages are immutable and refcounted by the index; they now
    // count as this cache's shared prefix (appends land past them and
    // bytes() amortizes them across owners).
    ++shared_pages_;
  }
  return published;
}

}  // namespace sattn
