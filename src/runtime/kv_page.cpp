#include "runtime/kv_page.h"

#include <cassert>
#include <cstring>

#include "obs/trace.h"

namespace sattn {

namespace {

[[maybe_unused]] bool is_pow2(Index v) { return v > 0 && (v & (v - 1)) == 0; }

Index log2_of(Index v) {
  Index s = 0;
  while ((Index{1} << s) < v) ++s;
  return s;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(p[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

KvPageArena::KvPageArena(Index head_dim, Index page_tokens)
    : d_(head_dim), page_tokens_(page_tokens) {
  assert(head_dim > 0);
  assert(is_pow2(page_tokens) && "page_tokens must be a power of two");
  shift_ = log2_of(page_tokens_);
}

KvPageArena::PageRef KvPageArena::alloc() {
  std::lock_guard lk(mu_);
  const std::size_t floats = static_cast<std::size_t>(page_tokens_) * static_cast<std::size_t>(d_);
  Index id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<Index>(pages_.size());
    Page p;
    p.k = std::make_unique<float[]>(floats);
    p.v = std::make_unique<float[]>(floats);
    pages_.push_back(std::move(p));
  }
  Page& p = pages_[static_cast<std::size_t>(id)];
  assert(p.refs == 0 && !p.published);
  p.refs = 1;
  ++live_;
  ++allocs_;
  SATTN_COUNTER_ADD("kv_cache.pages_allocated", 1);
  return {id, p.k.get(), p.v.get()};
}

void KvPageArena::retain(Index page) {
  std::lock_guard lk(mu_);
  assert(page >= 0 && static_cast<std::size_t>(page) < pages_.size());
  Page& p = pages_[static_cast<std::size_t>(page)];
  assert(p.refs > 0 && "retain of a freed page");
  ++p.refs;
}

void KvPageArena::release(Index page) {
  std::lock_guard lk(mu_);
  assert(page >= 0 && static_cast<std::size_t>(page) < pages_.size());
  Page& p = pages_[static_cast<std::size_t>(page)];
  assert(p.refs > 0 && "double free of a KV page");
  if (--p.refs == 0) {
    assert(!p.published && "the prefix index's reference keeps published pages live");
    p.published = false;
    free_.push_back(page);
    --live_;
    ++frees_;
    SATTN_COUNTER_ADD("kv_cache.pages_freed", 1);
  }
}

int KvPageArena::refcount(Index page) const {
  std::lock_guard lk(mu_);
  assert(page >= 0 && static_cast<std::size_t>(page) < pages_.size());
  return pages_[static_cast<std::size_t>(page)].refs;
}

bool KvPageArena::is_published(Index page) const {
  std::lock_guard lk(mu_);
  assert(page >= 0 && static_cast<std::size_t>(page) < pages_.size());
  return pages_[static_cast<std::size_t>(page)].published;
}

int KvPageArena::owner_count(Index page) const {
  std::lock_guard lk(mu_);
  assert(page >= 0 && static_cast<std::size_t>(page) < pages_.size());
  const Page& p = pages_[static_cast<std::size_t>(page)];
  return p.refs - (p.published ? 1 : 0);
}

Index KvPageArena::pages_live() const {
  std::lock_guard lk(mu_);
  return live_;
}

long long KvPageArena::pages_allocated() const {
  std::lock_guard lk(mu_);
  return allocs_;
}

long long KvPageArena::pages_freed() const {
  std::lock_guard lk(mu_);
  return frees_;
}

double KvPageArena::bytes_live() const {
  std::lock_guard lk(mu_);
  return static_cast<double>(live_) * page_bytes();
}

bool KvPageArena::prefix_publish(std::uint64_t chain_hash, Index page, const float* out_rows) {
  const std::size_t floats = static_cast<std::size_t>(page_tokens_) * static_cast<std::size_t>(d_);
  std::lock_guard lk(mu_);
  assert(page >= 0 && static_cast<std::size_t>(page) < pages_.size());
  if (prefix_.count(chain_hash) != 0) return false;  // first publisher wins
  Page& p = pages_[static_cast<std::size_t>(page)];
  assert(p.refs > 0);
  assert(!p.published && "a page backs at most one prefix entry");
  p.published = true;
  ++p.refs;  // the index's hold
  PrefixEntry e;
  e.page = page;
  e.out_rows.assign(out_rows, out_rows + floats);
  prefix_.emplace(chain_hash, std::move(e));
  SATTN_COUNTER_ADD("kv_cache.prefix_published", 1);
  return true;
}

KvPageArena::PageRef KvPageArena::prefix_lookup(std::uint64_t chain_hash, const float* k_expect,
                                                const float* v_expect, float* out_rows) {
  const std::size_t floats = static_cast<std::size_t>(page_tokens_) * static_cast<std::size_t>(d_);
  std::lock_guard lk(mu_);
  const auto it = prefix_.find(chain_hash);
  if (it == prefix_.end()) {
    SATTN_COUNTER_ADD("kv_cache.prefix_misses", 1);
    return {};
  }
  Page& p = pages_[static_cast<std::size_t>(it->second.page)];
  // Collision safety: the stored K/V payload must be byte-identical to what
  // the caller is about to rely on.
  if (std::memcmp(p.k.get(), k_expect, floats * sizeof(float)) != 0 ||
      std::memcmp(p.v.get(), v_expect, floats * sizeof(float)) != 0) {
    SATTN_COUNTER_ADD("kv_cache.prefix_misses", 1);
    return {};
  }
  ++p.refs;  // caller's hold
  std::memcpy(out_rows, it->second.out_rows.data(), it->second.out_rows.size() * sizeof(float));
  SATTN_COUNTER_ADD("kv_cache.prefix_hits", 1);
  return {it->second.page, p.k.get(), p.v.get()};
}

Index KvPageArena::prefix_entries() const {
  std::lock_guard lk(mu_);
  return static_cast<Index>(prefix_.size());
}

double KvPageArena::prefix_index_bytes() const {
  std::lock_guard lk(mu_);
  double bytes = 0.0;
  for (const auto& [hash, e] : prefix_) {
    (void)hash;
    bytes += static_cast<double>(e.out_rows.size()) * sizeof(float);
    const Page& p = pages_[static_cast<std::size_t>(e.page)];
    if (p.refs - 1 == 0) bytes += page_bytes();  // index-only pages
  }
  return bytes;
}

std::uint64_t prefix_chain_hash(std::uint64_t prev, const AttentionInput& in, Index lo, Index hi) {
  const std::size_t row_bytes = static_cast<std::size_t>(in.head_dim()) * sizeof(float);
  std::uint64_t h = prev;
  for (Index r = lo; r < hi; ++r) h = fnv1a(h, in.q.row(r).data(), row_bytes);
  for (Index r = lo; r < hi; ++r) h = fnv1a(h, in.k.row(r).data(), row_bytes);
  for (Index r = lo; r < hi; ++r) h = fnv1a(h, in.v.row(r).data(), row_bytes);
  return h;
}

}  // namespace sattn
