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

// XXH64 (Collet): four independent multiply-rotate lanes over 32-byte
// stripes, a lane merge, the 8/4/1-byte tail folded in, and a final
// avalanche. Loads go through memcpy, so any alignment is fine.
constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ull;

std::uint64_t rotl(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

std::uint64_t load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t round64(std::uint64_t acc, std::uint64_t word) {
  return rotl(acc + word * kP2, 31) * kP1;
}

std::uint64_t merge64(std::uint64_t h, std::uint64_t lane) {
  return (h ^ round64(0, lane)) * kP1 + kP4;
}

std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

std::uint64_t xxh64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed, v4 = seed - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = round64(v1, load64(p));
      v2 = round64(v2, load64(p + 8));
      v3 = round64(v3, load64(p + 16));
      v4 = round64(v4, load64(p + 24));
    }
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = merge64(h, v1);
    h = merge64(h, v2);
    h = merge64(h, v3);
    h = merge64(h, v4);
  } else {
    h = seed + kP5;
  }
  h += n;
  for (; end - p >= 8; p += 8) h = rotl(h ^ round64(0, load64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = rotl(h ^ (std::uint64_t{load32(p)} * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = rotl(h ^ (std::uint64_t{*p} * kP5), 11) * kP1;
  return avalanche(h);
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

bool KvPageArena::prefix_publish(std::uint64_t chain_hash, std::span<const std::uint64_t> row_keys,
                                 Index page, const float* out_rows) {
  const std::size_t floats = static_cast<std::size_t>(page_tokens_) * static_cast<std::size_t>(d_);
  assert(static_cast<Index>(row_keys.size()) == page_tokens_);
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
  e.row_keys.assign(row_keys.begin(), row_keys.end());
  e.out_rows.assign(out_rows, out_rows + floats);
  prefix_.emplace(chain_hash, std::move(e));
  SATTN_COUNTER_ADD("kv_cache.prefix_published", 1);
  return true;
}

KvPageArena::PageRef KvPageArena::prefix_lookup(std::uint64_t chain_hash,
                                                std::span<const std::uint64_t> row_keys,
                                                float* out_rows) {
  assert(static_cast<Index>(row_keys.size()) == page_tokens_);
  std::lock_guard lk(mu_);
  const auto it = prefix_.find(chain_hash);
  // Collision safety: the stored row keys must equal the caller's, so the
  // page holds exactly the rows the caller is about to rely on.
  if (it == prefix_.end() ||
      std::memcmp(it->second.row_keys.data(), row_keys.data(), row_keys.size_bytes()) != 0) {
    SATTN_COUNTER_ADD("kv_cache.prefix_misses", 1);
    return {};
  }
  Page& p = pages_[static_cast<std::size_t>(it->second.page)];
  ++p.refs;  // caller's hold
  if (out_rows != nullptr) {
    std::memcpy(out_rows, it->second.out_rows.data(), it->second.out_rows.size() * sizeof(float));
  }
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

std::uint64_t prefix_page_digest(std::span<const std::uint64_t> page_keys) {
  return xxh64(page_keys.data(), page_keys.size_bytes(), 0);
}

std::uint64_t prefix_chain_fold(std::uint64_t prev, std::uint64_t digest) {
  return avalanche(rotl(prev ^ round64(0, digest), 27) * kP1 + kP4);
}

}  // namespace sattn
