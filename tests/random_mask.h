// Seeded random StructuredMasks that mix every component — a window (or
// none), column stripes (scattered, or fragmented into many 1-3-column
// runs like a dense layer-0 head), diagonal bands and blocks that may
// overlap each other — for property tests of the mask algebra and the
// sparse kernel.
#pragma once

#include <vector>

#include "attention/masks.h"
#include "core/rng.h"

namespace sattn::test {

inline StructuredMask random_structured_mask(Rng& rng, Index sq, Index sk) {
  StructuredMask m(sq, sk);
  if (rng.uniform_index(8) != 0) m.set_window(1 + rng.uniform_index(sk / 2 + 1));
  std::vector<Index> cols;
  if (rng.uniform_index(2) == 0) {
    for (Index c = rng.uniform_index(4); c < sk; c += 1 + rng.uniform_index(4)) {
      for (const Index e = c + 1 + rng.uniform_index(3); c < e && c < sk; ++c) cols.push_back(c);
    }
  } else {
    const Index n = rng.uniform_index(sk / 4 + 1);
    for (Index t = 0; t < n; ++t) cols.push_back(rng.uniform_index(sk));
  }
  m.set_stripe_columns(std::move(cols));
  const Index n_bands = rng.uniform_index(3);
  for (Index t = 0; t < n_bands; ++t) {
    m.add_diagonal_band({1 + rng.uniform_index(sk), 1 + rng.uniform_index(sk / 4 + 1)});
  }
  const Index n_blocks = rng.uniform_index(4);
  for (Index t = 0; t < n_blocks; ++t) {
    const Index q0 = rng.uniform_index(sq), k0 = rng.uniform_index(sk);
    m.add_block({q0, q0 + 1 + rng.uniform_index(sq / 2 + 1), k0,
                 k0 + 1 + rng.uniform_index(sk / 2 + 1)});
  }
  return m;
}

}  // namespace sattn::test
