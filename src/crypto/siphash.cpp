#include "crypto/siphash.hpp"

#include <cstring>

namespace amm::crypto {

u64 siphash24(SipKey key, std::span<const std::byte> data) {
  SipState st(key);
  const usize n = data.size();
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 m;
    std::memcpy(&m, data.data() + i, 8);
    st.compress(m);
  }
  // Final block: remaining bytes plus the length in the top byte.
  u64 last = static_cast<u64>(n & 0xff) << 56;
  for (usize j = 0; i + j < n; ++j) {
    last |= static_cast<u64>(std::to_integer<u8>(data[i + j])) << (8 * j);
  }
  st.compress(last);
  return st.finalize();
}

u64 siphash24(SipKey key, std::span<const u64> words) {
  return siphash24(key, std::as_bytes(words));
}

}  // namespace amm::crypto
