// amm_analyze --self-test corpus: a header whose first include comes
// before any #pragma once (expected: pragma-once).
#include <vector>

namespace selftest {
inline int f() { return 1; }
}  // namespace selftest
