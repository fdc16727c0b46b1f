// amm_analyze --self-test corpus: a header that opens with #pragma once,
// then system and project includes in order (expected: no findings).
#pragma once

#include <unordered_map>
#include <vector>

#include "support/types.hpp"

// rand() in prose is fine; so is discussing sleep_for( in a comment.
namespace selftest {
std::unordered_map<int, int> m();  // declaration, no iteration
}  // namespace selftest
