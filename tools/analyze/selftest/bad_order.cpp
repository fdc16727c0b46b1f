// amm_analyze --self-test corpus: a system include after a project include
// in a .cpp not led by its own header (expected: include-order).
#include "support/assert.hpp"
#include <vector>

int f();
