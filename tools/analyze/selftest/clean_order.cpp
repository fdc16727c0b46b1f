// amm_analyze --self-test corpus: a .cpp led by its own header, then
// system, then project includes (expected: no findings).
#include "selftest/clean_order.hpp"

#include <vector>

#include "support/types.hpp"

int f();
