// amm_analyze --self-test corpus: a *_test.cpp led by the header under
// test, then system, then project includes (expected: no findings).
#include "net/widget.hpp"
#include <vector>
#include "support/types.hpp"

int f();
