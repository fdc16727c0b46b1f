// amm_analyze --self-test corpus: a *_test.cpp may lead with the header
// under test, but only its first project include is exempt (expected:
// include-order).
#include "net/gadget.hpp"
#include "support/types.hpp"
#include <vector>

int f();
