// amm_analyze --self-test corpus: libc's global generator and a clock seed
// instead of support/rng.hpp streams (expected: determinism-taint).
#include <cstdlib>
#include <ctime>

namespace selftest {

int draw() { return std::rand(); }  // VIOLATION: std::rand
void seed() { srand(static_cast<unsigned>(time(nullptr))); }  // VIOLATION: srand, clock seed
int roll() { return rand() % 6; }  // VIOLATION: rand()

}  // namespace selftest
