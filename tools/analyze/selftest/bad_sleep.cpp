// amm_analyze --self-test corpus: wall-clock sleeps where simulated time
// should advance (expected: banned-sleep).
#include <unistd.h>

#include <chrono>
#include <thread>

namespace selftest {

void backoff() { std::this_thread::sleep_for(std::chrono::seconds(1)); }  // VIOLATION
void nap() { usleep(1000); }  // VIOLATION

}  // namespace selftest
