// amm_analyze --self-test corpus: simulated time advances; a member sleep,
// and sleep_for( and rand() in a string literal and a block comment, are
// not calls (expected: no findings).
namespace selftest {

struct Clock {
  double now = 0.0;
  void sleep(int ticks) { now += ticks; }
};

void backoff(Clock& clock) {
  /* never std::this_thread::sleep_for(delay) or rand() here */
  clock.sleep(1);  // a member, not ::sleep()
}

const char* const kDoc = "sleep_for(std::chrono::seconds(1)) and rand() are prose here";

}  // namespace selftest
