// amm_analyze --self-test corpus: look-alikes of libc randomness — a member
// named time, a string literal, a block comment (expected: no findings).
namespace selftest {

struct Token {
  double time = 0.0;
};

double deadline(const Token& token, double delta) {
  return token.time + delta; /* never std::rand(), srand(time(nullptr)) or rand() */
}

const char* const kHelp = "seeds come from --seed, never from time(nullptr) or rand()";

}  // namespace selftest
