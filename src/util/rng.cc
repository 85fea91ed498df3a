#include "src/util/rng.h"

namespace jockey {

namespace {
constexpr uint64_t kA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpper = ~uint64_t{0} << 31;

// One twisted word: `far` is the word kM positions ahead, cyclically. The mask
// `0 - (y & 1)` is all ones or zero, so selecting kA needs no branch.
uint64_t TwistWord(uint64_t far, uint64_t cur, uint64_t following) {
  const uint64_t y = (cur & kUpper) | (following & ~kUpper);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kA);
}
}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kN; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  for (size_t k = 0; k < kN - kM; ++k) {
    state_[k] = TwistWord(state_[k + kM], state_[k], state_[k + 1]);
  }
  for (size_t k = kN - kM; k < kN - 1; ++k) {
    state_[k] = TwistWord(state_[k + kM - kN], state_[k], state_[k + 1]);
  }
  state_[kN - 1] = TwistWord(state_[kM - 1], state_[kN - 1], state_[0]);
  next_ = 0;
}

}  // namespace jockey
