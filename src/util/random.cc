#include "src/util/random.h"

namespace pitex {

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

Rng Rng::Split() { return Rng(NextU64()); }

}  // namespace pitex
