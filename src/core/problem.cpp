#include "core/problem.hpp"

#include "core/dslash_ref.hpp"

namespace milc {

DslashProblem::DslashProblem(int L, std::uint64_t seed, Parity target)
    : DslashProblem(Coords{L, L, L, L}, seed, target) {}

DslashProblem::DslashProblem(const Coords& dims, std::uint64_t seed, Parity target)
    : DslashProblem(dims, GaugeConfiguration::random(LatticeGeom(dims), seed), seed, target) {}

DslashProblem::DslashProblem(const Coords& dims, const GaugeConfiguration& gauge,
                             std::uint64_t seed, Parity target)
    : geom_(dims),
      target_(target),
      view_(geom_, gauge, target),
      nbr_(geom_, target),
      b_(geom_, opposite(target)),
      c_(geom_, target) {
  b_.fill_random(seed ^ 0x9e3779b97f4a7c15ull);
  c_.zero();
}

DslashArgs<dcomplex> DslashProblem::args() {
  return make_dslash_args(view_, nbr_, b_, c_);
}

}  // namespace milc
