// Problem-instance generators matching Section 7 of the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/rng.h"
#include "core/instance.h"

namespace fnda {

/// A generator draws one instance per call from the provided stream.
/// `draw_into` writes the draw over a caller-owned instance, reusing its
/// value vectors, so a hot loop that keeps one instance draws with no
/// allocation; `generator(rng)` returns the same draw by value.
class InstanceGenerator {
 public:
  using DrawInto = std::function<void(Rng&, SingleUnitInstance&)>;

  InstanceGenerator() = default;
  explicit InstanceGenerator(DrawInto draw_into)
      : draw_into_(std::move(draw_into)) {}

  void draw_into(Rng& rng, SingleUnitInstance& into) const {
    draw_into_(rng, into);
  }
  SingleUnitInstance operator()(Rng& rng) const {
    SingleUnitInstance instance;
    draw_into_(rng, instance);
    return instance;
  }

 private:
  DrawInto draw_into_;
};

/// Parameters shared by the paper's generators: valuations are i.i.d.
/// uniform on [low, high] (the paper uses [0, 100]).
struct ValueDistribution {
  Money low = Money::from_units(0);
  Money high = Money::from_units(100);
  ValueDomain domain{};
};

/// Table 1 workload: exactly `buyers` buyers and `sellers` sellers.
InstanceGenerator fixed_count_generator(std::size_t buyers,
                                        std::size_t sellers,
                                        ValueDistribution values = {});

/// Table 2 workload: m and n drawn independently from Binomial(N, p)
/// (the paper sets p = 0.5, so E[m] = E[n] = N/2).
InstanceGenerator binomial_count_generator(int trials, double p = 0.5,
                                           ValueDistribution values = {});

/// Correlated-value workload (the paper's "future work": goods whose
/// values are correlated across participants).  Each instance draws one
/// common component C ~ U[low, high]; every valuation is
/// (1 - rho) * private + rho * C with private ~ U[low, high].  rho = 0 is
/// the standard private-value model; rho = 1 is pure common value.
/// TPD's incentive guarantees are distribution-free, but a *fixed*
/// threshold suffers: the clearing region now moves with C each round
/// (see bench/threshold_optimizer's correlated rows).
InstanceGenerator correlated_value_generator(std::size_t buyers,
                                             std::size_t sellers, double rho,
                                             ValueDistribution values = {});

}  // namespace fnda
