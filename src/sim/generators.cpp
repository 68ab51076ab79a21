#include "sim/generators.h"

namespace fnda {
namespace {

/// Draws `buyers` then `sellers` values over `into`, reusing its vectors.
void draw(std::size_t buyers, std::size_t sellers,
          const ValueDistribution& values, Rng& rng,
          SingleUnitInstance& into) {
  into.domain = values.domain;
  into.buyer_values.resize(buyers);
  into.seller_values.resize(sellers);
  for (Money& value : into.buyer_values) {
    value = rng.uniform_money(values.low, values.high);
  }
  for (Money& value : into.seller_values) {
    value = rng.uniform_money(values.low, values.high);
  }
}

}  // namespace

InstanceGenerator fixed_count_generator(std::size_t buyers,
                                        std::size_t sellers,
                                        ValueDistribution values) {
  return InstanceGenerator(
      [buyers, sellers, values](Rng& rng, SingleUnitInstance& into) {
        draw(buyers, sellers, values, rng, into);
      });
}

InstanceGenerator correlated_value_generator(std::size_t buyers,
                                             std::size_t sellers, double rho,
                                             ValueDistribution values) {
  return InstanceGenerator([buyers, sellers, rho, values](
                               Rng& rng, SingleUnitInstance& into) {
    const double common =
        rng.uniform_double(values.low.to_double(), values.high.to_double());
    auto draw_value = [&] {
      const double priv =
          rng.uniform_double(values.low.to_double(), values.high.to_double());
      return Money::from_double((1.0 - rho) * priv + rho * common);
    };
    into.domain = values.domain;
    into.buyer_values.resize(buyers);
    into.seller_values.resize(sellers);
    for (Money& value : into.buyer_values) value = draw_value();
    for (Money& value : into.seller_values) value = draw_value();
  });
}

InstanceGenerator binomial_count_generator(int trials, double p,
                                           ValueDistribution values) {
  return InstanceGenerator(
      [trials, p, values](Rng& rng, SingleUnitInstance& into) {
        const auto buyers = static_cast<std::size_t>(rng.binomial(trials, p));
        const auto sellers = static_cast<std::size_t>(rng.binomial(trials, p));
        draw(buyers, sellers, values, rng, into);
      });
}

}  // namespace fnda
