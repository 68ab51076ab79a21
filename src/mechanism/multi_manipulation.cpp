#include "mechanism/multi_manipulation.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/worker_pool.h"
#include "core/instance.h"

namespace fnda {
namespace {

constexpr std::uint64_t kManipulatorBase = 5'000'000;

/// Sum of the `count` highest entries of a non-increasing schedule.
double top_values(const std::vector<Money>& schedule, std::size_t count) {
  double total = 0.0;
  for (std::size_t l = 0; l < std::min(count, schedule.size()); ++l) {
    total += schedule[l].to_double();
  }
  return total;
}

}  // namespace

MultiDeviationEvaluator::MultiDeviationEvaluator(
    const TpdMultiUnitProtocol& protocol, MultiUnitInstance instance,
    MultiManipulatorSpec manipulator, UtilityModel penalty_model,
    std::uint64_t seed)
    : protocol_(protocol),
      instance_(std::move(instance)),
      manipulator_(manipulator),
      penalty_model_(penalty_model),
      seed_(seed) {
  const auto& schedules = manipulator_.role == Side::kBuyer
                              ? instance_.buyer_schedules
                              : instance_.seller_schedules;
  if (manipulator_.index >= schedules.size()) {
    throw std::out_of_range("MultiDeviationEvaluator: manipulator index");
  }
  true_schedule_ = schedules[manipulator_.index];
}

double MultiDeviationEvaluator::evaluate(const MultiStrategy& strategy) const {
  MultiUnitBook book;
  for (std::size_t b = 0; b < instance_.buyer_schedules.size(); ++b) {
    if (manipulator_.role == Side::kBuyer && manipulator_.index == b) continue;
    book.add_buyer(IdentityId{b}, instance_.buyer_schedules[b]);
  }
  for (std::size_t s = 0; s < instance_.seller_schedules.size(); ++s) {
    if (manipulator_.role == Side::kSeller && manipulator_.index == s) {
      continue;
    }
    book.add_seller(IdentityId{kSellerIdentityBase + s},
                    instance_.seller_schedules[s]);
  }
  std::vector<IdentityId> own;
  for (std::size_t d = 0; d < strategy.declarations.size(); ++d) {
    const IdentityId identity{kManipulatorBase + d};
    own.push_back(identity);
    if (strategy.declarations[d].side == Side::kBuyer) {
      book.add_buyer(identity, strategy.declarations[d].schedule);
    } else {
      book.add_seller(identity, strategy.declarations[d].schedule);
    }
  }

  Rng rng(seed_);
  const MultiUnitOutcome outcome = protocol_.clear(book, rng);

  std::size_t bought = 0;
  std::size_t sold = 0;
  double paid = 0.0;
  double received = 0.0;
  for (IdentityId identity : own) {
    if (const auto* buyer = outcome.buyer(identity)) {
      bought += buyer->units;
      paid += buyer->total_paid.to_double();
    }
    if (const auto* seller = outcome.seller(identity)) {
      sold += seller->units;
      received += seller->total_received.to_double();
    }
  }

  const std::size_t endowment =
      manipulator_.role == Side::kSeller ? true_schedule_.size() : 0;
  const std::size_t failed = sold > endowment ? sold - endowment : 0;
  const std::size_t delivered = sold - failed;

  // Goods value: holdings are the endowment plus purchases minus
  // deliveries; marginal value of the h-th unit held is the schedule's
  // h-th entry (0 beyond it).
  const std::size_t holdings = endowment + bought - delivered;
  const double goods_value = top_values(true_schedule_, holdings);
  const double endowment_value = top_values(true_schedule_, endowment);

  return goods_value - endowment_value - paid + received -
         penalty_model_.penalty().to_double() * static_cast<double>(failed);
}

double MultiDeviationEvaluator::truthful_utility() const {
  return evaluate(MultiStrategy::truthful(manipulator_.role, true_schedule_));
}

namespace {

std::vector<Money> scaled_schedule(const std::vector<Money>& values,
                                   double factor) {
  std::vector<Money> out;
  out.reserve(values.size());
  for (Money v : values) {
    out.push_back(Money::from_micros(std::max<std::int64_t>(
        0, static_cast<std::int64_t>(static_cast<double>(v.micros()) *
                                     factor))));
  }
  return out;
}

/// Champion of one contiguous mask range, with a range-local incumbent
/// seeded from max(truthful, withholding) so which strategy wins does not
/// depend on what other ranges found — the merge in range order then
/// reproduces the serial first-strict-improvement scan exactly.
struct MaskRangeOutcome {
  bool has_best = false;
  double best_utility = 0.0;
  MultiStrategy best_strategy;
  std::size_t evaluated = 0;
};

void search_mask_range(const MultiDeviationEvaluator& evaluator,
                       const std::vector<double>& shade_factors,
                       double base_utility, std::uint32_t mask_begin,
                       std::uint32_t mask_end, MaskRangeOutcome* out) {
  const std::vector<Money>& schedule = evaluator.true_schedule();
  const std::size_t units = schedule.size();
  const Side role = evaluator.role();
  double incumbent = base_utility;

  // Every assignment of the schedule's units to identities A/B (bit mask),
  // with every shading factor pair.  Mask 0 keeps one identity (covers
  // pure shading and unit withholding via subset masks below).
  for (std::uint32_t mask = mask_begin; mask < mask_end; ++mask) {
    std::vector<Money> a;
    std::vector<Money> b;
    for (std::size_t u = 0; u < units; ++u) {
      ((mask >> u) & 1u ? b : a).push_back(schedule[u]);
    }
    for (double fa : shade_factors) {
      for (double fb : shade_factors) {
        MultiStrategy strategy;
        if (!a.empty()) {
          strategy.declarations.push_back(
              MultiDeclaration{role, scaled_schedule(a, fa)});
        }
        if (!b.empty()) {
          strategy.declarations.push_back(
              MultiDeclaration{role, scaled_schedule(b, fb)});
        }
        if (strategy.declarations.empty()) continue;
        ++out->evaluated;
        const double utility = evaluator.evaluate(strategy);
        if (utility > incumbent) {
          incumbent = utility;
          out->has_best = true;
          out->best_utility = utility;
          out->best_strategy = std::move(strategy);
        }
        if (b.empty()) break;  // fb is irrelevant without a B identity
      }
      if (a.empty()) break;
    }
  }
}

}  // namespace

MultiSearchResult find_best_multi_deviation(
    const MultiDeviationEvaluator& evaluator,
    const MultiSearchConfig& config) {
  const auto started = std::chrono::steady_clock::now();
  MultiSearchResult result;
  result.truthful_utility = evaluator.truthful_utility();
  result.best_utility = result.truthful_utility;
  result.best_strategy = MultiStrategy::truthful(
      evaluator.role(), evaluator.true_schedule());

  // Withholding entirely (the serial order's first candidate).
  ++result.strategies_evaluated;
  {
    const double utility = evaluator.evaluate(MultiStrategy{});
    if (utility > result.best_utility) {
      result.best_utility = utility;
      result.best_strategy = MultiStrategy{};
    }
  }

  const std::size_t units = evaluator.true_schedule().size();
  const std::uint32_t masks =
      units == 0 ? 1u : (1u << static_cast<std::uint32_t>(units));

  // Deterministic contiguous mask ranges (at most 64), handed out in
  // range order by a call-local WorkerPool.  `evaluate` builds all its
  // state locally, so sharing the evaluator read-only across threads is
  // safe.
  const std::uint32_t range_count = std::min<std::uint32_t>(64, masks);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  ranges.reserve(range_count);
  for (std::uint32_t r = 0; r < range_count; ++r) {
    const std::uint32_t begin =
        static_cast<std::uint32_t>((static_cast<std::uint64_t>(masks) * r) /
                                   range_count);
    const std::uint32_t end = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(masks) * (r + 1)) / range_count);
    if (begin < end) ranges.emplace_back(begin, end);
  }

  std::vector<MaskRangeOutcome> outcomes(ranges.size());
  WorkerPool pool(std::min(resolve_threads(config.threads), ranges.size()));
  const double base_utility = result.best_utility;
  pool.run_blocks(ranges.size(), [&](std::size_t r, std::size_t) {
    search_mask_range(evaluator, config.shade_factors, base_utility,
                      ranges[r].first, ranges[r].second, &outcomes[r]);
  });

  for (const MaskRangeOutcome& range : outcomes) {
    result.strategies_evaluated += range.evaluated;
    if (range.has_best && range.best_utility > result.best_utility) {
      result.best_utility = range.best_utility;
      result.best_strategy = range.best_strategy;
    }
  }
  result.stats.strategies_enumerated = result.strategies_evaluated;
  result.stats.strategies_evaluated = result.strategies_evaluated;
  result.stats.clears_performed = result.strategies_evaluated;
  result.stats.threads_used = pool.lanes();
  result.stats.wall_time_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  return result;
}

}  // namespace fnda
