// TPD with Bailey-Cavallo-style revenue rebates — a deliberate NEGATIVE
// result.
//
// Section 8 names TPD's main limitation: the auctioneer's revenue "is not
// desirable for the participants".  The textbook remedy is to rebate the
// revenue back: pay each participant 1/N of the revenue the mechanism
// would have collected WITHOUT that participant (so the rebate never
// depends on one's own declaration, preserving truthfulness for a fixed
// set of identities).
//
// In the false-name setting this repair is poisoned: identities are free,
// and every extra identity collects its own rebate share.  A participant
// can mint pseudonyms that bid nothing competitive and simply milk the
// rebate pool.  The tests demonstrate both halves: misreport-IC is
// preserved, false-name-proofness is destroyed — a concrete illustration
// of why the paper keeps the revenue with the auctioneer.
#pragma once

#include "core/protocol.h"

namespace fnda {

class TpdWithRebates final : public DoubleAuctionProtocol {
 public:
  explicit TpdWithRebates(Money threshold);

  std::string name() const override { return "tpd-rebate"; }

  /// Fast position path: TPD trades via rank statistics plus each own
  /// identity's rebate recovered by rank arithmetic instead of the
  /// O(n log n) remove-and-reclear that `clear_sorted` performs per
  /// identity.  Rebates land in `AccountFills::received`, mirroring how
  /// `Outcome::rebate_of` folds into the serial evaluator's position.
  /// No `price_bracket` override: rebate income scales with the whole
  /// book's revenue and has no cheap upper bound, so an "exact" bracket
  /// would be unsound for utility pruning — better to advertise none.
  bool account_position(const SortedBook& ranked,
                        const std::vector<OwnDeclaration>& own,
                        AccountFills* out) const override;

  Money threshold() const { return threshold_; }

 private:
  /// TPD clearing plus rebates: participant identity i receives
  /// R(-i) / N, where R(-i) is the TPD auctioneer revenue with i's
  /// declaration removed (same threshold) and N is the number of
  /// participating identities.  Rebates can exceed the collected revenue
  /// on some books, so outcomes may run a deficit — validate with
  /// ValidationOptions{.allow_deficit = true}.  Both the trades and the
  /// rebates are functions of the ranking alone, so this rides the
  /// sort-once fast path; `clear` is the inherited wrapper.
  void fill(const SortedBook& book, Rng& rng, Outcome& out) const override;

  Money threshold_;
};

}  // namespace fnda
