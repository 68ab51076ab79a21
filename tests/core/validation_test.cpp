#include "core/validation.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

namespace fnda {
namespace {

struct Fixture {
  OrderBook book;
  BidId buy_high, buy_low, sell_low, sell_high;

  Fixture() {
    buy_high = book.add_buyer(IdentityId{0}, money(9));
    buy_low = book.add_buyer(IdentityId{1}, money(4));
    sell_low = book.add_seller(IdentityId{10}, money(2));
    sell_high = book.add_seller(IdentityId{11}, money(8));
  }
};

TEST(ValidationTest, CleanOutcomePasses) {
  Fixture f;
  Outcome outcome;
  outcome.add_buy(f.buy_high, IdentityId{0}, money(5));
  outcome.add_sell(f.sell_low, IdentityId{10}, money(5));
  EXPECT_TRUE(validate_outcome(f.book, outcome).empty());
  EXPECT_NO_THROW(expect_valid_outcome(f.book, outcome));
}

TEST(ValidationTest, EmptyOutcomePasses) {
  Fixture f;
  EXPECT_TRUE(validate_outcome(f.book, Outcome{}).empty());
}

TEST(ValidationTest, DetectsUnbalancedUnits) {
  Fixture f;
  Outcome outcome;
  outcome.add_buy(f.buy_high, IdentityId{0}, money(5));
  const auto errors = validate_outcome(f.book, outcome);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("goods not conserved"), std::string::npos);
}

TEST(ValidationTest, DetectsUnknownBid) {
  Fixture f;
  Outcome outcome;
  outcome.add_buy(BidId{999}, IdentityId{0}, money(5));
  outcome.add_sell(f.sell_low, IdentityId{10}, money(5));
  const auto errors = validate_outcome(f.book, outcome);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("unknown"), std::string::npos);
}

TEST(ValidationTest, DetectsWrongSideFill) {
  Fixture f;
  Outcome outcome;
  // A seller bid appearing as a buy fill.
  outcome.add_buy(f.sell_low, IdentityId{10}, money(5));
  outcome.add_sell(f.sell_high, IdentityId{11}, money(8));
  const auto errors = validate_outcome(f.book, outcome);
  EXPECT_FALSE(errors.empty());
}

TEST(ValidationTest, DetectsBuyerIrViolation) {
  Fixture f;
  Outcome outcome;
  outcome.add_buy(f.buy_low, IdentityId{1}, money(6));  // declared 4, pays 6
  outcome.add_sell(f.sell_low, IdentityId{10}, money(2));
  const auto errors = validate_outcome(f.book, outcome);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("buyer IR violated"), std::string::npos);
}

TEST(ValidationTest, DetectsSellerIrViolation) {
  Fixture f;
  Outcome outcome;
  outcome.add_buy(f.buy_high, IdentityId{0}, money(9));
  outcome.add_sell(f.sell_high, IdentityId{11}, money(3));  // declared 8
  const auto errors = validate_outcome(f.book, outcome);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("seller IR violated"), std::string::npos);
}

TEST(ValidationTest, DetectsDoubleFill) {
  Fixture f;
  Outcome outcome;
  outcome.add_buy(f.buy_high, IdentityId{0}, money(5));
  outcome.add_buy(f.buy_high, IdentityId{0}, money(5));
  outcome.add_sell(f.sell_low, IdentityId{10}, money(5));
  outcome.add_sell(f.sell_high, IdentityId{11}, money(8));
  const auto errors = validate_outcome(f.book, outcome);
  bool found = false;
  for (const auto& e : errors) {
    found |= e.find("filled more than once") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(ValidationTest, DetectsIdentityMismatch) {
  Fixture f;
  Outcome outcome;
  outcome.add_buy(f.buy_high, IdentityId{77}, money(5));
  outcome.add_sell(f.sell_low, IdentityId{10}, money(5));
  const auto errors = validate_outcome(f.book, outcome);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("does not match"), std::string::npos);
}

TEST(ValidationTest, DetectsAuctioneerSubsidy) {
  Fixture f;
  Outcome outcome;
  outcome.add_buy(f.buy_high, IdentityId{0}, money(3));
  outcome.add_sell(f.sell_high, IdentityId{11}, money(9));
  const auto errors = validate_outcome(f.book, outcome);
  bool found = false;
  for (const auto& e : errors) {
    found |= e.find("subsidises") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(ValidationTest, ExpectValidThrowsWithAllViolations) {
  Fixture f;
  Outcome outcome;
  outcome.add_buy(f.buy_low, IdentityId{1}, money(6));
  try {
    expect_valid_outcome(f.book, outcome);
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("violation"), std::string::npos);
    EXPECT_NE(what.find("buyer IR"), std::string::npos);
  }
}

// --- One error list through every lookup route -----------------------------

/// The Fixture's four bids, by role, under some id assignment.
struct FixtureIds {
  BidId buy_high, buy_low, sell_low, sell_high;
};

struct ViolationCase {
  const char* kind;
  const char* marker;  ///< text the kind's error message must contain
  Outcome outcome;
};

/// One outcome per violation kind over the Fixture's bids (identities 0,
/// 1, 10, 11; values 9, 4, 2, 8).
std::vector<ViolationCase> violation_cases(const FixtureIds& ids) {
  std::vector<ViolationCase> cases;
  auto add = [&cases](const char* kind, const char* marker) -> Outcome& {
    cases.push_back(ViolationCase{kind, marker, Outcome{}});
    return cases.back().outcome;
  };
  add("unbalanced", "goods not conserved")
      .add_buy(ids.buy_high, IdentityId{0}, money(5));
  {
    Outcome& o = add("unknown bid", "unknown buyer bid");
    o.add_buy(BidId{999}, IdentityId{0}, money(5));
    o.add_sell(ids.sell_low, IdentityId{10}, money(5));
  }
  {
    Outcome& o = add("wrong side", "unknown buyer bid");
    o.add_buy(ids.sell_low, IdentityId{10}, money(5));
    o.add_sell(ids.sell_high, IdentityId{11}, money(8));
  }
  {
    Outcome& o = add("buyer IR", "buyer IR violated");
    o.add_buy(ids.buy_low, IdentityId{1}, money(6));
    o.add_sell(ids.sell_low, IdentityId{10}, money(2));
  }
  {
    Outcome& o = add("seller IR", "seller IR violated");
    o.add_buy(ids.buy_high, IdentityId{0}, money(9));
    o.add_sell(ids.sell_high, IdentityId{11}, money(3));
  }
  {
    Outcome& o = add("double fill", "filled more than once");
    o.add_buy(ids.buy_high, IdentityId{0}, money(5));
    o.add_buy(ids.buy_high, IdentityId{0}, money(5));
    o.add_sell(ids.sell_low, IdentityId{10}, money(5));
    o.add_sell(ids.sell_high, IdentityId{11}, money(8));
  }
  {
    Outcome& o = add("identity mismatch", "does not match");
    o.add_buy(ids.buy_high, IdentityId{77}, money(5));
    o.add_sell(ids.sell_low, IdentityId{10}, money(5));
  }
  {
    Outcome& o = add("subsidy", "subsidises");
    o.add_buy(ids.buy_high, IdentityId{0}, money(3));
    o.add_sell(ids.sell_high, IdentityId{11}, money(9));
  }
  return cases;
}

/// The Fixture's bids under `ids`, as ranked lanes, plus `padding`
/// never-filled sellers priced above every fill (ids 0..padding-1).
SortedBook ranked_fixture(const FixtureIds& ids, std::size_t padding = 0) {
  std::vector<BidEntry> buyers = {{ids.buy_high, IdentityId{0}, money(9)},
                                  {ids.buy_low, IdentityId{1}, money(4)}};
  std::vector<BidEntry> sellers = {{ids.sell_low, IdentityId{10}, money(2)},
                                   {ids.sell_high, IdentityId{11}, money(8)}};
  for (std::size_t k = 0; k < padding; ++k) {
    sellers.push_back({BidId{k}, IdentityId{500 + k}, money(100)});
  }
  return SortedBook::from_ranked(ValueDomain{}, std::move(buyers),
                                 std::move(sellers));
}

bool mentions(const ValidationErrors& errors, const char* marker) {
  for (const std::string& e : errors) {
    if (e.find(marker) != std::string::npos) return true;
  }
  return false;
}

/// A larger dense book and a clean outcome over it, to grow a scratch
/// past the Fixture's size before it is reused on the small books.
struct LargeBook {
  OrderBook book;
  Outcome clean;
  LargeBook() {
    for (std::size_t i = 0; i < 30; ++i) {
      book.add_buyer(IdentityId{i}, money(60));
      book.add_seller(IdentityId{100 + i}, money(40));
    }
    clean.add_buy(book.buyers()[3].id, IdentityId{3}, money(50));
    clean.add_sell(book.sellers()[7].id, IdentityId{107}, money(50));
  }
};

TEST(ValidationRoutesTest, DenseRoutesAgreeOnEveryViolationKind) {
  Fixture f;
  const FixtureIds ids{f.buy_high, f.buy_low, f.sell_low, f.sell_high};
  Rng rng(7);
  const SortedBook ranked(f.book, rng);
  const LargeBook large;
  ValidationScratch scratch;  // one scratch across books of both sizes

  for (const ViolationCase& c : violation_cases(ids)) {
    const ValidationErrors plain = validate_outcome(f.book, c.outcome);
    ASSERT_TRUE(mentions(plain, c.marker)) << c.kind;
    EXPECT_EQ(validate_outcome(ranked, c.outcome), plain) << c.kind;

    EXPECT_TRUE(validate_outcome(large.book, large.clean).empty());
    const SortedBook large_ranked(large.book, rng);
    EXPECT_TRUE(
        validate_outcome(large_ranked, large.clean, scratch).empty());
    EXPECT_EQ(validate_outcome(ranked, c.outcome, scratch), plain) << c.kind;
    EXPECT_EQ(validate_outcome(ranked, c.outcome, scratch), plain) << c.kind;
  }
}

TEST(ValidationRoutesTest, SparseIdsFallBackToHashingWithIdenticalErrors) {
  // Every id at or above 2n + 1 (n = 4 bids) is too sparse to index an
  // array, so the book takes the hashed fallback; padding the same bids
  // with five never-filled sellers makes those ids dense again.
  const FixtureIds ids{BidId{9}, BidId{10}, BidId{11}, BidId{12}};
  const SortedBook sparse = ranked_fixture(ids);
  const SortedBook dense = ranked_fixture(ids, 5);

  for (const ViolationCase& c : violation_cases(ids)) {
    ValidationScratch untouched;
    const ValidationErrors hashed =
        validate_outcome(sparse, c.outcome, untouched);
    ASSERT_TRUE(mentions(hashed, c.marker)) << c.kind;
    EXPECT_FALSE(untouched.dense()) << c.kind;  // no dense bind
    EXPECT_EQ(validate_outcome(sparse, c.outcome), hashed) << c.kind;

    ValidationScratch scratch;
    EXPECT_EQ(validate_outcome(dense, c.outcome, scratch), hashed) << c.kind;
    EXPECT_TRUE(scratch.dense()) << c.kind;  // dense bind ran
    EXPECT_EQ(validate_outcome(dense, c.outcome), hashed) << c.kind;
  }
}

}  // namespace
}  // namespace fnda
