// LiveBook: incremental ranking vs the shuffle+stable-sort reference.
//
// The load-bearing property is bit-identity: for the same arrival
// sequence and the same RNG stream, finalize_ties must produce exactly
// the ranking SortedBook's rebuild produces AND leave the rng in exactly
// the state rebuild leaves it, so every protocol — including the
// randomized ones that keep drawing from the same stream — clears to the
// same outcome.  The equivalence tests here sweep book sizes from empty
// to 2k entries, force maximal tie runs (all-equal-value books), and
// check the post-ranking rng draw alongside the outcome.
#include "core/live_book.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/instance.h"
#include "core/protocol.h"
#include "protocols/efficient.h"
#include "protocols/kda.h"
#include "protocols/pmd.h"
#include "protocols/random_threshold.h"
#include "protocols/tpd.h"
#include "protocols/tpd_rebate.h"
#include "protocols/vcg.h"

namespace fnda {
namespace {

Money money(std::int64_t units) { return Money::from_units(units); }

/// One arrival sequence fed to both book representations.
struct Arrival {
  Side side;
  IdentityId identity;
  Money value;
};

/// Random arrivals with a deliberately narrow value range so equal-value
/// runs are long (value_span == 0 makes the whole lane one tie run).
std::vector<Arrival> random_arrivals(std::size_t buyers, std::size_t sellers,
                                     std::int64_t value_span, Rng& rng) {
  std::vector<Arrival> arrivals;
  arrivals.reserve(buyers + sellers);
  for (std::size_t i = 0; i < buyers; ++i) {
    arrivals.push_back(Arrival{
        Side::kBuyer, IdentityId{i},
        money(40 + (value_span > 0
                        ? static_cast<std::int64_t>(rng.below(
                              static_cast<std::uint64_t>(value_span)))
                        : 0))});
  }
  for (std::size_t j = 0; j < sellers; ++j) {
    arrivals.push_back(Arrival{
        Side::kSeller, IdentityId{kSellerIdentityBase + j},
        money(30 + (value_span > 0
                        ? static_cast<std::int64_t>(rng.below(
                              static_cast<std::uint64_t>(value_span)))
                        : 0))});
  }
  rng.shuffle(arrivals.begin(), arrivals.end());
  return arrivals;
}

void feed(const std::vector<Arrival>& arrivals, OrderBook& book,
          LiveBook& live) {
  for (const Arrival& a : arrivals) {
    const BidId raw = book.add(a.side, a.identity, a.value);
    const BidId incremental = live.add(a.side, a.identity, a.value);
    // Ids are assigned book-uniquely in arrival order on both paths, so
    // fills referencing them are comparable entry for entry.
    ASSERT_EQ(raw, incremental);
  }
}

TEST(LiveBookTest, RankingMatchesShuffleStableSortReference) {
  Rng meta(0x11feb00c);
  const struct {
    std::size_t buyers, sellers;
    std::int64_t span;
  } shapes[] = {
      {0, 0, 10},  {1, 0, 10},  {0, 1, 10},   {1, 1, 1},
      {7, 5, 3},   {40, 40, 1}, {40, 40, 0},  {128, 100, 5},
      {500, 500, 2}, {1000, 1000, 7}, {997, 1003, 0},
  };
  for (const auto& shape : shapes) {
    for (int run = 0; run < 8; ++run) {
      const std::vector<Arrival> arrivals =
          random_arrivals(shape.buyers, shape.sellers, shape.span, meta);
      OrderBook book;
      LiveBook live;
      feed(arrivals, book, live);

      const std::uint64_t seed = meta();
      Rng reference_rng(seed);
      const SortedBook reference(book, reference_rng);
      Rng live_rng(seed);
      live.finalize_ties(live_rng);

      EXPECT_EQ(reference.buyers(), live.ranked_buyers());
      EXPECT_EQ(reference.sellers(), live.ranked_sellers());
      // Same draws consumed: the next value from either stream agrees, so
      // protocol-internal randomness downstream is unshifted.
      EXPECT_EQ(reference_rng(), live_rng());
    }
  }
}

TEST(LiveBookTest, OutcomeEquivalenceAcrossAllProtocols) {
  std::vector<ProtocolPtr> protocols;
  protocols.push_back(std::make_unique<TpdProtocol>(money(50)));
  protocols.push_back(std::make_unique<PmdProtocol>());
  protocols.push_back(std::make_unique<EfficientClearing>());
  protocols.push_back(std::make_unique<VcgDoubleAuction>());
  protocols.push_back(std::make_unique<KDoubleAuction>(0.5));
  protocols.push_back(std::make_unique<RandomThresholdProtocol>(money(50)));
  protocols.push_back(std::make_unique<TpdWithRebates>(money(50)));

  Rng meta(0xabcde);
  for (int run = 0; run < 60; ++run) {
    const std::size_t buyers = meta.below(33);
    const std::size_t sellers = meta.below(33);
    const std::int64_t span = static_cast<std::int64_t>(meta.below(4));
    const std::vector<Arrival> arrivals =
        random_arrivals(buyers, sellers, span, meta);
    OrderBook book;
    LiveBook live;
    feed(arrivals, book, live);
    const std::uint64_t seed = meta();

    Rng live_rank_rng(seed);
    live.finalize_ties(live_rank_rng);
    const SortedBook ranked = live.to_sorted();

    for (const ProtocolPtr& protocol : protocols) {
      // Seed path: rank + clear from one stream.
      Rng seed_rng(seed);
      const Outcome reference = protocol->clear(book, seed_rng);
      // Live path: the retained post-ranking stream continues into the
      // protocol, exactly as AuctionServer::clear_round does.
      Rng clear_rng = live_rank_rng;
      const Outcome incremental = protocol->clear_sorted(ranked, clear_rng);

      EXPECT_EQ(reference.fills(), incremental.fills()) << protocol->name();
      EXPECT_EQ(reference.auctioneer_revenue(),
                incremental.auctioneer_revenue())
          << protocol->name();
      // Randomized protocols must also have consumed identical draws.
      EXPECT_EQ(seed_rng(), clear_rng()) << protocol->name();
    }
  }
}

TEST(LiveBookTest, AllEqualValueBookIsOneShuffledRun) {
  // Every entry ties: the final ranking IS the footnote-5 permutation.
  OrderBook book;
  LiveBook live;
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < 64; ++i) {
    arrivals.push_back(Arrival{Side::kBuyer, IdentityId{i}, money(42)});
  }
  for (std::size_t j = 0; j < 64; ++j) {
    arrivals.push_back(
        Arrival{Side::kSeller, IdentityId{kSellerIdentityBase + j},
                money(42)});
  }
  feed(arrivals, book, live);
  Rng a(7);
  Rng b(7);
  const SortedBook reference(book, a);
  live.finalize_ties(b);
  EXPECT_EQ(reference.buyers(), live.ranked_buyers());
  EXPECT_EQ(reference.sellers(), live.ranked_sellers());
  EXPECT_EQ(a(), b());
}

TEST(LiveBookTest, RejectsValuesOutsideDomain) {
  LiveBook live(ValueDomain{money(10), money(20)});
  EXPECT_THROW(live.add_buyer(IdentityId{1}, money(9)),
               std::invalid_argument);
  EXPECT_THROW(live.add_seller(IdentityId{kSellerIdentityBase}, money(21)),
               std::invalid_argument);
  EXPECT_NO_THROW(live.add_buyer(IdentityId{1}, money(10)));
  EXPECT_NO_THROW(live.add_seller(IdentityId{kSellerIdentityBase},
                                  money(20)));
}

TEST(LiveBookTest, AddAfterFinalizeThrowsUntilReset) {
  LiveBook live;
  live.add_buyer(IdentityId{1}, money(50));
  Rng rng(3);
  live.finalize_ties(rng);
  EXPECT_TRUE(live.finalized());
  EXPECT_THROW(live.add_buyer(IdentityId{2}, money(60)), std::logic_error);
  live.reset(live.domain());
  EXPECT_FALSE(live.finalized());
  // Ids are book-unique per round: after reset they restart at 0, the
  // same contract a fresh OrderBook gives the server.
  EXPECT_EQ(live.add_buyer(IdentityId{2}, money(60)), BidId{0});
}

TEST(LiveBookTest, StatsCountWorkAndNeverSortAtClose) {
  LiveBook live;
  // Descending buyer arrivals insert at the tail (no shifts); ascending
  // arrivals insert at the head (max shifts).
  live.add_buyer(IdentityId{1}, money(90));
  live.add_buyer(IdentityId{2}, money(80));
  live.add_buyer(IdentityId{3}, money(85));  // between: shifts 1 entry
  live.add_seller(IdentityId{kSellerIdentityBase}, money(10));
  Rng rng(5);
  live.finalize_ties(rng);
  const LiveBookStats& stats = live.stats();
  EXPECT_EQ(stats.inserts, 4u);
  EXPECT_EQ(stats.entries_shifted, 1u);
  EXPECT_EQ(stats.rounds_finalized, 1u);
  EXPECT_EQ(stats.tie_entries_permuted, 0u);  // no equal-value runs
  EXPECT_EQ(stats.sorts_at_close, 0u);

  // Counters are cumulative across reset (they describe the engine, not
  // one round) and tie runs are counted when present.
  live.reset(live.domain());
  live.add_buyer(IdentityId{1}, money(70));
  live.add_buyer(IdentityId{2}, money(70));
  live.finalize_ties(rng);
  EXPECT_EQ(live.stats().inserts, 6u);
  EXPECT_EQ(live.stats().rounds_finalized, 2u);
  EXPECT_EQ(live.stats().tie_entries_permuted, 2u);
  EXPECT_EQ(live.stats().sorts_at_close, 0u);
}

TEST(LiveBookTest, MultiChunkBooksMatchReferenceAndSplitChunks) {
  // 3000/2900 entries span dozens of 128-entry chunks per lane, so every
  // insert exercises the chunk-selection search and many force splits;
  // the ranking must still match the shuffle+stable-sort reference and
  // the RNG stream must stay aligned.
  Rng meta(0x600dc0de);
  for (const std::int64_t span : {std::int64_t{0}, std::int64_t{3},
                                  std::int64_t{1000}}) {
    const std::vector<Arrival> arrivals = random_arrivals(3000, 2900, span,
                                                          meta);
    OrderBook book;
    LiveBook live;
    feed(arrivals, book, live);
    // All-equal books (span 0) append every entry at the lane tail, which
    // opens fresh chunks without ever splitting one; any value spread
    // forces mid-lane inserts and therefore splits at this size.
    if (span > 0) {
      EXPECT_GT(live.stats().chunk_splits, 0u);
    }

    const std::uint64_t seed = meta();
    Rng reference_rng(seed);
    const SortedBook reference(book, reference_rng);
    Rng live_rng(seed);
    live.finalize_ties(live_rng);
    EXPECT_EQ(reference.buyers(), live.ranked_buyers());
    EXPECT_EQ(reference.sellers(), live.ranked_sellers());
    EXPECT_EQ(reference_rng(), live_rng());
  }
}

TEST(LiveBookTest, SortedArrivalOrdersAreAdversarialButExact) {
  // Strictly ascending and strictly descending arrivals are the gap
  // buffer's worst cases: one order appends at the lane tail, the other
  // inserts at the head of the first chunk every time (maximum shifting
  // and splitting).  Both must reproduce the reference ranking exactly.
  for (const bool ascending : {false, true}) {
    OrderBook book;
    LiveBook live;
    const std::size_t n = 1500;  // ~12 chunks per lane
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t units =
          static_cast<std::int64_t>(ascending ? 10 + i : 10 + (n - 1 - i));
      const BidId raw = book.add(Side::kBuyer, IdentityId{i}, money(units));
      ASSERT_EQ(raw, live.add(Side::kBuyer, IdentityId{i}, money(units)));
      const BidId raw_s =
          book.add(Side::kSeller, IdentityId{kSellerIdentityBase + i},
                   money(units));
      ASSERT_EQ(raw_s,
                live.add(Side::kSeller, IdentityId{kSellerIdentityBase + i},
                         money(units)));
    }
    const std::uint64_t seed = 0x51517 + (ascending ? 1 : 0);
    Rng reference_rng(seed);
    const SortedBook reference(book, reference_rng);
    Rng live_rng(seed);
    live.finalize_ties(live_rng);
    EXPECT_EQ(reference.buyers(), live.ranked_buyers());
    EXPECT_EQ(reference.sellers(), live.ranked_sellers());
    EXPECT_GT(live.stats().chunk_splits, 0u);
    // Distinct values everywhere: the tie machinery must not fire.
    EXPECT_EQ(live.stats().tie_entries_permuted, 0u);
  }
}

TEST(LiveBookTest, EmitMatchesToSortedAndReusesBuffers) {
  Rng meta(0x5151);
  const std::vector<Arrival> arrivals = random_arrivals(80, 80, 2, meta);
  OrderBook book;
  LiveBook live;
  feed(arrivals, book, live);
  Rng rng(9);
  live.finalize_ties(rng);

  const SortedBook fresh = live.to_sorted();
  SortedBook scratch;
  live.emit(scratch);
  EXPECT_EQ(fresh.buyers(), scratch.buyers());
  EXPECT_EQ(fresh.sellers(), scratch.sellers());

  // A second emit into grown capacity must not reallocate the lanes.
  live.reset(live.domain());
  live.add_buyer(IdentityId{1}, money(55));
  Rng rng2(11);
  live.finalize_ties(rng2);
  const BidEntry* before = scratch.buyers().data();
  live.emit(scratch);
  EXPECT_EQ(scratch.buyers().data(), before);
  EXPECT_EQ(scratch.buyer_count(), 1u);
  EXPECT_EQ(scratch.seller_count(), 0u);
}

TEST(LiveBookTest, ResetKeepsLaneCapacity) {
  LiveBook live;
  for (std::size_t i = 0; i < 256; ++i) {
    live.add_buyer(IdentityId{i}, money(40 + static_cast<std::int64_t>(i)));
  }
  Rng rng(1);
  live.finalize_ties(rng);
  live.reset(live.domain());
  EXPECT_EQ(live.buyer_count(), 0u);
  // Warm path: refilling to the previous size must not move the lane.
  live.add_buyer(IdentityId{0}, money(41));
  const BidEntry* data = live.ranked_buyers().data();
  for (std::size_t i = 1; i < 256; ++i) {
    live.add_buyer(IdentityId{i}, money(40 + static_cast<std::int64_t>(i)));
  }
  EXPECT_EQ(live.ranked_buyers().data(), data);
}

}  // namespace
}  // namespace fnda
