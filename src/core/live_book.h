// Incrementally ranked order book for continuously clearing markets.
//
// A LiveBook keeps the buyer and seller lanes in protocol rank order at
// all times — buyers descending, sellers ascending, equal-value runs in
// arrival order — by galloping-inserting each accepted declaration.  At
// round close the book is already ranked, so clearing pays zero sort
// work; only the paper's footnote-5 random tie-breaking remains, applied
// by `finalize_ties` as per-run fixups that consume exactly the RNG draws
// `SortedBook::rebuild` would have made.  The resulting ranking — and the
// post-ranking RNG state handed to the protocol — are therefore
// bit-identical to the shuffle+stable-sort path, which is the market
// server's replay/audit contract.
//
// Storage is a chunked structure-of-arrays gap buffer.  Each lane is a
// sequence of fixed-capacity chunks holding parallel `value[]` /
// `identity[]` / `bid[]` / `arrival[]` arrays; concatenating the chunks'
// live prefixes yields the ranked lane.  An insert binary-searches the
// per-chunk last values to pick its chunk, binary-searches inside the
// chunk, and memmoves only that chunk's dense POD tail — O(chunk), not
// O(n), so a 4096-bid round shifts ~64 slots per insert instead of ~2048
// fat entries.  A full chunk splits in half (per-chunk slack is how the
// gap buffer absorbs clustered arrivals); an append past the last chunk
// opens a fresh one with zero moves.  `entries_shifted` counts exactly
// the slots memmoved to open insert slots; split moves are visible
// separately as `chunk_splits` (each split relocates kChunkCapacity/2
// entries).  At finalize the chunks are compacted into dense entry lanes
// once, and the footnote-5 fixups run on those — the close-time cost is
// one linear pass, never a sort.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/order_book.h"

namespace fnda {

/// Work counters for the incremental engine, cumulative across rounds.
/// `sorts_at_close` exists to make the "zero sort work at round close"
/// claim observable next to the shift/fixup work actually done; the
/// incremental engine never increments it.
struct LiveBookStats {
  std::uint64_t inserts = 0;            ///< declarations galloping-inserted
  std::uint64_t entries_shifted = 0;    ///< entries memmoved to open slots
  std::uint64_t rounds_finalized = 0;   ///< finalize_ties calls
  std::uint64_t tie_entries_permuted = 0;  ///< entries in reordered tie runs
  std::uint64_t sorts_at_close = 0;     ///< always 0 for LiveBook
  /// Full chunks split in half to admit an insert; each split relocates
  /// exactly kChunkCapacity/2 entries to a fresh chunk (accounted here,
  /// not in entries_shifted, so shift counts stay exact per layout).
  std::uint64_t chunk_splits = 0;

  void merge(const LiveBookStats& other) {
    inserts += other.inserts;
    entries_shifted += other.entries_shifted;
    rounds_finalized += other.rounds_finalized;
    tie_entries_permuted += other.tie_entries_permuted;
    sorts_at_close += other.sorts_at_close;
    chunk_splits += other.chunk_splits;
  }

  bool operator==(const LiveBookStats&) const = default;
};

/// Mutable rank-ordered collection of declarations for one clearing round.
///
/// Drop-in replacement for the OrderBook held by an open round: `add` has
/// the same signature, id assignment, and domain validation, but the lanes
/// it maintains are the *ranked* lanes a SortedBook would produce (modulo
/// tie-breaking, frozen at `finalize_ties`).  `reset` starts a new round
/// while keeping every buffer's capacity — chunks are pooled, the dense
/// caches keep their capacity — so a warm server allocates nothing per
/// round on the submission path.
class LiveBook {
 public:
  /// Entries per chunk.  Inserts memmove at most this many slots; splits
  /// copy exactly half.  4096-bid lanes span ~32 chunks (~3 KiB each).
  static constexpr std::size_t kChunkCapacity = 128;

  explicit LiveBook(ValueDomain domain = {});

  /// Starts a new round over `domain`; capacity is retained, bid ids
  /// restart at 0 (ids are book-unique, matching OrderBook::add).
  void reset(ValueDomain domain);

  /// Records a declaration at its rank and returns its book-unique id.
  /// Values outside the domain are rejected with std::invalid_argument.
  /// Must not be called after finalize_ties (until the next reset).
  BidId add(Side side, IdentityId identity, Money value);
  BidId add_buyer(IdentityId identity, Money value) {
    return add(Side::kBuyer, identity, value);
  }
  BidId add_seller(IdentityId identity, Money value) {
    return add(Side::kSeller, identity, value);
  }

  /// Applies the paper's footnote-5 random tie-breaking to the ranked
  /// lanes.  Consumes from `rng` exactly the draws SortedBook::rebuild
  /// makes (one full Fisher-Yates pass per side, buyers first), so the
  /// final ranking AND the rng state afterwards are bit-identical to
  /// `SortedBook(book, rng)` over the same declarations — any protocol
  /// randomness drawn next sees an unshifted stream.
  void finalize_ties(Rng& rng);

  std::size_t buyer_count() const { return buyer_lane_.size; }
  std::size_t seller_count() const { return seller_lane_.size; }
  const ValueDomain& domain() const { return domain_; }
  bool finalized() const { return finalized_; }

  /// Ranked lanes (ties in arrival order until finalize_ties freezes the
  /// footnote-5 permutation).  Materialized lazily from the chunked
  /// storage into persistent-capacity dense buffers; cheap to call
  /// repeatedly between mutations, O(n) after an add.
  const std::vector<BidEntry>& ranked_buyers() const;
  const std::vector<BidEntry>& ranked_sellers() const;

  /// A SortedBook over the current ranking (finalize_ties first for the
  /// footnote-5 contract).  `to_sorted` allocates a fresh book — use it
  /// for views that outlive the round; `emit` reuses `out`'s buffers for
  /// per-round scratch.
  SortedBook to_sorted() const;
  void emit(SortedBook& out) const;

  /// Cumulative work counters (survive reset; see LiveBookStats).
  const LiveBookStats& stats() const { return stats_; }

 private:
  /// One fixed-capacity block of the gap buffer, structure-of-arrays:
  /// shifting a tail touches four dense POD ranges instead of 24-byte
  /// entries, and the value lane alone feeds the rank searches.
  struct Chunk {
    std::array<std::int64_t, kChunkCapacity> value;     // Money micros
    std::array<std::uint64_t, kChunkCapacity> identity;
    std::array<std::uint32_t, kChunkCapacity> bid;      // round-local ids
    std::array<std::uint32_t, kChunkCapacity> arrival;  // per-side sequence
    std::uint32_t count = 0;
  };

  struct Lane {
    std::vector<std::unique_ptr<Chunk>> chunks;
    /// chunk_last[c] mirrors chunks[c]->value[count - 1]: the dense array
    /// the chunk-selection binary search runs over.
    std::vector<std::int64_t> chunk_last;
    std::size_t size = 0;
  };

  void insert(Lane& lane, bool descending, BidId id, IdentityId identity,
              std::int64_t value);
  /// Splits full chunk `c` in half, moving the upper half to a fresh
  /// chunk at c + 1.
  void split_chunk(Lane& lane, std::size_t c);
  std::unique_ptr<Chunk> take_chunk();
  void retire_lane(Lane& lane);
  void materialize(const Lane& lane, std::vector<BidEntry>& entries,
                   std::vector<std::uint32_t>& arrival) const;
  void fix_ties(std::vector<BidEntry>& lane,
                std::vector<std::uint32_t>& arrival, Rng& rng);

  ValueDomain domain_;
  Lane buyer_lane_;   ///< descending by value
  Lane seller_lane_;  ///< ascending by value
  /// Retired chunks, reused across rounds (capacity survives reset).
  std::vector<std::unique_ptr<Chunk>> chunk_pool_;

  /// Dense AoS views of the chunked lanes, materialized on demand (and
  /// always at finalize, which then runs the tie fixups on them).  The
  /// vectors keep their capacity across rounds.
  mutable std::vector<BidEntry> buyers_;
  mutable std::vector<BidEntry> sellers_;
  mutable std::vector<std::uint32_t> buyer_arrival_;
  mutable std::vector<std::uint32_t> seller_arrival_;
  mutable bool buyers_current_ = false;
  mutable bool sellers_current_ = false;

  /// finalize_ties scratch (reused across rounds).
  std::vector<std::uint32_t> perm_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint64_t> run_keys_;
  std::vector<BidEntry> run_scratch_;
  std::uint64_t next_bid_ = 0;
  bool finalized_ = false;
  LiveBookStats stats_;
};

}  // namespace fnda
