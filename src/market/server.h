// The call-market auction server.
//
// Lifecycle per round (all on the simulated clock):
//   open_round()     broadcast RoundOpen, start accepting SubmitBid
//   ...              validate each bid: round open, identity fresh this
//                    round, deposit posted, value in domain; ack/nack
//   close time       build the order book, clear with the configured
//                    protocol, validate invariants, notify fills,
//                    broadcast RoundClosed, settle (deliveries, penalty
//                    confiscations), notify settled sellers
//
// The server sees identities only; it never consults the identity
// registry for ownership — that happens inside settlement, exactly as in
// the paper's model.  Every round stores its book and clearing seed, so
// any outcome can be replayed bit-for-bit for audit.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/live_book.h"
#include "core/protocol.h"
#include "core/validation.h"
#include "market/audit.h"
#include "market/bus.h"
#include "market/settlement.h"
#include "obs/telemetry.h"

namespace fnda {

struct ServerConfig {
  /// Minimum escrowed deposit for an identity's bid to be accepted.
  Money min_deposit = Money::from_units(10);
  /// Valuation domain enforced on declarations.
  ValueDomain domain{};
  /// Re-broadcast the round-open announcement at this interval while the
  /// round is accepting bids (zero disables).  Lossy transports drop the
  /// first announcement for some clients; the heartbeat reaches them, and
  /// clients deduplicate rounds they have already bid in.
  SimTime announce_interval{0};
  /// Completed rounds retained for outcome_of/settlement_of/replay_round
  /// (0 = unbounded).  Million-round sessions set this so books and
  /// outcomes don't accumulate forever; the audit log keeps every round's
  /// entries regardless.
  std::size_t retained_rounds = 0;

  bool operator==(const ServerConfig&) const = default;
};

class AuctionServer : public Endpoint {
 public:
  AuctionServer(std::string address, EventQueue& queue, MessageBus& bus,
                const DoubleAuctionProtocol& protocol, EscrowService& escrow,
                SettlementEngine& settlement, AuditLog& audit, Rng rng,
                ServerConfig config = {});

  /// Registers a client address for round-open/round-closed broadcasts.
  void subscribe(AddressId address);

  /// Swaps the clearing protocol for subsequent rounds (e.g. a TPD with a
  /// re-tuned threshold).  `protocol` must outlive the server.  Throws
  /// std::logic_error while a round is open — the protocol in force when
  /// a round opened is the one that clears it.
  void set_protocol(const DoubleAuctionProtocol& protocol);

  /// Replaces the server config for subsequent rounds (the runtime-config
  /// seam: the exchange pushes RuntimeConfig::active() here at round
  /// boundaries).  Throws std::logic_error while a round is open — the
  /// config in force when a round opened governs it.
  void set_config(const ServerConfig& config);
  const ServerConfig& config() const { return config_; }

  /// Opens a new round that closes `open_for` from now.  Only one round
  /// may be open at a time (throws std::logic_error otherwise).
  RoundId open_round(SimTime open_for);

  void on_message(const Envelope& envelope) override;
  /// Validates a same-instant volley of submissions in one pass: escrow
  /// lookups are reused across a retransmission run and the book grows
  /// once.
  void on_batch(const Envelope* const* envelopes, std::size_t count) override;
  /// A transport duplicate's second copy: ignored, so every submission is
  /// admitted (or rejected, with one ack) exactly once.
  void on_repeat(const Envelope&) override {}
  /// The round-close and heartbeat timers.  Each carries its round id and
  /// does nothing unless that round is still the open one.
  void on_timer(const Timer& timer) override;

  const std::string& address() const { return address_; }
  AddressId address_id() const { return address_id_; }

  /// Completed-round views (nullptr/nullopt for unknown or open rounds).
  const Outcome* outcome_of(RoundId round) const;
  const SettlementReport* settlement_of(RoundId round) const;

  /// The ranked view a completed round cleared from (tie order frozen) —
  /// the cheap snapshot the adversarial co-simulation plans against; no
  /// re-sort, the lanes already exist.  nullptr for unknown/evicted
  /// rounds.
  const SortedBook* ranked_of(RoundId round) const;

  /// Close time of the currently open round (nullopt when none is open).
  /// Lets a co-simulation bound a partial drive strictly before the
  /// round's clearing event.
  std::optional<SimTime> round_closes_at() const;

  /// Re-clears a completed round from its retained ranked view and the
  /// post-ranking RNG state; returns the recomputed outcome for
  /// comparison against the stored one.  No sort work: the ranking was
  /// frozen (footnote-5 tie-breaking included) when the round cleared.
  std::optional<Outcome> replay_round(RoundId round) const;

  /// Rounds cleared over the server's lifetime (not capped by
  /// retained_rounds).
  std::size_t rounds_completed() const { return completed_count_; }
  /// Most recently completed round still retained (nullopt before the
  /// first clear) — what `book dump` ranks from.
  std::optional<RoundId> latest_round() const {
    if (completion_order_.empty()) return std::nullopt;
    return completion_order_.back();
  }
  bool round_open() const { return open_round_.has_value(); }

  /// Cumulative incremental-ranking work counters across all rounds
  /// (galloping inserts, entries shifted, tie-run fixups; sorts_at_close
  /// stays 0 — the claim the bench and tests pin).
  const LiveBookStats& book_stats() const { return live_book_.stats(); }

  /// Wires the server into its shard's telemetry: the LiveBookStats
  /// counters surface as callback metrics, rounds-closed becomes a
  /// counter, per-round bid/trade sizes become sim-deterministic
  /// histograms, and clear_round gains a trace span (plus a wall-clock
  /// round-close latency histogram when the session runs in wallclock
  /// mode).
  void bind_telemetry(obs::ShardTelemetry& telemetry,
                      const obs::SessionTelemetry& session);

 private:
  struct SubmittedBid {
    AddressId reply_to;
    Side side;
    Money value;
  };

  /// Open-addressing identity -> declaration table for the open round.
  /// The round lifecycle only ever probes (find), inserts, and reads
  /// size() — iteration order is never used — so flat linear-probed slots
  /// replace a per-round unordered_map and its node allocations.  Both
  /// slot vectors keep their capacity across rounds: reset refills the
  /// live one, and growing rehashes into the spare and swaps.
  class SubmittedTable {
   public:
    /// Empties the table, sized for `expected_entries` at <= 50% load.
    void reset(std::size_t expected_entries);
    const SubmittedBid* find(IdentityId identity) const;
    /// `identity` must not be present (callers probe first).
    void insert(IdentityId identity, const SubmittedBid& bid);
    std::size_t size() const { return size_; }

   private:
    struct Slot {
      std::uint64_t key;  ///< IdentityId value; kEmptyKey marks a free slot
      SubmittedBid bid;
    };
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    std::size_t probe(std::uint64_t key) const {
      // Fibonacci hash of the identity: identities are dense small ints,
      // so multiply-shift spreads them across the table.
      return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                      shift_) &
             mask_;
    }
    /// Fills `slots` with `capacity` (a power of two) free slots and
    /// re-derives the probe geometry.
    void empty_into(std::vector<Slot>& slots, std::size_t capacity);
    void grow();

    std::vector<Slot> slots_;
    std::vector<Slot> spare_;  ///< rehash target; empty until a grow
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
  };

  struct OpenRound {
    RoundId id;
    SimTime close_at;
    /// When the round opened — the start of the per-round trace span.
    SimTime opened_at;
    /// The round's book lives in the server's persistent LiveBook
    /// (`live_book_`), reset at open_round so its buffers survive across
    /// rounds; accepted bids are galloping-inserted there at their rank.
    std::uint64_t clear_seed = 0;
  };
  struct CompletedRound {
    RoundId id;
    /// The ranked view the round cleared from, tie-breaking frozen — the
    /// retained replay/audit artifact (the raw book in rank order).
    SortedBook ranked;
    std::uint64_t clear_seed = 0;
    /// RNG state after the footnote-5 ranking draws; replay hands this to
    /// clear_sorted so protocol-internal randomness replays exactly.
    Rng replay_rng{0};
    /// The protocol that cleared this round (set_protocol may have
    /// changed the active one since); replay must use this.
    const DoubleAuctionProtocol* protocol = nullptr;
    Outcome outcome;
    SettlementReport settlement;
  };

  /// Escrow-lookup cache shared across one delivery batch; consecutive
  /// submissions from the same identity (a retransmission volley) probe
  /// escrow once.
  struct EscrowCache {
    IdentityId identity = IdentityId::invalid();
    Money held{};
  };

  void handle_submit(const Envelope& envelope, const SubmitBidMsg& msg,
                     EscrowCache& cache);
  void announce_round(const OpenRound& round);
  void schedule_announcements(RoundId id);
  void clear_round();
  void reject(const Envelope& envelope, const SubmitBidMsg& msg,
              RejectReason reason);

  std::string address_;
  AddressId address_id_;
  EventQueue& queue_;
  MessageBus& bus_;
  const DoubleAuctionProtocol* protocol_;
  EscrowService& escrow_;
  SettlementEngine& settlement_;
  AuditLog& audit_;
  Rng rng_;
  ServerConfig config_;

  std::vector<AddressId> subscribers_;
  std::optional<OpenRound> open_round_;
  /// Incrementally ranked book of the open round; buffers persist across
  /// rounds, so a warm server's submission path never allocates.
  LiveBook live_book_;
  /// Accepted declaration per identity in the current round: reply
  /// address for fill notices plus the declaration itself, so an
  /// identical retransmission can be acked idempotently (at-least-once
  /// clients retry until acked).  Reset at open_round; clear_round reads
  /// the cleared round's entries strictly before the next open.
  SubmittedTable submitted_;
  /// Outcome-validation lookup lanes, reused every round.
  ValidationScratch validation_scratch_;
  /// Bid count of the most recent round — the next round's table sizing
  /// hint, so steady-state rounds never rehash mid-round.
  std::size_t last_round_bids_ = 0;
  std::unordered_map<RoundId, CompletedRound> completed_;
  /// Completion order, for retained_rounds eviction (oldest first).
  std::deque<RoundId> completion_order_;
  std::size_t completed_count_ = 0;
  std::uint64_t next_round_ = 0;

  // Telemetry (null until bind_telemetry; clear_round guards on them).
  const obs::SessionTelemetry* session_telemetry_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  obs::Histogram* round_bids_hist_ = nullptr;
  obs::Histogram* round_trades_hist_ = nullptr;
  obs::Histogram* round_close_wall_hist_ = nullptr;  // wallclock mode only
};

}  // namespace fnda
