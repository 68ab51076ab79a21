// Trading clients.
//
// A trader is one *account* pursuing one strategy.  On every round-open
// broadcast it mints a fresh identity per declaration (false names are
// free), posts the required deposit, and submits its bids over the bus.
// Truthful traders have a single own-side declaration; attackers carry
// whatever Strategy they were configured with.
//
// The traders of one shard live in a TraderPopulation: one bus endpoint
// holding every trader's state in dense storage indexed by a trader slot.
// Each trader keeps its own bus address, so envelopes, message ids, RNG
// draws and delivery batching are exactly those of one endpoint per
// trader; the population maps the destination address back to the slot.
// TradingClient is a two-word view (population, slot) over that state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/segmented.h"
#include "market/bus.h"
#include "market/clock.h"
#include "market/escrow.h"
#include "market/identity.h"
#include "mechanism/strategy.h"
#include "mechanism/utility.h"

namespace fnda {

struct ClientConfig {
  /// Deposit posted for each freshly minted identity.
  Money deposit_per_identity = Money::from_units(10);
  /// Retransmit an unacked bid after this long; zero disables retries.
  /// The server acks identical retransmissions idempotently, so retrying
  /// over a lossy bus is safe.
  SimTime retry_interval{0};
  /// Retransmissions per bid before giving up.
  std::size_t max_retries = 3;
};

/// One flag per identity slot of a shard's IdentityLattice.
class IdentityBits {
 public:
  /// Sets the flag; returns true if it was clear.
  bool set(std::size_t slot) {
    const std::size_t word = slot >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
    if ((words_[word] & bit) != 0) return false;
    words_[word] |= bit;
    return true;
  }
  bool test(std::size_t slot) const {
    const std::size_t word = slot >> 6;
    return word < words_.size() &&
           (words_[word] >> (slot & 63) & 1) != 0;
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// A population-wide append-only column whose rows are threaded per
/// trader: each row links to the same trader's next row, so a trader's
/// rows read in append order without a per-trader container.
template <typename T>
class ThreadedColumn {
 public:
  static constexpr std::uint32_t kEnd = 0xffffffffu;

  /// One trader's rows: first, last, and how many.
  struct Thread {
    std::uint32_t head = kEnd;
    std::uint32_t tail = kEnd;
    std::uint32_t count = 0;
  };

  struct Row {
    T value;
    std::uint32_t next;
  };

  /// The rows of one thread; O(1) size(), iteration visits only them.
  class Range {
   public:
    class iterator {
     public:
      iterator(const SegmentedColumn<Row>* rows, std::uint32_t at)
          : rows_(rows), at_(at) {}
      const T& operator*() const { return (*rows_)[at_].value; }
      iterator& operator++() {
        at_ = (*rows_)[at_].next;
        return *this;
      }
      bool operator==(const iterator& other) const { return at_ == other.at_; }

     private:
      const SegmentedColumn<Row>* rows_;
      std::uint32_t at_;
    };

    Range(const SegmentedColumn<Row>& rows, Thread thread)
        : rows_(&rows), thread_(thread) {}
    iterator begin() const { return iterator(rows_, thread_.head); }
    iterator end() const { return iterator(rows_, kEnd); }
    std::size_t size() const { return thread_.count; }
    bool empty() const { return thread_.count == 0; }
    const T& back() const { return (*rows_)[thread_.tail].value; }

   private:
    const SegmentedColumn<Row>* rows_;
    Thread thread_;
  };

  void append(Thread& thread, const T& value) {
    const auto at = static_cast<std::uint32_t>(rows_.size());
    rows_.push_back(Row{value, kEnd});
    if (thread.tail == kEnd) {
      thread.head = at;
    } else {
      rows_[thread.tail].next = at;
    }
    thread.tail = at;
    ++thread.count;
  }
  Range range(Thread thread) const { return Range(rows_, thread); }

 private:
  SegmentedColumn<Row> rows_;
};

/// Every trader of one shard, as a single bus endpoint.
///
/// Handlers are idempotent on the shard's identity lattice instead of
/// deduplicating message ids per trader: an identity's ack, fill and
/// failed-settlement notice each count once (a fill and a settlement
/// notice name a single-unit identity, so the server legitimately sends
/// each at most once), and a round-open counts once per round through
/// the trader's last-round-bid word — valid because rounds open only on
/// a quiescent exchange, so announcements reach a trader in round order.
class TraderPopulation final : public Endpoint {
 public:
  TraderPopulation(EventQueue& queue, MessageBus& bus,
                   IdentityRegistry& registry, EscrowService& escrow,
                   AddressId server, ClientConfig config);

  /// Attaches a truthful trader at `address`; returns its slot.
  std::uint32_t add(const std::string& address, AccountId account,
                    Side role, Money true_value);

  void on_message(const Envelope& envelope) override;
  /// A retry timer: retransmits its bid unless it was acked or the round
  /// has closed.
  void on_timer(const Timer& timer) override;

 private:
  friend class TradingClient;

  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// The hot per-trader state, one row per slot.
  struct Trader {
    AccountId account;
    Money true_value;
    /// Heartbeats and duplicates repeat a round's announcement; a trader
    /// bids in a round at most once.
    RoundId last_round_bid = RoundId::invalid();
    AccountPosition position;
    ThreadedColumn<IdentityId>::Thread identities;
    ThreadedColumn<FillNoticeMsg>::Thread fills;
    AddressId address;
    std::uint32_t accepted = 0;
    std::uint32_t rejected = 0;
    std::uint32_t retransmissions = 0;
    std::uint32_t rounds_seen = 0;
    std::uint32_t settlement_failures = 0;
    /// Index into customs_, or kNone for a plain truthful trader.
    std::uint32_t custom = kNone;
    Side role;
  };

  /// One pending retransmission, indexed by its retry timer's word.  The
  /// row is freed when the timer fires.
  struct Retry {
    SubmitBidMsg msg;
    SimTime deadline;
    std::size_t retries_left = 0;
  };

  /// Sparse side state: only traders with a configured strategy or in
  /// deferred mode (the attackers) have an entry.
  struct Custom {
    Strategy strategy;
    bool deferred = false;
    std::optional<RoundOpenMsg> pending;
  };

  Custom& custom(std::uint32_t slot);
  std::size_t submit_pending(std::uint32_t slot);
  void on_round_open(std::uint32_t slot, const RoundOpenMsg& msg);
  void submit_round(std::uint32_t slot, const RoundOpenMsg& msg);
  void submit(std::uint32_t slot, const RoundOpenMsg& msg,
              const Declaration& declaration);
  void submit_with_retry(std::uint32_t slot, const SubmitBidMsg& msg,
                         SimTime deadline, std::size_t retries_left);
  /// The identity's lattice slot, or nullopt for an id this shard never
  /// mints (no trader here owns it).
  std::optional<std::size_t> identity_slot(IdentityId identity) const {
    return registry_.lattice().slot_of(identity);
  }

  EventQueue& queue_;
  MessageBus& bus_;
  IdentityRegistry& registry_;
  EscrowService& escrow_;
  AddressId server_;
  ClientConfig config_;

  std::vector<Trader> traders_;
  std::vector<Custom> customs_;
  std::vector<Retry> retries_;
  std::vector<std::uint32_t> free_retries_;
  /// Trader slot per bus AddressId (kNone for addresses not attached
  /// here): the population's dense address -> slot routing table.
  std::vector<std::uint32_t> slot_of_address_;
  ThreadedColumn<IdentityId> identities_;
  ThreadedColumn<FillNoticeMsg> fills_;
  /// Per identity slot: the server's ack, a fill notice, and a failed
  /// settlement have been seen.
  IdentityBits acked_;
  IdentityBits filled_;
  IdentityBits settlement_failed_;
};

/// One trader of a TraderPopulation: a view, copyable and two words wide.
class TradingClient {
 public:
  TradingClient(TraderPopulation& population, std::uint32_t slot)
      : population_(&population), slot_(slot) {}

  /// Replaces the default truthful strategy.
  void set_strategy(Strategy strategy) {
    population_->custom(slot_).strategy = std::move(strategy);
  }

  /// Deferred mode (adversarial co-simulation): round-open announcements
  /// are latched instead of answered, and the bids go out only when the
  /// scheduler calls `submit_pending()` — after it has finished planning
  /// this round's strategy against the previous round's book.  The
  /// submission path (identity minting, deposits, retries) is byte-for-
  /// byte the immediate one, just time-shifted to the caller's instant.
  void set_deferred(bool deferred) {
    population_->custom(slot_).deferred = deferred;
  }

  /// Submits the latched round's bids with the current strategy; no-op
  /// when no announcement is pending.  Returns the number of declarations
  /// submitted.
  std::size_t submit_pending() { return population_->submit_pending(slot_); }

  /// True when a round-open announcement is latched and unanswered.
  bool has_pending_round() const {
    const std::uint32_t custom = row().custom;
    return custom != TraderPopulation::kNone &&
           population_->customs_[custom].pending.has_value();
  }

  AccountId account() const { return row().account; }
  Side role() const { return row().role; }
  Money true_value() const { return row().true_value; }
  const std::string& address() const {
    return population_->bus_.name_of(row().address);
  }
  AddressId address_id() const { return row().address; }

  /// Aggregate cleared position across all of this account's identities,
  /// reconstructed from fill notices.
  AccountPosition position() const { return row().position; }

  /// Quasi-linear utility of the position as *announced* (before
  /// settlement cancellations); the exchange-level utility from ledgers is
  /// the authoritative number.
  double announced_utility(const UtilityModel& model = UtilityModel{}) const {
    return model.evaluate(row().role, row().true_value, row().position);
  }

  std::size_t bids_accepted() const { return row().accepted; }
  std::size_t bids_rejected() const { return row().rejected; }
  std::size_t retransmissions() const { return row().retransmissions; }
  std::size_t rounds_seen() const { return row().rounds_seen; }
  std::size_t settlement_failures() const {
    return row().settlement_failures;
  }
  /// Fill notices in arrival order.
  ThreadedColumn<FillNoticeMsg>::Range fills() const {
    return population_->fills_.range(row().fills);
  }
  /// Identities minted, in minting order.
  ThreadedColumn<IdentityId>::Range identities() const {
    return population_->identities_.range(row().identities);
  }

 private:
  const TraderPopulation::Trader& row() const {
    return population_->traders_[slot_];
  }

  TraderPopulation* population_;
  std::uint32_t slot_;
};

}  // namespace fnda
