#include "market/server.h"

#include <bit>
#include <stdexcept>

namespace fnda {

void AuctionServer::SubmittedTable::reset(std::size_t expected_entries) {
  // Size for a <=50% load factor at the expected population so the
  // steady state never rehashes; 64 floors the first round.
  std::size_t capacity = 64;
  while (capacity < expected_entries * 2) capacity *= 2;
  empty_into(slots_, capacity);
  size_ = 0;
}

void AuctionServer::SubmittedTable::empty_into(std::vector<Slot>& slots,
                                               std::size_t capacity) {
  slots.assign(capacity, Slot{kEmptyKey, {}});
  mask_ = capacity - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
}

const AuctionServer::SubmittedBid* AuctionServer::SubmittedTable::find(
    IdentityId identity) const {
  const std::uint64_t key = identity.value();
  for (std::size_t i = probe(key);; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.key == key) return &slot.bid;
    if (slot.key == kEmptyKey) return nullptr;
  }
}

void AuctionServer::SubmittedTable::insert(IdentityId identity,
                                           const SubmittedBid& bid) {
  if ((size_ + 1) * 2 > slots_.size()) grow();
  const std::uint64_t key = identity.value();
  for (std::size_t i = probe(key);; i = (i + 1) & mask_) {
    Slot& slot = slots_[i];
    if (slot.key == kEmptyKey) {
      slot.key = key;
      slot.bid = bid;
      ++size_;
      return;
    }
  }
}

void AuctionServer::SubmittedTable::grow() {
  empty_into(spare_, slots_.size() * 2);
  for (const Slot& slot : slots_) {
    if (slot.key == kEmptyKey) continue;
    for (std::size_t i = probe(slot.key);; i = (i + 1) & mask_) {
      if (spare_[i].key == kEmptyKey) {
        spare_[i] = slot;
        break;
      }
    }
  }
  slots_.swap(spare_);
}

AuctionServer::AuctionServer(std::string address, EventQueue& queue,
                             MessageBus& bus,
                             const DoubleAuctionProtocol& protocol,
                             EscrowService& escrow,
                             SettlementEngine& settlement, AuditLog& audit,
                             Rng rng, ServerConfig config)
    : address_(std::move(address)),
      queue_(queue),
      bus_(bus),
      protocol_(&protocol),
      escrow_(escrow),
      settlement_(settlement),
      audit_(audit),
      rng_(rng),
      config_(config) {
  address_id_ = bus_.attach(address_, *this);
}

void AuctionServer::bind_telemetry(obs::ShardTelemetry& telemetry,
                                   const obs::SessionTelemetry& session) {
  session_telemetry_ = &session;
  trace_ = &telemetry.trace;
  obs::MetricsRegistry& registry = telemetry.metrics;
  registry.counter_fn("fnda_book_inserts_total",
                      [this] { return live_book_.stats().inserts; });
  registry.counter_fn("fnda_book_entries_shifted_total",
                      [this] { return live_book_.stats().entries_shifted; });
  registry.counter_fn("fnda_book_tie_entries_permuted_total", [this] {
    return live_book_.stats().tie_entries_permuted;
  });
  registry.counter_fn("fnda_book_sorts_at_close_total",
                      [this] { return live_book_.stats().sorts_at_close; });
  registry.counter_fn("fnda_book_chunk_splits_total",
                      [this] { return live_book_.stats().chunk_splits; });
  registry.counter_fn("fnda_server_rounds_closed_total", [this] {
    return static_cast<std::uint64_t>(completed_count_);
  });
  round_bids_hist_ = &registry.histogram("fnda_server_round_bids");
  round_trades_hist_ = &registry.histogram("fnda_server_round_trades");
  if (session.wallclock()) {
    round_close_wall_hist_ =
        &registry.histogram("fnda_server_round_close_us");
  }
}

void AuctionServer::subscribe(AddressId address) {
  subscribers_.push_back(address);
}

void AuctionServer::set_protocol(const DoubleAuctionProtocol& protocol) {
  if (open_round_.has_value()) {
    throw std::logic_error(
        "AuctionServer::set_protocol: a round is open; the protocol in "
        "force at open_round() clears it");
  }
  protocol_ = &protocol;
}

void AuctionServer::set_config(const ServerConfig& config) {
  if (open_round_.has_value()) {
    throw std::logic_error(
        "AuctionServer::set_config: a round is open; the config in force "
        "at open_round() governs it");
  }
  config_ = config;
  // A tightened retention cap evicts immediately; waiting for the next
  // clear would briefly hold more rounds than the operator asked for.
  if (config_.retained_rounds > 0) {
    while (completion_order_.size() > config_.retained_rounds) {
      completed_.erase(completion_order_.front());
      completion_order_.pop_front();
    }
  }
}

RoundId AuctionServer::open_round(SimTime open_for) {
  if (open_round_.has_value()) {
    throw std::logic_error("AuctionServer: a round is already open");
  }
  const RoundId id{next_round_++};
  const SimTime close_at = queue_.now() + open_for;
  live_book_.reset(config_.domain);
  // clear_round finished reading the previous round's table, so it is
  // refilled here, sized off the last population.
  submitted_.reset(last_round_bids_);
  open_round_.emplace(OpenRound{id, close_at, queue_.now(), rng_()});
  audit_.append(queue_.now(), id, AuditDetail::round_opened());

  announce_round(*open_round_);
  schedule_announcements(id);
  queue_.schedule_timer(close_at,
                        Timer{Timer::Kind::kRoundClose, address_id_, id.value()});
  return id;
}

void AuctionServer::announce_round(const OpenRound& round) {
  for (const AddressId subscriber : subscribers_) {
    bus_.send(address_id_, subscriber, RoundOpenMsg{round.id, round.close_at});
  }
}

void AuctionServer::schedule_announcements(RoundId id) {
  if (config_.announce_interval.micros <= 0) return;
  queue_.schedule_timer(queue_.now() + config_.announce_interval,
                        Timer{Timer::Kind::kAnnounce, address_id_, id.value()});
}

void AuctionServer::on_timer(const Timer& timer) {
  if (!open_round_.has_value() || open_round_->id.value() != timer.word) {
    return;
  }
  if (timer.kind == Timer::Kind::kRoundClose) {
    clear_round();
    return;
  }
  if (queue_.now() >= open_round_->close_at) return;
  announce_round(*open_round_);
  schedule_announcements(open_round_->id);
}

void AuctionServer::on_message(const Envelope& envelope) {
  if (const auto* msg = std::get_if<SubmitBidMsg>(&envelope.payload)) {
    EscrowCache cache;
    handle_submit(envelope, *msg, cache);
  }
  // Other message kinds are client-bound; a server receiving one ignores it.
}

void AuctionServer::on_batch(const Envelope* const* envelopes,
                             std::size_t count) {
  // Same-instant volley: the escrow cache survives across the batch, so
  // a retransmission run from one identity probes escrow once.
  EscrowCache cache;
  for (std::size_t i = 0; i < count; ++i) {
    const Envelope& envelope = *envelopes[i];
    if (const auto* msg = std::get_if<SubmitBidMsg>(&envelope.payload)) {
      handle_submit(envelope, *msg, cache);
    }
  }
}

void AuctionServer::reject(const Envelope& envelope, const SubmitBidMsg& msg,
                           RejectReason reason) {
  audit_.append(queue_.now(), msg.round,
                AuditDetail::bid_rejected(msg.identity, msg.side, msg.value,
                                          reason));
  bus_.send(address_id_, envelope.from,
            BidAckMsg{msg.round, msg.identity, reason});
}

void AuctionServer::handle_submit(const Envelope& envelope,
                                  const SubmitBidMsg& msg,
                                  EscrowCache& cache) {
  if (!open_round_.has_value() || open_round_->id != msg.round) {
    reject(envelope, msg, RejectReason::kRoundNotOpen);
    return;
  }
  if (const SubmittedBid* existing = submitted_.find(msg.identity)) {
    if (existing->side == msg.side && existing->value == msg.value) {
      // Identical retransmission (at-least-once client): ack idempotently.
      bus_.send(address_id_, envelope.from,
                BidAckMsg{msg.round, msg.identity});
    } else {
      reject(envelope, msg, RejectReason::kIdentityAlreadyBid);
    }
    return;
  }
  if (msg.identity != cache.identity) {
    cache.identity = msg.identity;
    cache.held = escrow_.held(msg.identity);
  }
  if (cache.held < config_.min_deposit) {
    reject(envelope, msg, RejectReason::kInsufficientDeposit);
    return;
  }
  if (msg.value < config_.domain.lowest || msg.value > config_.domain.highest) {
    reject(envelope, msg, RejectReason::kValueOutsideDomain);
    return;
  }

  live_book_.add(msg.side, msg.identity, msg.value);
  submitted_.insert(msg.identity,
                         SubmittedBid{envelope.from, msg.side, msg.value});
  audit_.append(queue_.now(), msg.round,
                AuditDetail::bid_accepted(msg.identity, msg.side, msg.value));
  bus_.send(address_id_, envelope.from,
            BidAckMsg{msg.round, msg.identity});
}

void AuctionServer::clear_round() {
  OpenRound round = std::move(*open_round_);
  open_round_.reset();
  const std::int64_t close_wall_start =
      round_close_wall_hist_ != nullptr ? session_telemetry_->wall_micros()
                                        : 0;

  // The book is already ranked (every accepted bid was galloping-inserted
  // at its rank), so round close pays zero sort work: freeze the
  // footnote-5 tie-breaking — consuming exactly the draws the old
  // sort-at-close path made, keeping outcomes and replays bit-identical —
  // and hand the protocol the ranked view directly.
  Rng clear_rng(round.clear_seed);
  live_book_.finalize_ties(clear_rng);
  const Rng replay_rng = clear_rng;  // post-ranking stream, for replays
  SortedBook ranked = live_book_.to_sorted();
  Outcome outcome = protocol_->clear_sorted(ranked, clear_rng);
  expect_valid_outcome(ranked, outcome, validation_scratch_);
  last_round_bids_ = submitted_.size();

  audit_.append(queue_.now(), round.id,
                AuditDetail::round_cleared(outcome.trade_count(),
                                           outcome.auctioneer_revenue()));

  for (const Fill& fill : outcome.fills()) {
    const SubmittedBid* submitted = submitted_.find(fill.identity);
    if (submitted == nullptr) continue;
    bus_.send(address_id_, submitted->reply_to,
              FillNoticeMsg{round.id, fill.identity, fill.side, fill.price});
  }
  for (const AddressId subscriber : subscribers_) {
    bus_.send(address_id_, subscriber,
              RoundClosedMsg{round.id, outcome.trade_count(),
                             outcome.auctioneer_revenue()});
  }

  SettlementReport report = settlement_.settle(round.id, outcome);
  for (const Delivery& delivery : report.deliveries) {
    if (delivery.delivered) {
      audit_.append(queue_.now(), round.id,
                    AuditDetail::delivery(delivery.seller, delivery.buyer));
      continue;
    }
    audit_.append(queue_.now(), round.id,
                  AuditDetail::delivery_failed(delivery.seller));
    if (delivery.confiscated > Money{}) {
      audit_.append(queue_.now(), round.id,
                    AuditDetail::deposit_confiscated(delivery.seller,
                                                     delivery.confiscated));
    }
    const SubmittedBid* seller = submitted_.find(delivery.seller);
    if (seller != nullptr) {
      bus_.send(address_id_, seller->reply_to,
                SettlementNoticeMsg{round.id, delivery.seller, false,
                                    delivery.confiscated});
    }
  }

  const std::size_t trade_count = outcome.trade_count();
  completed_.emplace(round.id,
                     CompletedRound{round.id, std::move(ranked),
                                    round.clear_seed, replay_rng, protocol_,
                                    std::move(outcome), std::move(report)});
  completion_order_.push_back(round.id);
  ++completed_count_;
  if (config_.retained_rounds > 0) {
    while (completion_order_.size() > config_.retained_rounds) {
      completed_.erase(completion_order_.front());
      completion_order_.pop_front();
    }
  }

  if (round_bids_hist_ != nullptr) {
    round_bids_hist_->record(static_cast<std::int64_t>(submitted_.size()));
    round_trades_hist_->record(static_cast<std::int64_t>(trade_count));
    if (round_close_wall_hist_ != nullptr) {
      // Wallclock mode: the histogram carries the real clearing cost and
      // the span carries wall timestamps from the sink's session clock.
      const std::int64_t close_wall =
          session_telemetry_->wall_micros() - close_wall_start;
      round_close_wall_hist_->record(close_wall);
      trace_->record_span("clear-round", "server", close_wall_start,
                          close_wall);
    } else {
      // Sim mode: one span per round covering [opened_at, close] — a
      // deterministic timeline of the auction lifecycle.
      trace_->record_span("round", "server", round.opened_at.micros,
                          (queue_.now() - round.opened_at).micros);
    }
  }
}

const Outcome* AuctionServer::outcome_of(RoundId round) const {
  auto it = completed_.find(round);
  return it == completed_.end() ? nullptr : &it->second.outcome;
}

const SettlementReport* AuctionServer::settlement_of(RoundId round) const {
  auto it = completed_.find(round);
  return it == completed_.end() ? nullptr : &it->second.settlement;
}

const SortedBook* AuctionServer::ranked_of(RoundId round) const {
  auto it = completed_.find(round);
  return it == completed_.end() ? nullptr : &it->second.ranked;
}

std::optional<SimTime> AuctionServer::round_closes_at() const {
  if (!open_round_.has_value()) return std::nullopt;
  return open_round_->close_at;
}

std::optional<Outcome> AuctionServer::replay_round(RoundId round) const {
  auto it = completed_.find(round);
  if (it == completed_.end()) return std::nullopt;
  // The retained view is already ranked and tie-broken; resuming from the
  // post-ranking RNG state re-runs only the protocol itself, exactly as
  // the original clear did.
  Rng clear_rng = it->second.replay_rng;
  return it->second.protocol->clear_sorted(it->second.ranked, clear_rng);
}

}  // namespace fnda
