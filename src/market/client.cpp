#include "market/client.h"

namespace fnda {

TradingClient::TradingClient(std::string address, AccountId account,
                             Side role, Money true_value, EventQueue& queue,
                             MessageBus& bus, IdentityRegistry& registry,
                             EscrowService& escrow,
                             std::string server_address, ClientConfig config)
    : address_(std::move(address)),
      account_(account),
      role_(role),
      true_value_(true_value),
      queue_(queue),
      bus_(bus),
      registry_(registry),
      escrow_(escrow),
      server_id_(bus.intern(server_address)),
      config_(config),
      strategy_(Strategy::truthful(role, true_value)) {
  address_id_ = bus_.attach(address_, *this);
}

void TradingClient::on_round_open(const RoundOpenMsg& msg) {
  // Heartbeat re-announcements repeat the same round; bid once per round.
  if (!rounds_bid_.insert(msg.round.value())) return;
  ++rounds_seen_;
  if (deferred_) {
    pending_ = msg;
    return;
  }
  submit_round(msg);
}

void TradingClient::submit_round(const RoundOpenMsg& msg) {
  for (const Declaration& declaration : strategy_.declarations) {
    // A fresh pseudonym per declaration per round: identities are
    // disposable in the false-name threat model.
    const IdentityId identity = registry_.register_identity(account_);
    identities_.push_back(identity);
    escrow_.post(identity, account_, config_.deposit_per_identity);
    submit_with_retry(SubmitBidMsg{msg.round, identity, declaration.side,
                                   declaration.value},
                      msg.close_at, config_.max_retries);
  }
}

std::size_t TradingClient::submit_pending() {
  if (!pending_.has_value()) return 0;
  const RoundOpenMsg msg = *pending_;
  pending_.reset();
  submit_round(msg);
  return strategy_.declarations.size();
}

void TradingClient::submit_with_retry(const SubmitBidMsg& msg,
                                      SimTime deadline,
                                      std::size_t retries_left) {
  bus_.send(address_id_, server_id_, msg);
  if (config_.retry_interval.micros <= 0 || retries_left == 0) return;
  queue_.schedule_after(config_.retry_interval, [this, msg, deadline,
                                                 retries_left] {
    if (acked_.contains(msg.identity.value())) return;
    if (queue_.now() >= deadline) return;  // round closed; no point
    ++retransmissions_;
    submit_with_retry(msg, deadline, retries_left - 1);
  });
}

void TradingClient::on_message(const Envelope& envelope) {
  if (!dedup_.fresh(envelope.id)) return;
  struct Visitor {
    TradingClient& self;
    void operator()(const RoundOpenMsg& msg) { self.on_round_open(msg); }
    void operator()(const BidAckMsg& msg) {
      // Idempotent server acks can arrive for retransmissions; count each
      // identity's resolution once.
      if (!self.acked_.insert(msg.identity.value())) return;
      (msg.accepted() ? self.accepted_ : self.rejected_) += 1;
    }
    void operator()(const FillNoticeMsg& msg) {
      self.fills_.push_back(msg);
      if (msg.side == Side::kBuyer) {
        self.position_.bought += 1;
        self.position_.paid += msg.price;
      } else {
        self.position_.sold += 1;
        self.position_.received += msg.price;
      }
    }
    void operator()(const RoundClosedMsg&) {}
    void operator()(const SettlementNoticeMsg& msg) {
      if (!msg.delivered) self.settlement_failures_ += 1;
    }
    void operator()(const SubmitBidMsg&) {}  // server-bound; ignore
  };
  std::visit(Visitor{*this}, envelope.payload);
}

}  // namespace fnda
