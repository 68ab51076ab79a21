#include "market/client.h"

namespace fnda {

TraderPopulation::TraderPopulation(EventQueue& queue, MessageBus& bus,
                                   IdentityRegistry& registry,
                                   EscrowService& escrow, AddressId server,
                                   ClientConfig config)
    : queue_(queue),
      bus_(bus),
      registry_(registry),
      escrow_(escrow),
      server_(server),
      config_(config) {}

std::uint32_t TraderPopulation::add(const std::string& address,
                                    AccountId account, Side role,
                                    Money true_value) {
  const auto slot = static_cast<std::uint32_t>(traders_.size());
  Trader& trader = traders_.emplace_back();
  trader.account = account;
  trader.true_value = true_value;
  trader.role = role;
  trader.address = bus_.attach(address, *this);
  const std::size_t index = trader.address.value();
  if (index >= slot_of_address_.size()) {
    slot_of_address_.resize(index + 1, kNone);
  }
  slot_of_address_[index] = slot;
  return slot;
}

TraderPopulation::Custom& TraderPopulation::custom(std::uint32_t slot) {
  Trader& trader = traders_[slot];
  if (trader.custom == kNone) {
    trader.custom = static_cast<std::uint32_t>(customs_.size());
    customs_.emplace_back().strategy =
        Strategy::truthful(trader.role, trader.true_value);
  }
  return customs_[trader.custom];
}

void TraderPopulation::on_round_open(std::uint32_t slot,
                                     const RoundOpenMsg& msg) {
  Trader& trader = traders_[slot];
  if (trader.last_round_bid.is_valid() && msg.round <= trader.last_round_bid) {
    return;
  }
  trader.last_round_bid = msg.round;
  ++trader.rounds_seen;
  if (trader.custom != kNone && customs_[trader.custom].deferred) {
    customs_[trader.custom].pending = msg;
    return;
  }
  submit_round(slot, msg);
}

void TraderPopulation::submit_round(std::uint32_t slot,
                                    const RoundOpenMsg& msg) {
  const Trader& trader = traders_[slot];
  if (trader.custom == kNone) {
    submit(slot, msg, Declaration{trader.role, trader.true_value});
    return;
  }
  for (const Declaration& declaration :
       customs_[trader.custom].strategy.declarations) {
    submit(slot, msg, declaration);
  }
}

void TraderPopulation::submit(std::uint32_t slot, const RoundOpenMsg& msg,
                              const Declaration& declaration) {
  // A fresh pseudonym per declaration per round: identities are
  // disposable in the false-name threat model.
  Trader& trader = traders_[slot];
  const IdentityId identity = registry_.register_identity(trader.account);
  identities_.append(trader.identities, identity);
  escrow_.post(identity, trader.account, config_.deposit_per_identity);
  submit_with_retry(slot,
                    SubmitBidMsg{msg.round, identity, declaration.side,
                                 declaration.value},
                    msg.close_at, config_.max_retries);
}

std::size_t TraderPopulation::submit_pending(std::uint32_t slot) {
  const std::uint32_t index = traders_[slot].custom;
  if (index == kNone || !customs_[index].pending.has_value()) return 0;
  const RoundOpenMsg msg = *customs_[index].pending;
  customs_[index].pending.reset();
  submit_round(slot, msg);
  return customs_[index].strategy.declarations.size();
}

void TraderPopulation::submit_with_retry(std::uint32_t slot,
                                         const SubmitBidMsg& msg,
                                         SimTime deadline,
                                         std::size_t retries_left) {
  const AddressId address = traders_[slot].address;
  bus_.send(address, server_, msg);
  if (config_.retry_interval.micros <= 0 || retries_left == 0) return;
  std::uint32_t row;
  if (free_retries_.empty()) {
    row = static_cast<std::uint32_t>(retries_.size());
    retries_.emplace_back();
  } else {
    row = free_retries_.back();
    free_retries_.pop_back();
  }
  retries_[row] = Retry{msg, deadline, retries_left};
  queue_.schedule_timer(queue_.now() + config_.retry_interval,
                        Timer{Timer::Kind::kRetry, address, row});
}

void TraderPopulation::on_timer(const Timer& timer) {
  const auto row = static_cast<std::uint32_t>(timer.word);
  const Retry retry = retries_[row];
  free_retries_.push_back(row);
  const std::optional<std::size_t> identity =
      identity_slot(retry.msg.identity);
  if (identity && acked_.test(*identity)) return;
  if (queue_.now() >= retry.deadline) return;  // round closed; no point
  const std::uint32_t slot = slot_of_address_[timer.target.value()];
  ++traders_[slot].retransmissions;
  submit_with_retry(slot, retry.msg, retry.deadline, retry.retries_left - 1);
}

void TraderPopulation::on_message(const Envelope& envelope) {
  const std::uint32_t slot = slot_of_address_[envelope.to.value()];
  struct Visitor {
    TraderPopulation& self;
    std::uint32_t slot;
    void operator()(const RoundOpenMsg& msg) { self.on_round_open(slot, msg); }
    void operator()(const BidAckMsg& msg) {
      // Idempotent server acks can arrive for retransmissions; count each
      // identity's resolution once.
      const std::optional<std::size_t> identity =
          self.identity_slot(msg.identity);
      if (!identity || !self.acked_.set(*identity)) return;
      Trader& trader = self.traders_[slot];
      (msg.accepted() ? trader.accepted : trader.rejected) += 1;
    }
    void operator()(const FillNoticeMsg& msg) {
      const std::optional<std::size_t> identity =
          self.identity_slot(msg.identity);
      if (!identity || !self.filled_.set(*identity)) return;
      Trader& trader = self.traders_[slot];
      self.fills_.append(trader.fills, msg);
      if (msg.side == Side::kBuyer) {
        trader.position.bought += 1;
        trader.position.paid += msg.price;
      } else {
        trader.position.sold += 1;
        trader.position.received += msg.price;
      }
    }
    void operator()(const RoundClosedMsg&) {}
    void operator()(const SettlementNoticeMsg& msg) {
      if (msg.delivered) return;
      const std::optional<std::size_t> identity =
          self.identity_slot(msg.identity);
      if (!identity || !self.settlement_failed_.set(*identity)) return;
      self.traders_[slot].settlement_failures += 1;
    }
    void operator()(const SubmitBidMsg&) {}  // server-bound; ignore
  };
  std::visit(Visitor{*this, slot}, envelope.payload);
}

}  // namespace fnda
