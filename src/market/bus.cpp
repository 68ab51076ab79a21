#include "market/bus.h"

#include <stdexcept>
#include <utility>

namespace fnda {

const char* message_kind(const Message& message) {
  struct Visitor {
    const char* operator()(const RoundOpenMsg&) const { return "round-open"; }
    const char* operator()(const SubmitBidMsg&) const { return "submit-bid"; }
    const char* operator()(const BidAckMsg&) const { return "bid-ack"; }
    const char* operator()(const FillNoticeMsg&) const { return "fill"; }
    const char* operator()(const RoundClosedMsg&) const {
      return "round-closed";
    }
    const char* operator()(const SettlementNoticeMsg&) const {
      return "settlement";
    }
  };
  return std::visit(Visitor{}, message);
}

MessageBus::MessageBus(EventQueue& queue, BusConfig config, Rng rng)
    : queue_(queue),
      config_(config),
      rng_(rng),
      owned_space_(std::make_unique<AddressSpace>()),
      space_(owned_space_.get()),
      next_message_(config.first_message_id) {
  queue_.set_delivery_sink(this);
}

MessageBus::MessageBus(EventQueue& queue, BusConfig config, Rng rng,
                       AddressSpace& addresses, std::uint32_t shard)
    : queue_(queue),
      config_(config),
      rng_(rng),
      space_(&addresses),
      shard_(shard),
      next_message_(config.first_message_id) {
  queue_.set_delivery_sink(this);
}

MessageBus::~MessageBus() { queue_.set_delivery_sink(nullptr); }

void MessageBus::bind_telemetry(obs::ShardTelemetry& telemetry) {
  obs::MetricsRegistry& registry = telemetry.metrics;
  registry.counter_fn("fnda_bus_sent_total", [this] {
    return static_cast<std::uint64_t>(stats_.sent);
  });
  registry.counter_fn("fnda_bus_delivered_total", [this] {
    return static_cast<std::uint64_t>(stats_.delivered);
  });
  registry.counter_fn("fnda_bus_duplicated_total", [this] {
    return static_cast<std::uint64_t>(stats_.duplicated);
  });
  registry.counter_fn("fnda_bus_dropped_total", [this] {
    return static_cast<std::uint64_t>(stats_.dropped);
  });
  registry.counter_fn("fnda_bus_dead_lettered_total", [this] {
    return static_cast<std::uint64_t>(stats_.dead_lettered);
  });
  delivery_latency_hist_ =
      &registry.histogram("fnda_bus_delivery_latency_us");
  batch_size_hist_ = &registry.histogram("fnda_queue_batch_size");
}

AddressId MessageBus::intern(const std::string& address) {
  const AddressId id = space_->intern(address);
  ensure_directory(id.value());
  return id;
}

const std::string& MessageBus::name_of(AddressId address) const {
  return space_->name_of(address);
}

AddressId MessageBus::attach(const std::string& address, Endpoint& endpoint) {
  const AddressId id = intern(address);
  attach(id, endpoint);
  return id;
}

void MessageBus::attach(AddressId address, Endpoint& endpoint) {
  if (address.value() >= space_->size()) {
    throw std::out_of_range("MessageBus::attach: unknown AddressId");
  }
  DirectoryEntry& entry = ensure_directory(address.value());
  entry.endpoint = &endpoint;
  ++entry.binding;
  space_->claim(address, shard_);
}

void MessageBus::detach(const std::string& address) {
  const std::optional<AddressId> id = space_->lookup(address);
  if (!id.has_value()) return;
  detach(*id);
}

void MessageBus::detach(AddressId address) {
  if (address.value() >= space_->size()) {
    throw std::out_of_range("MessageBus::detach: unknown AddressId");
  }
  DirectoryEntry& entry = ensure_directory(address.value());
  if (entry.endpoint == nullptr) return;
  entry.endpoint = nullptr;
  ++entry.binding;
}

std::uint32_t MessageBus::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (pool_size_ == pool_.size() * kPoolChunkSize) {
    pool_.push_back(std::make_unique<Envelope[]>(kPoolChunkSize));
  }
  return static_cast<std::uint32_t>(pool_size_++);
}

MessageId MessageBus::send(AddressId from, AddressId to, Message payload) {
  return send_impl(from, to, std::move(payload));
}

MessageId MessageBus::send(const std::string& from, const std::string& to,
                           Message payload) {
  const AddressId from_id = intern(from);
  const AddressId to_id = intern(to);
  return send(from_id, to_id, std::move(payload));
}

SimTime MessageBus::draw_latency() {
  SimTime latency = config_.base_latency;
  if (config_.jitter.micros > 0) {
    latency.micros += rng_.uniform_int(0, config_.jitter.micros - 1);
  }
  return latency;
}

SimTime MessageBus::schedule_slot(std::uint32_t slot, std::uint64_t key) {
  return queue_.schedule_delivery(queue_.now() + draw_latency(), slot, key);
}

void MessageBus::reject_cross_shard(AddressId to,
                                    std::uint32_t owner) const {
  // The epoch driver runs each shard to quiescence on its own, so a
  // message to another shard would arrive after the destination ran past
  // its delivery time; fail loudly instead.
  throw std::logic_error("MessageBus: cross-shard send to '" +
                         space_->name_of(to) + "' (owner shard " +
                         std::to_string(owner) + ", sender shard " +
                         std::to_string(shard_) +
                         "); shards never exchange messages");
}

void MessageBus::deliver_run(SimTime at, const EventQueue::Delivery* run,
                             std::size_t count) {
  // The envelopes and directory lines for one instant are scattered
  // across a working set much larger than L2; sweep prefetches ahead of
  // the dispatch loop so the groups below don't stall on each in turn.
#if defined(__GNUC__)
  for (std::size_t i = 0; i < count; ++i) {
    __builtin_prefetch(&slot_ref(run[i].slot), 1, 1);
    __builtin_prefetch(&directory_[static_cast<std::uint32_t>(run[i].key)], 0,
                       1);
  }
  // Second sweep: by now the directory lines are (mostly) resident, so
  // the endpoint objects themselves can be prefetched before dispatch.
  for (std::size_t i = 0; i < count; ++i) {
    const Endpoint* endpoint =
        directory_[static_cast<std::uint32_t>(run[i].key)].endpoint;
    if (endpoint != nullptr) __builtin_prefetch(endpoint, 0, 1);
  }
#endif
  std::size_t i = 0;
  while (i < count) {
    const std::uint64_t key = run[i].key;
    std::size_t j = i + 1;
    while (j < count && run[j].key == key) ++j;
    deliver_group(at, key, run + i, j - i);
    i = j;
  }
}

void MessageBus::fire(const Timer& timer) {
  const std::uint64_t target = timer.target.value();
  if (target >= directory_.size()) return;
  if (Endpoint* const endpoint = directory_[target].endpoint) {
    endpoint->on_timer(timer);
  }
}

void MessageBus::mark_repeat(std::uint32_t slot) {
  if (slot >= repeat_.size()) repeat_.resize(pool_.size() * kPoolChunkSize);
  repeat_[slot] = 1;
}

void MessageBus::deliver_group(SimTime at, std::uint64_t key,
                               const EventQueue::Delivery* run,
                               std::size_t count) {
  // The batch key pins both the destination and the binding generation
  // captured at send time, so one compare validates the whole batch.
  // Copy the directory fields out: a handler that interns a new address
  // can grow directory_ and invalidate references into it.
  const auto to = static_cast<std::uint32_t>(key);
  Endpoint* const endpoint = directory_[to].endpoint;
  if (endpoint == nullptr ||
      key != pack_key(to, directory_[to].binding)) {
    stats_.dead_lettered += count;
    for (std::size_t i = 0; i < count; ++i) release_slot(run[i].slot);
    return;
  }

  stats_.delivered += count;
  // Per-delivery histograms are deterministically decimated: every
  // kDeliverySampleStride-th delivered group records its batch size and
  // its envelopes' latencies.  The tick advances in the shard's own
  // delivery order, so the sample stream is a pure function of the event
  // history (bit-identical at any worker count) while the full-fidelity
  // cost — measurably ~6% of session throughput — stays off the hot
  // path.  Exact totals remain in BusStats.
  const bool sample =
      batch_size_hist_ != nullptr &&
      (delivery_sample_tick_++ % kDeliverySampleStride) == 0;
  if (sample) {
    batch_size_hist_->record(static_cast<std::int64_t>(count));
  }
  if (count == 1) {
    // Singleton batches dominate client-bound traffic; dispatching them
    // straight to on_message skips a virtual hop and the scratch array,
    // and is what the default on_batch would do anyway (overrides must
    // honour that equivalence).  Latency is recorded here, where the
    // envelope is already in cache, not in a separate slot walk.
    Envelope& envelope = slot_ref(run[0].slot);
    envelope.delivered_at = at;
    if (sample) {
      delivery_latency_hist_->record((at - envelope.sent_at).micros);
    }
    if (is_repeat(run[0].slot)) {
      endpoint->on_repeat(envelope);
    } else {
      endpoint->on_message(envelope);
    }
    release_slot(run[0].slot);
    return;
  }
  deliver_scratch_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    Envelope& envelope = slot_ref(run[i].slot);
    envelope.delivered_at = at;
    if (sample) {
      delivery_latency_hist_->record((at - envelope.sent_at).micros);
    }
    deliver_scratch_.push_back(&envelope);
  }
  // A repeat never rides in a batch: split the batch around each one.
  const Envelope* const* envelopes = deliver_scratch_.data();
  std::size_t begin = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!is_repeat(run[i].slot)) continue;
    if (i > begin) endpoint->on_batch(envelopes + begin, i - begin);
    endpoint->on_repeat(*envelopes[i]);
    begin = i + 1;
  }
  if (count > begin) endpoint->on_batch(envelopes + begin, count - begin);
  for (std::size_t i = 0; i < count; ++i) release_slot(run[i].slot);
}

}  // namespace fnda
