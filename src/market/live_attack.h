// Live-exchange adversarial co-simulation session.
//
// One harness, two metric families from the same run: honest ZI traders
// and false-name attacker accounts share a MultiServerExchange; every
// round the AttackScheduler re-plans the attackers against the previous
// round's book on a background pool (overlapping the round's clearing)
// and injects the planned strategies for the next round.  The session
// reports mechanism-level outcomes (planned manipulation gain, attack
// success rate, realized-vs-efficient surplus ratio) alongside
// systems-level outcomes (per-round wall latency, ns/message, shed rate)
// — the live axis of bench/robustness_attacks, see DESIGN.md §2j.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/protocol.h"
#include "market/bus.h"
#include "market/clock.h"
#include "market/epoch.h"
#include "mechanism/search_telemetry.h"
#include "obs/telemetry.h"

namespace fnda {

struct LiveAttackConfig {
  /// Honest zero-intelligence traders (truthful, random valuations).
  std::size_t honest = 200;
  /// False-name attacker accounts (deferred clients re-planned per round).
  std::size_t attackers = 16;
  std::size_t rounds = 4;
  std::size_t shards = 2;
  /// Exchange worker threads (0 = hardware).  Output is bit-identical for
  /// every value — including the co-simulation's injections.
  std::size_t threads = 1;
  /// Background search-pool threads (also output-invariant).
  std::size_t search_threads = 1;
  /// Attack searches per planning round (0 = whole population); excess
  /// attackers are shed deterministically and replay their prior plan.
  std::size_t search_budget = 0;
  /// Warm-start wrapper on/off (off = cold search every round — the
  /// baseline the warm-speedup gate compares against).
  bool warm = true;
  std::size_t max_declarations = 2;
  /// Fixed evenly spaced declaration grid size over [value_low,
  /// value_high]: keeps per-search cost independent of the population.
  std::size_t grid_points = 9;
  SimTime open_for = SimTime::millis(100);
  /// Bus latency model.  base_latency + jitter must not exceed
  /// open_for/2 (run_live_attack_session throws std::invalid_argument
  /// otherwise): deferred attacker bids are injected at the bounded-drive
  /// stop (open_for/2 before close) and must still arrive in time.
  SimTime base_latency{1'000};
  SimTime jitter{500};
  /// Completed rounds retained per shard (clamped to >= 2: round r's book
  /// must survive while round r+1 completes).
  std::size_t retained_rounds = 2;
  std::uint64_t seed = 1;
  std::int64_t value_low = 1;
  std::int64_t value_high = 100;
  bool adaptive = true;
  obs::TelemetryOptions telemetry{};
};

struct LiveAttackResult {
  std::size_t honest = 0;
  std::size_t attackers = 0;
  std::size_t rounds = 0;
  std::size_t shards = 0;
  std::size_t threads = 0;
  std::size_t search_threads = 0;

  // --- systems level ----------------------------------------------------
  std::size_t bids_accepted = 0;
  /// Attacker declarations the servers rejected (0 when every deferred
  /// bid arrives while its round is open).
  std::size_t attacker_bids_rejected = 0;
  std::size_t trades = 0;
  BusStats bus{};
  EpochStats epoch{};
  SimTime sim_time{};
  /// Wall time of each completed round (open → settled), nanoseconds.
  std::vector<std::uint64_t> round_wall_ns;
  std::uint64_t total_wall_ns = 0;

  // --- mechanism level --------------------------------------------------
  AttackSearchCounters attack{};
  /// Summed per-search wall time (the warm-vs-cold speedup numerator).
  std::uint64_t search_wall_ns = 0;
  /// Σ max(0, best − truthful) over all searches (planned gain against
  /// the snapshot the attacker searched; deterministic).
  double planned_gain_total = 0.0;
  std::uint64_t profitable_searches = 0;
  /// Realized surplus (per-fill owner true values, announced) over the
  /// per-round efficient true-value surplus × rounds.
  double efficiency_ratio = 0.0;

  /// FNV-1a digest of the exchange output (per-round fills + final
  /// ledgers/positions).  Pinned by tests at exchange threads 1/2/8 and
  /// search pools 1/2/8 — the co-simulation's determinism contract.
  std::uint64_t digest = 0;
  /// Attack metrics + search-latency histogram (fnda_attack_*).  The
  /// histogram is wall-clock: never digest-pin this snapshot.
  obs::MetricsSnapshot metrics;
};

/// Runs one co-simulation session.  The exchange output (digest, trades,
/// positions) is deterministic in `config.seed` and invariant in both
/// `threads` and `search_threads`; wall-time fields are not.  Throws
/// std::invalid_argument when `base_latency + jitter > open_for / 2`.
LiveAttackResult run_live_attack_session(const DoubleAuctionProtocol& protocol,
                                         const LiveAttackConfig& config);

}  // namespace fnda
