// Runtime-versioned server configuration.
//
// PR 2..9 treated ServerConfig as construction-time constants; the
// operations console (and the future network gateway) need to adjust
// knobs on a *live* exchange without giving up the determinism contract.
// RuntimeConfig wraps a ServerConfig in a staged/active pair:
//
//   * `stage(config)` records a whole typed ServerConfig as *pending* —
//     nothing the hot path reads has moved yet.  Callers build it from
//     `staged()`, so changes staged earlier in the same round carry over
//     and the last value staged for a field wins;
//   * `apply_pending(stamp)` promotes the staged config into the active
//     one in one step and, when any value differs, bumps the generation
//     and records the stamp (the exchange passes its round-open index) at
//     which the new generation took effect.
//
// Which fields an operator may stage, and their bounds, is the console's
// business (ops/console.cpp declares them as typed commands); this class
// parses nothing.  The exchange calls apply_pending only at round
// boundaries, on the driver thread, while every shard is quiescent — so a
// command script replayed against the same session produces bit-identical
// output for any worker-thread count: the config a round clears under is
// a pure function of the command sequence, never of thread timing.
#pragma once

#include <cstdint>

#include "market/server.h"

namespace fnda {

class RuntimeConfig {
 public:
  explicit RuntimeConfig(ServerConfig initial)
      : active_(initial), staged_(std::move(initial)) {}

  /// The config servers run with.  Stable address; re-read by the
  /// exchange at every round open.
  const ServerConfig& active() const { return active_; }
  /// The config the next apply_pending installs: active() until
  /// something is staged.
  const ServerConfig& staged() const { return staged_; }

  /// Number of apply_pending calls that changed anything; generation 0 is
  /// the construction-time config.
  std::uint64_t generation() const { return generation_; }
  /// The stamp passed to the apply_pending call that produced the current
  /// generation (0 until the first runtime change lands).
  std::uint64_t applied_at() const { return applied_at_; }

  /// Stages `next` for the next round boundary, replacing any config
  /// staged before it.
  void stage(const ServerConfig& next) {
    staged_ = next;
    pending_ = true;
  }

  bool has_pending() const { return pending_; }

  /// Promotes the staged config into the active one.  Returns true when
  /// the active config changed (the caller then pushes it to the
  /// servers); `stamp` is recorded as the generation's birth round.
  bool apply_pending(std::uint64_t stamp) {
    if (!pending_) return false;
    pending_ = false;
    if (staged_ == active_) return false;
    active_ = staged_;
    ++generation_;
    applied_at_ = stamp;
    return true;
  }

 private:
  ServerConfig active_;
  ServerConfig staged_;  ///< equals active_ whenever nothing is pending
  bool pending_ = false;
  std::uint64_t generation_ = 0;
  std::uint64_t applied_at_ = 0;
};

}  // namespace fnda
