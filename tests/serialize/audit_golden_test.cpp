// Golden pin of the audit trail's text.
//
// A fixed-seed lossy sharded session that writes every AuditKind and every
// bid-rejection reason, then closes the market.  Every shard's dump() and
// audit_to_json() are folded into one FNV-1a digest, so any drift in how a
// record is rendered — not only a drift between thread counts — fails here.
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "market/multi_exchange.h"
#include "protocols/tpd.h"
#include "serialize/json.h"

namespace fnda {
namespace {

constexpr std::uint64_t kGoldenAuditText = 0x9e7fc713c9715f75ull;

Money money(std::int64_t units) { return Money::from_units(units); }

/// Sends hand-made submissions to its shard's server; ignores replies.
class SubmitProbe : public Endpoint {
 public:
  void on_message(const Envelope&) override {}
};

constexpr AuditKind kAllKinds[] = {
    AuditKind::kRoundOpened,        AuditKind::kBidAccepted,
    AuditKind::kBidRejected,        AuditKind::kRoundCleared,
    AuditKind::kDelivery,           AuditKind::kDeliveryFailed,
    AuditKind::kDepositConfiscated, AuditKind::kDepositRefunded,
};

struct AuditText {
  std::vector<std::size_t> kind_counts;
  std::vector<std::string> dumps;
  std::vector<std::string> json;
  std::uint64_t digest = kFnvOffsetBasis;
};

AuditText run_session(std::size_t threads) {
  const TpdProtocol tpd(money(50));
  MultiExchangeConfig config;
  config.shards = 2;
  config.threads = threads;
  config.seed = 17;
  config.bus.base_latency = SimTime{1000};
  config.bus.jitter = SimTime{4000};
  config.bus.drop_probability = 0.08;
  config.bus.duplicate_probability = 0.05;
  config.client.retry_interval = SimTime::millis(20);
  config.server.domain = ValueDomain{money(0), money(100)};
  config.server.announce_interval = SimTime::millis(25);
  MultiServerExchange exchange(tpd, config);

  for (std::size_t i = 0; i < 40; ++i) {
    const Side role = (i % 2 == 0) ? Side::kBuyer : Side::kSeller;
    exchange.add_trader(
        role, money(role == Side::kBuyer
                        ? 35 + static_cast<std::int64_t>((i * 7) % 60)
                        : 2 + static_cast<std::int64_t>((i * 11) % 55)));
  }
  // Declarations outside the value domain.
  exchange.add_trader(Side::kBuyer, money(130));
  exchange.add_trader(Side::kSeller, money(140));

  std::vector<SubmitProbe> probes(exchange.shard_count());
  std::vector<AddressId> probe_ids;
  for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
    probe_ids.push_back(
        exchange.bus(s).attach("audit-probe-" + std::to_string(s), probes[s]));
  }

  for (std::size_t r = 0; r < 4; ++r) {
    // The last round demands more deposit than any client posts.
    if (r == 3) {
      EXPECT_TRUE(exchange.runtime_config().stage("min_deposit_micros",
                                                  "20000000", nullptr));
    }
    const std::vector<RoundId> rounds =
        exchange.open_rounds(SimTime::millis(100));
    std::vector<SimTime> bounds;
    for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
      bounds.push_back(exchange.queue(s).now() + SimTime::millis(60));
    }
    exchange.drive_until(bounds);
    for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
      const AddressId server = exchange.server(s).address_id();
      for (const auto& trader : exchange.traders()) {
        if (exchange.shard_of(trader->account()) != s) continue;
        if (trader->identities().empty()) continue;
        const IdentityId identity = trader->identities().back();
        // A second, different declaration under an identity that already
        // bid, and one for a round that is not open.
        exchange.bus(s).send(probe_ids[s], server,
                             SubmitBidMsg{rounds[s], identity, trader->role(),
                                          trader->true_value() + money(1)});
        exchange.bus(s).send(
            probe_ids[s], server,
            SubmitBidMsg{RoundId{rounds[s].value() + 1}, identity,
                         trader->role(), trader->true_value()});
        break;
      }
    }
    exchange.drive_to_quiescence();
  }
  exchange.close_market();

  AuditText text;
  for (const AuditKind kind : kAllKinds) {
    text.kind_counts.push_back(exchange.audit_count(kind));
  }
  for (std::size_t s = 0; s < exchange.shard_count(); ++s) {
    text.dumps.push_back(exchange.audit(s).dump());
    text.json.push_back(audit_to_json(exchange.audit(s)));
    text.digest = fnv1a(text.dumps.back(), text.digest);
    text.digest = fnv1a(text.json.back(), text.digest);
  }
  return text;
}

TEST(AuditGoldenTest, SessionTextMatchesGolden) {
  const AuditText text = run_session(1);
  std::string all;
  for (const std::string& dump : text.dumps) all += dump;

  for (std::size_t k = 0; k < std::size(kAllKinds); ++k) {
    EXPECT_GT(text.kind_counts[k], 0u) << to_string(kAllKinds[k]);
  }
  for (const char* reason :
       {": round not open\n", ": identity already bid this round\n",
        ": insufficient deposit\n", ": value outside domain\n"}) {
    EXPECT_NE(all.find(reason), std::string::npos) << reason;
  }
  EXPECT_EQ(text.digest, kGoldenAuditText)
      << std::hex << "digest 0x" << text.digest;
}

TEST(AuditGoldenTest, SessionTextIsThreadCountInvariant) {
  const AuditText one = run_session(1);
  const AuditText two = run_session(2);
  EXPECT_EQ(one.dumps, two.dumps);
  EXPECT_EQ(one.json, two.json);
}

}  // namespace
}  // namespace fnda
