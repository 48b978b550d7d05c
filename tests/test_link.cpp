// Tests for the resilient link layer (src/link): CRC framing, go-back-N
// ARQ with bounded retry/timeout/backoff, sync-loss resynchronization, and
// degraded-mode rate fallback.
//
// The layer inherits the repo's two determinism pillars and adds one of its
// own, all checked here:
//   1. An empty FaultPlan leaves every payload byte-identical (no retries,
//      no RNG draws).
//   2. Channel corruption is keyed on (plan seed, component, slot tick), so
//      faulted transfers reproduce exactly at every MGT_THREADS setting.
//   3. Exact accounting: offered == delivered + abandoned at every severity,
//      and below the abandonment threshold delivery is lossless.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/faultsweep.hpp"
#include "core/presets.hpp"
#include "core/test_system.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "link/arq.hpp"
#include "link/crc.hpp"
#include "link/frame.hpp"
#include "link/link.hpp"
#include "link/sync.hpp"
#include "testbed/testbed.hpp"
#include "util/bytes.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mgt {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::HealthStatus;
using link::ArqConfig;
using link::ArqReceiver;
using link::FrameCodec;
using link::FrameKind;
using link::LinkChannel;
using link::LinkFrame;
using link::LinkStats;
using link::SendResult;
using link::SyncMonitor;
using link::SyncState;

struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { util::clear_thread_override(); }
};

std::vector<BitVector> random_payloads(std::size_t n, std::size_t bits,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(BitVector::random(bits, rng));
  }
  return out;
}

/// A corruption plan for the forward channel component "link.fwd".
FaultPlan corruption_plan(double severity, std::uint64_t seed = 42) {
  FaultPlan plan(seed);
  FaultSpec spec;
  spec.kind = FaultKind::kFrameCorruption;
  spec.component = "link.fwd";
  spec.severity = severity;
  plan.schedule(spec);
  return plan;
}

LinkChannel make_channel(const FaultPlan& plan, LinkChannel::Config config = {}) {
  return LinkChannel(config, link::make_fault_transport(plan, "link.fwd"),
                     link::make_fault_transport(plan, "link.rev"));
}

// -------------------------------------------------------------------- crc --

TEST(LinkCrc, StandardCheckVectors) {
  const std::vector<std::uint8_t> check = {'1', '2', '3', '4', '5',
                                           '6', '7', '8', '9'};
  EXPECT_EQ(util::crc8(check), 0xF4);
  EXPECT_EQ(link::crc16(check), 0x29B1);
}

TEST(LinkCrc, DetectsSingleBitFlips) {
  Rng rng(7);
  const BitVector bits = BitVector::random(96, rng);
  const std::uint16_t clean = link::crc16(bits);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    BitVector flipped = bits;
    flipped.set(i, !flipped.get(i));
    EXPECT_NE(link::crc16(flipped), clean) << "missed flip at bit " << i;
  }
}

TEST(LinkCrc, PackUnpackRoundTrip) {
  const std::uint64_t value = 0xDEADBEEFCAFE1234ull;
  const BitVector bits = link::pack_bits(value, 64);
  EXPECT_EQ(link::unpack_bits(bits, 0, 64), value);
  EXPECT_EQ(link::unpack_bits(link::pack_bits(0x2B, 8), 0, 8), 0x2Bu);
}

// ------------------------------------------------------------------ codec --

TEST(LinkFrameCodec, RoundTripsAllKinds) {
  const FrameCodec codec{testbed::SlotFormat{}};
  EXPECT_EQ(codec.user_bits(), 4 * testbed::SlotFormat{}.data_bits - 32);

  Rng rng(3);
  for (const FrameKind kind :
       {FrameKind::kData, FrameKind::kAck, FrameKind::kNak, FrameKind::kIdle}) {
    LinkFrame frame;
    frame.kind = kind;
    frame.seq = 0x1234567890ull + static_cast<std::uint64_t>(kind);
    if (kind == FrameKind::kData) {
      frame.payload = BitVector::random(codec.user_bits(), rng);
    } else if (kind != FrameKind::kIdle) {
      frame.payload = link::pack_bits(77, 64);
    }
    const auto decoded = codec.decode(codec.encode(frame));
    EXPECT_TRUE(decoded.ok()) << to_string(kind);
    EXPECT_EQ(decoded.frame.kind, kind);
    EXPECT_EQ(decoded.frame.seq, frame.seq & 0xFFu) << "wire seq is 8 bits";
    if (kind == FrameKind::kData) {
      EXPECT_EQ(decoded.frame.payload, frame.payload);
    }
  }
}

TEST(LinkFrameCodec, FlagsCorruptionInTheRightDomain) {
  const FrameCodec codec{testbed::SlotFormat{}};
  Rng rng(5);
  LinkFrame frame;
  frame.kind = FrameKind::kData;
  frame.seq = 9;
  frame.payload = BitVector::random(codec.user_bits(), rng);
  const testbed::TestbedPacket clean = codec.encode(frame);

  // Flip one user-payload bit: payload CRC must fail, header CRC holds.
  testbed::TestbedPacket payload_hit = clean;
  payload_hit.payload[0].set(3, !payload_hit.payload[0].get(3));
  const auto p = codec.decode(payload_hit);
  EXPECT_TRUE(p.header_ok);
  EXPECT_FALSE(p.payload_ok);

  // Flip a header-channel bit: header CRC must fail.
  testbed::TestbedPacket header_hit = clean;
  header_hit.header ^= 0x1;
  EXPECT_FALSE(codec.decode(header_hit).header_ok);
}

TEST(LinkFrameCodec, NarrowFormatFitsCodecButNotTheLinkProtocol) {
  // A consistent slot geometry whose payload window is too narrow for the
  // 64-bit cumulative ack: the codec accepts it (4*16 = 64 > 32 overhead
  // bits), but LinkChannel must reject it at construction instead of
  // throwing mid-transfer on the first ACK exchange.
  testbed::SlotFormat narrow;
  narrow.data_bits = 16;
  narrow.window_bits = 7 + 16 + 7;
  narrow.slot_bits = 8 + 2 * 5 + narrow.window_bits;
  narrow.validate();

  const FrameCodec codec{narrow};
  EXPECT_EQ(codec.user_bits(), 32u) << "codec alone tolerates the format";

  const FaultPlan empty;
  LinkChannel::Config config;
  config.format = narrow;
  EXPECT_THROW(make_channel(empty, config), Error)
      << "user_bits() < 64 cannot carry the cumulative ack";
}

// ------------------------------------------------------------ arq receiver --

TEST(LinkArqReceiver, ReconstructsFullSequenceAcrossWrap) {
  ArqReceiver rx(8);
  // Drive the expectation to 300 (past the 8-bit wrap).
  for (std::uint64_t s = 0; s < 300; ++s) {
    EXPECT_TRUE(rx.on_data(s).deliver);
  }
  EXPECT_EQ(rx.expected(), 300u);
  EXPECT_EQ(rx.reconstruct(static_cast<std::uint8_t>(300 & 0xFF)), 300u);
  EXPECT_EQ(rx.reconstruct(static_cast<std::uint8_t>(305 & 0xFF)), 305u);
  EXPECT_EQ(rx.reconstruct(static_cast<std::uint8_t>(295 & 0xFF)), 295u);
}

TEST(LinkArqReceiver, BehindStreamStartIsSignalledNotDelivered) {
  // A wire sequence that decodes to before the stream began (only a CRC-8
  // false pass on a corrupted header can produce one) must be reported
  // explicitly — a clamped 0 would equal a fresh receiver's expectation
  // and deliver a wrong payload as payload #0.
  ArqReceiver fresh(8);
  EXPECT_EQ(fresh.reconstruct(0xFF), std::nullopt);
  EXPECT_EQ(fresh.expected(), 0u) << "a behind frame must not advance state";

  // Once the stream is past the wrap distance, "behind" is an ordinary
  // duplicate and still reconstructs.
  ArqReceiver rx(8);
  for (std::uint64_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(rx.on_data(s).deliver);
  }
  EXPECT_EQ(rx.reconstruct(1), 1u);
  EXPECT_TRUE(rx.on_data(1).duplicate);
  EXPECT_EQ(rx.reconstruct(0xFF), std::nullopt) << "still before the start";
}

TEST(LinkArqReceiver, VerdictsAreExclusive) {
  ArqReceiver rx(4);
  const auto first = rx.on_data(0);
  EXPECT_TRUE(first.deliver && !first.duplicate && !first.gap);
  const auto dup = rx.on_data(0);
  EXPECT_TRUE(!dup.deliver && dup.duplicate && !dup.gap);
  const auto gap = rx.on_data(5);
  EXPECT_TRUE(!gap.deliver && !gap.duplicate && gap.gap);
}

// ------------------------------------------------------------ sync monitor --

TEST(LinkSyncMonitor, WalksLockedSuspectHuntingRelock) {
  SyncMonitor sync{SyncMonitor::Config{.hunt_after = 2, .relock_guards = 2}};
  EXPECT_EQ(sync.state(), SyncState::kLocked);

  sync.observe_bad_frame();
  EXPECT_EQ(sync.state(), SyncState::kSuspect);
  sync.observe_good_frame();
  EXPECT_EQ(sync.state(), SyncState::kLocked) << "one bad frame is forgiven";

  sync.observe_bad_frame();
  sync.observe_bad_frame();
  EXPECT_EQ(sync.state(), SyncState::kHunting);
  EXPECT_FALSE(sync.engaged());
  EXPECT_EQ(sync.sync_losses(), 1u);

  sync.observe_guard(true);
  sync.observe_guard(false);  // dirty guard resets the clean run
  sync.observe_guard(true);
  EXPECT_EQ(sync.state(), SyncState::kHunting);
  sync.observe_guard(true);
  EXPECT_EQ(sync.state(), SyncState::kRelock);
  EXPECT_EQ(sync.relocks(), 1u);

  // Probational: a bad frame in RELOCK means the lock was false.
  sync.observe_bad_frame();
  EXPECT_EQ(sync.state(), SyncState::kHunting);
  sync.observe_guard(true);
  sync.observe_guard(true);
  sync.observe_good_frame();
  EXPECT_EQ(sync.state(), SyncState::kLocked);
}

// ----------------------------------------------------------- clean channel --

TEST(LinkChannel, CleanChannelDeliversByteIdenticalWithoutRetries) {
  const FaultPlan empty;
  LinkChannel ch = make_channel(empty);
  const auto payloads = random_payloads(32, ch.codec().user_bits(), 11);

  const auto results = ch.transfer(payloads);
  const LinkStats stats = ch.stats();

  ASSERT_EQ(results.size(), payloads.size());
  for (const SendResult& r : results) {
    EXPECT_TRUE(r.delivered);
    EXPECT_EQ(r.attempts, 1u);
  }
  EXPECT_EQ(ch.delivered_payloads(), payloads) << "byte-identical delivery";
  EXPECT_TRUE(stats.accounting_closed());
  EXPECT_EQ(stats.delivered, payloads.size());
  EXPECT_EQ(stats.abandoned, 0u);
  EXPECT_EQ(stats.retransmissions, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.sync_losses, 0u);
  EXPECT_EQ(stats.raw_fer(), 0.0);
  EXPECT_EQ(stats.residual_fer(), 0.0);
  EXPECT_TRUE(ch.health().all_ok());
}

TEST(LinkChannel, CleanRunsAreByteIdenticalAcrossInstances) {
  const FaultPlan empty;
  const auto payloads =
      random_payloads(16, FrameCodec{testbed::SlotFormat{}}.user_bits(), 23);

  LinkChannel a = make_channel(empty);
  LinkChannel b = make_channel(empty);
  (void)a.transfer(payloads);
  (void)b.transfer(payloads);
  EXPECT_EQ(a.delivered_payloads(), b.delivered_payloads());
  EXPECT_EQ(a.stats().slots, b.stats().slots);
}

// ------------------------------------------------------------- faulted arq --

TEST(LinkChannel, ArqMasksModerateCorruption) {
  // severity is a per-bit flip probability over ~132 frame bits, so 0.003
  // ruins roughly a third of all frames — plenty for the ARQ to sweat
  // without crossing the abandonment threshold.
  const FaultPlan plan = corruption_plan(0.003);
  LinkChannel ch = make_channel(plan);
  const auto payloads = random_payloads(64, ch.codec().user_bits(), 31);

  const auto results = ch.transfer(payloads);
  const LinkStats stats = ch.stats();

  EXPECT_TRUE(stats.accounting_closed());
  EXPECT_GT(stats.retransmissions, 0u) << "channel must actually corrupt";
  EXPECT_EQ(stats.abandoned, 0u) << "moderate severity must be fully masked";
  for (const SendResult& r : results) {
    EXPECT_TRUE(r.delivered);
  }
  EXPECT_EQ(ch.delivered_payloads(), payloads)
      << "ARQ recovery must be byte-exact";
  EXPECT_LT(stats.residual_fer(), stats.raw_fer());
}

TEST(LinkChannel, FullCorruptionAbandonsWithExactAccounting) {
  const FaultPlan plan = corruption_plan(0.5);
  ArqConfig arq;
  arq.max_retries = 3;
  LinkChannel::Config config;
  config.arq = arq;
  LinkChannel ch = make_channel(plan, config);
  const auto payloads = random_payloads(8, ch.codec().user_bits(), 47);

  const auto results = ch.transfer(payloads);
  const LinkStats stats = ch.stats();

  EXPECT_TRUE(stats.accounting_closed());
  EXPECT_EQ(stats.offered, payloads.size());
  EXPECT_GT(stats.abandoned, 0u);
  std::size_t delivered = 0;
  for (const SendResult& r : results) {
    delivered += r.delivered ? 1 : 0;
  }
  EXPECT_EQ(delivered, stats.delivered);
  // Whatever did get through is a prefix-free in-order subset, byte-exact.
  ASSERT_EQ(ch.delivered_payloads().size(), stats.delivered);
  std::size_t at = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (results[i].delivered) {
      EXPECT_EQ(ch.delivered_payloads()[at++], payloads[i]);
    }
  }
  // Degradation must be reported, not hidden.
  EXPECT_EQ(ch.health().find("arq")->status, HealthStatus::kDegraded);
}

TEST(LinkChannel, TimeoutsBackOffExponentiallyAndStayBounded) {
  // A reverse channel that is always dark: every round times out, and the
  // transfer must still terminate with bounded, deterministic slot time.
  // The forward channel is clean, so the payload did reach the receiver —
  // retry exhaustion must reconcile it as delivered (an ack loss), not
  // declare it abandoned.
  FaultPlan plan(9);
  FaultSpec los;
  los.kind = FaultKind::kLossOfSignal;
  los.component = "link.rev";
  plan.schedule(los);

  ArqConfig arq;
  arq.window = 1;
  arq.max_retries = 3;
  arq.timeout_slots = 2;
  arq.backoff_base = 2;
  arq.backoff_cap_slots = 8;
  LinkChannel::Config config;
  config.arq = arq;

  LinkChannel ch = make_channel(plan, config);
  const auto payloads = random_payloads(1, ch.codec().user_bits(), 3);
  const auto results = ch.transfer(payloads);

  EXPECT_TRUE(results[0].delivered) << "clean forward channel: ack loss only";
  const LinkStats stats = ch.stats();
  EXPECT_TRUE(stats.accounting_closed());
  EXPECT_EQ(stats.abandoned, 0u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.reconciled, 1u);
  EXPECT_EQ(ch.delivered_payloads(), payloads);
  EXPECT_EQ(stats.timeouts, 4u) << "initial round + max_retries";
  // Slots: 4 rounds x (1 data + 1 response) + backoffs 2, 4, 8, 8 (capped).
  EXPECT_EQ(stats.slots, 4u * 2u + 2u + 4u + 8u + 8u);

  LinkChannel again = make_channel(plan, config);
  (void)again.transfer(payloads);
  EXPECT_EQ(again.stats().slots, stats.slots) << "protocol time is replayable";
}

TEST(LinkChannel, TotalOutageAbandonsOnlyTrulyUndeliveredPayloads) {
  // Both directions dark: nothing reaches the receiver, so retry
  // exhaustion must abandon — and the delivered stream stays empty.
  FaultPlan plan(21);
  for (const char* component : {"link.fwd", "link.rev"}) {
    FaultSpec los;
    los.kind = FaultKind::kLossOfSignal;
    los.component = component;
    plan.schedule(los);
  }

  ArqConfig arq;
  arq.window = 2;
  arq.max_retries = 2;
  arq.timeout_slots = 1;
  arq.max_resync_slots = 4;
  LinkChannel::Config config;
  config.arq = arq;

  LinkChannel ch = make_channel(plan, config);
  const auto payloads = random_payloads(3, ch.codec().user_bits(), 29);
  const auto results = ch.transfer(payloads);

  const LinkStats stats = ch.stats();
  EXPECT_TRUE(stats.accounting_closed());
  EXPECT_EQ(stats.abandoned, payloads.size());
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.reconciled, 0u);
  EXPECT_TRUE(ch.delivered_payloads().empty());
  for (const SendResult& r : results) {
    EXPECT_FALSE(r.delivered);
  }
}

TEST(LinkChannel, ReverseOutageSpanningRetryBudgetNeverSubstitutesPayloads) {
  // Regression for the go-back-N abandonment bug: a clean forward channel
  // with a finite reverse-channel outage longer than the retry budget. The
  // receiver advances past the transmitter's acked base during the outage;
  // a recovered cumulative ack must then reconcile cleanly instead of
  // tripping the window-bound check or marking later payloads delivered
  // while delivered_payloads() holds the earlier ones.
  FaultPlan plan(33);
  FaultSpec los;
  los.kind = FaultKind::kLossOfSignal;
  los.component = "link.rev";
  los.start = 0;
  los.duration = 40;
  plan.schedule(los);

  ArqConfig arq;
  arq.window = 4;
  arq.max_retries = 2;
  arq.timeout_slots = 2;
  arq.backoff_base = 2;
  arq.backoff_cap_slots = 8;
  LinkChannel::Config config;
  config.arq = arq;

  LinkChannel ch = make_channel(plan, config);
  const auto payloads = random_payloads(12, ch.codec().user_bits(), 61);
  const auto results = ch.transfer(payloads);

  const LinkStats stats = ch.stats();
  EXPECT_TRUE(stats.accounting_closed());
  EXPECT_GT(stats.timeouts, 0u) << "the outage must actually bite";
  EXPECT_GT(stats.reconciled, 0u)
      << "at least one payload must exhaust its retries during the outage";
  EXPECT_EQ(stats.abandoned, 0u) << "the forward channel never lost a frame";
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].delivered) << "payload " << i;
  }
  EXPECT_EQ(ch.delivered_payloads(), payloads)
      << "the delivered stream must be the offered stream, no substitution";

  LinkChannel again = make_channel(plan, config);
  (void)again.transfer(payloads);
  EXPECT_EQ(again.stats().slots, stats.slots) << "recovery is replayable";
}

// -------------------------------------------------------- sync loss / hunt --

TEST(LinkChannel, SyncLossTriggersHuntAndRelock) {
  // Frame-bit violations for a stretch of slots, then a clean channel.
  FaultPlan plan(17);
  FaultSpec sync_loss;
  sync_loss.kind = FaultKind::kSyncLoss;
  sync_loss.component = "link.fwd";
  sync_loss.start = 2;
  sync_loss.duration = 6;
  plan.schedule(sync_loss);

  LinkChannel::Config config;
  config.sync.hunt_after = 2;
  config.sync.relock_guards = 2;
  LinkChannel ch = make_channel(plan, config);
  const auto payloads = random_payloads(24, ch.codec().user_bits(), 19);

  const auto results = ch.transfer(payloads);
  const LinkStats stats = ch.stats();

  EXPECT_TRUE(stats.accounting_closed());
  EXPECT_GE(stats.sync_losses, 1u) << "the outage must be detected";
  EXPECT_GE(stats.relocks, 1u) << "the link must re-lock afterwards";
  EXPECT_GT(stats.resync_slots, 0u) << "hunting costs guard slots";
  for (const SendResult& r : results) {
    EXPECT_TRUE(r.delivered) << "a 6-slot outage is fully recoverable";
  }
  EXPECT_EQ(ch.delivered_payloads(), payloads);
}

// ---------------------------------------------------------- degraded mode --

TEST(LinkChannel, DegradedModeStepsRateDownAndReportsIt) {
  const FaultPlan plan = corruption_plan(0.5, 77);
  ArqConfig arq;
  arq.max_retries = 2;
  LinkChannel::Config config;
  config.arq = arq;
  config.degrade_window = 4;
  config.degrade_fer_threshold = 0.25;
  config.max_rate_steps = 2;

  LinkChannel ch = make_channel(plan, config);
  const auto payloads = random_payloads(32, ch.codec().user_bits(), 59);
  (void)ch.transfer(payloads);

  EXPECT_GT(ch.rate_steps(), 0u) << "sustained residual FER must step rate";
  EXPECT_LE(ch.rate_steps(), config.max_rate_steps);
  const double factor = std::ldexp(1.0, static_cast<int>(ch.rate_steps()));
  EXPECT_DOUBLE_EQ(ch.current_ui().ps(),
                   testbed::SlotFormat{}.ui.ps() * factor);
  EXPECT_LT(ch.current_rate().gbps(),
            GbitsPerSec::from_ui(testbed::SlotFormat{}.ui).gbps());

  const fault::HealthReport report = ch.health();
  ASSERT_NE(report.find("rate"), nullptr);
  EXPECT_EQ(report.find("rate")->status, HealthStatus::kDegraded);
  EXPECT_EQ(ch.stats().rate_steps, ch.rate_steps());
}

// ------------------------------------------------- determinism (property) --

TEST(LinkProperty, BelowThresholdSeveritiesDeliverByteIdenticalAtAllThreads) {
  // For any seeded plan with severity below the abandonment threshold, the
  // delivered stream equals the offered stream bit for bit, at MGT_THREADS
  // 0, 1 and 8, with identical protocol time and accounting.
  ThreadOverrideGuard guard;
  const std::size_t kPayloads = 24;

  for (const double severity : {0.0005, 0.001, 0.003}) {
    for (const std::uint64_t seed : {1ull, 1234ull, 987654321ull}) {
      const FaultPlan plan = corruption_plan(severity, seed);
      std::vector<LinkStats> stats;
      for (const std::size_t threads : {0u, 1u, 8u}) {
        util::set_thread_override(threads);
        LinkChannel ch = make_channel(plan);
        const auto payloads =
            random_payloads(kPayloads, ch.codec().user_bits(), seed ^ 0xABC);
        const auto results = ch.transfer(payloads);
        for (const SendResult& r : results) {
          ASSERT_TRUE(r.delivered)
              << "severity " << severity << " seed " << seed;
        }
        ASSERT_EQ(ch.delivered_payloads(), payloads)
            << "severity " << severity << " seed " << seed << " threads "
            << threads;
        stats.push_back(ch.stats());
      }
      // The runs must be indistinguishable, not merely all-successful.
      for (std::size_t i = 1; i < stats.size(); ++i) {
        EXPECT_EQ(stats[i].slots, stats[0].slots);
        EXPECT_EQ(stats[i].retransmissions, stats[0].retransmissions);
        EXPECT_EQ(stats[i].integrity_failures, stats[0].integrity_failures);
        EXPECT_TRUE(stats[i].accounting_closed());
      }
    }
  }
}

// -------------------------------------------------------------- faultsweep --

TEST(LinkFaultSweep, ResidualFerStaysStrictlyBelowRawFer) {
  const std::vector<double> severities = {0.0, 0.001, 0.003, 0.005, 0.01};
  const auto sweep = ana::link_fault_sweep(severities, [](double severity) {
    const FaultPlan plan = corruption_plan(severity, 1313);
    ArqConfig arq;
    arq.max_retries = 6;
    LinkChannel::Config config;
    config.arq = arq;
    LinkChannel ch = make_channel(plan, config);
    const auto payloads = random_payloads(48, ch.codec().user_bits(), 8);
    (void)ch.transfer(payloads);
    const LinkStats stats = ch.stats();
    ana::LinkSweepPoint point;
    point.raw_fer = stats.raw_fer();
    point.residual_fer = stats.residual_fer();
    point.offered = stats.offered;
    point.delivered = stats.delivered;
    point.abandoned = stats.abandoned;
    point.retransmissions = stats.retransmissions;
    return point;
  });

  ASSERT_EQ(sweep.size(), severities.size());
  EXPECT_TRUE(ana::residual_below_raw(sweep));
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GT(sweep[i].raw_fer, 0.0)
        << "nonzero severity must damage frames (severity "
        << sweep[i].severity << ")";
  }
}

// ------------------------------------------------------ testbed transport --

TEST(LinkOverTestbed, EndToEndOverTheAnalogSignalPath) {
  testbed::OpticalTestbed bed(testbed::OpticalTestbed::Config{}, 2024);
  LinkChannel::Config config;
  LinkChannel ch(config, link::make_testbed_transport(bed),
                 link::make_testbed_transport(bed));
  const auto payloads = random_payloads(6, ch.codec().user_bits(), 91);

  const auto results = ch.transfer(payloads);
  const LinkStats stats = ch.stats();
  EXPECT_TRUE(stats.accounting_closed());
  for (const SendResult& r : results) {
    EXPECT_TRUE(r.delivered) << "healthy analog chain must carry the link";
  }
  EXPECT_EQ(ch.delivered_payloads(), payloads);
}

TEST(LinkOverTestbed, EndToEndThroughTheVortexFabric) {
  testbed::OpticalTestbed bed(testbed::OpticalTestbed::Config{}, 4096);
  LinkChannel::Config config;
  // Forward frames deflection-route port 3 -> port 5; responses ride the
  // point-to-point path back.
  LinkChannel ch(config, link::make_routed_transport(bed, 3, 5),
                 link::make_testbed_transport(bed));
  const auto payloads = random_payloads(4, ch.codec().user_bits(), 13);

  const auto results = ch.transfer(payloads);
  EXPECT_TRUE(ch.stats().accounting_closed());
  for (const SendResult& r : results) {
    EXPECT_TRUE(r.delivered) << "healthy fabric must route every frame";
  }
  EXPECT_EQ(ch.delivered_payloads(), payloads);
}

TEST(LinkOverTestbed, SendRoutedReportsLatencyAndDestination) {
  testbed::OpticalTestbed bed(testbed::OpticalTestbed::Config{}, 7);
  Rng rng(55);
  testbed::TestbedPacket packet;
  for (auto& lane : packet.payload) {
    lane = BitVector::random(testbed::SlotFormat{}.data_bits, rng);
  }
  packet.header = 0b1010;

  const auto result = bed.send_routed(packet, 0, 9);
  ASSERT_TRUE(result.routed);
  EXPECT_GT(result.latency_slots, 0u);
  EXPECT_TRUE(result.signal.captured);
  EXPECT_EQ(result.signal.payload_bit_errors, 0u);
}

// --------------------------------------------------- slot-format validate --

TEST(SlotFormatValidate, NamesTheOffendingFieldAndArithmetic) {
  testbed::SlotFormat bad;
  bad.window_bits = 47;  // 8 + 2*5 + 47 != 64 and 7 + 32 + 7 != 47
  try {
    bad.validate();
    FAIL() << "validate() must reject an inconsistent layout";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("slot_bits=64"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dead_bits+2*guard_bits+window_bits"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("8+2*5+47=65"), std::string::npos) << msg;
  }

  testbed::SlotFormat window_bad;
  window_bad.pre_clock_bits = 8;  // 8 + 32 + 7 != 46
  window_bad.slot_bits = 64;
  try {
    window_bad.validate();
    FAIL() << "validate() must reject an inconsistent window";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("window_bits=46"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pre_clock_bits+data_bits+post_clock_bits"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("8+32+7=47"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace mgt
