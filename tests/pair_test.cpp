// PAIR-specific behaviour: pin alignment and containment, burst-error
// correction, delta-parity write-path consistency, erasure repair lists,
// patrol scrubbing, expandability variants, the scrub-on-write ablation
// mode, and a bit-level reference model that checks the staged data path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "faults/injector.hpp"
#include "util/rng.hpp"

namespace pair_ecc::core {
namespace {

using dram::Address;
using dram::Rank;
using dram::RankGeometry;
using ecc::Claim;
using pair_ecc::util::BitVec;
using pair_ecc::util::Xoshiro256;

class PairTest : public ::testing::Test {
 protected:
  PairTest() : rank_(rg_), scheme_(rank_, PairConfig::Pair4()) {}

  BitVec WriteRandom(const Address& addr, Xoshiro256& rng) {
    const BitVec line = BitVec::Random(rg_.LineBits(), rng);
    scheme_.WriteLine(addr, line);
    return line;
  }

  RankGeometry rg_;
  Rank rank_{rg_};
  PairScheme scheme_;
};

TEST_F(PairTest, GeometryDerivation) {
  // 1024 pin-line bits = 128 symbols; k = 64 -> 2 codewords per pin.
  EXPECT_EQ(scheme_.CodewordsPerPin(), 2u);
  EXPECT_EQ(scheme_.code().n(), 68u);
  EXPECT_EQ(scheme_.code().t(), 2u);
}

TEST_F(PairTest, ParityBudgetExactlyFillsSpareRegion) {
  // 8 pins x 2 codewords x 4 check symbols x 8 bits == 512 == spare bits:
  // PAIR consumes precisely the vendor redundancy budget.
  const unsigned parity_bits =
      rg_.device.dq_pins * scheme_.CodewordsPerPin() * 4 * 8;
  EXPECT_EQ(parity_bits, rg_.device.spare_row_bits);
}

TEST_F(PairTest, TwoArbitraryFlipsInOneDeviceAlwaysCorrected) {
  // t=2 per codeword and codewords tile disjoint bits, so ANY two flips in
  // a device's row are corrected — even in the same codeword.
  Xoshiro256 rng(100);
  for (int trial = 0; trial < 60; ++trial) {
    const Address addr{0, 1, static_cast<unsigned>(rng.UniformBelow(128))};
    const BitVec line = WriteRandom(addr, rng);
    unsigned a = static_cast<unsigned>(rng.UniformBelow(8192));
    unsigned b;
    do { b = static_cast<unsigned>(rng.UniformBelow(8192)); } while (b == a);
    rank_.device(3).InjectFlip(0, 1, a);
    rank_.device(3).InjectFlip(0, 1, b);
    const auto r = scheme_.ReadLine(addr);
    EXPECT_NE(r.claim, Claim::kDetected) << trial;
    EXPECT_EQ(r.data, line) << trial;
    scheme_.WriteLine(addr, line);
    rank_.ClearStuck();
    // Clear residual flips outside the addressed column by rewriting all
    // lines is overkill; instead undo the flips if still present.
    scheme_.ScrubRow(0, 1);
  }
}

TEST_F(PairTest, BurstUpToNineBitsAlongPinIsCorrected) {
  // A burst of length L along one pin spans ceil((L + 7) / 8) <= 2 symbols
  // of ONE codeword whenever L <= 9; t = 2 covers it.
  Xoshiro256 rng(101);
  faults::Injector injector(rank_, {{0, 2}});
  for (unsigned len = 1; len <= 9; ++len) {
    for (int trial = 0; trial < 10; ++trial) {
      const Address addr{0, 2, static_cast<unsigned>(rng.UniformBelow(128))};
      const BitVec line = WriteRandom(addr, rng);
      injector.InjectPinBurst(/*device=*/1, len, rng);
      const auto r = scheme_.ReadLine(addr);
      EXPECT_NE(r.claim, Claim::kDetected) << "len " << len;
      EXPECT_EQ(r.data, line) << "len " << len;
      scheme_.ScrubRow(0, 2);
    }
  }
}

TEST_F(PairTest, LongBurstIsDetectedNeverSilent) {
  // 32-beat bursts span 4-5 symbols > t: bounded-distance decoding must
  // detect (or, vanishingly rarely, miscorrect — but never claim clean with
  // wrong data in this deterministic sweep).
  Xoshiro256 rng(102);
  faults::Injector injector(rank_, {{0, 3}});
  int detected = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Address addr{0, 3, 5};
    const BitVec line = WriteRandom(addr, rng);
    const auto f = injector.InjectPinBurst(/*device=*/0, /*length=*/32, rng);
    (void)f;
    const auto r = scheme_.ReadLine(addr);
    if (r.claim == Claim::kDetected) {
      ++detected;
    } else {
      EXPECT_EQ(r.data, line) << trial;  // burst may miss the read column
    }
    scheme_.ScrubRow(0, 3);
    scheme_.WriteLine(addr, line);
  }
  EXPECT_GT(detected, 0);
}

TEST_F(PairTest, PinFaultIsContainedAndDetected) {
  Xoshiro256 rng(103);
  faults::Injector injector(rank_, {{0, 4}});
  int sdc = 0, detected = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const Address addr{0, 4, 60};
    const BitVec line = WriteRandom(addr, rng);
    injector.Inject(faults::FaultType::kSinglePin, true, rng);
    const auto r = scheme_.ReadLine(addr);
    if (r.claim == Claim::kDetected) {
      ++detected;
      // Containment: only the faulty device's faulty pin may be wrong.
      const BitVec diff = r.data ^ line;
      for (auto bit : diff.SetBits()) {
        const unsigned dev_local = static_cast<unsigned>(bit) % 64;
        EXPECT_EQ(dev_local % 8, diff.SetBits().front() % 64 % 8)
            << "damage crossed pins";
      }
    } else if (r.data != line) {
      ++sdc;
    }
    rank_.ClearStuck();
    scheme_.WriteLine(addr, line);
    scheme_.ScrubRow(0, 4);
  }
  EXPECT_EQ(sdc, 0);
  EXPECT_GT(detected, 20);  // a stuck pin is essentially always caught
}

TEST_F(PairTest, PinFaultLeavesOtherPinsDecodable) {
  // Even with a whole pin dead, the other 63 pin codewords of the row must
  // decode clean — the fault is contained to one codeword per segment.
  Xoshiro256 rng(104);
  const Address addr{0, 5, 7};
  const BitVec line = WriteRandom(addr, rng);
  // Kill pin 2 of device 6 by hand (stuck-at inverted = always wrong).
  const auto& g = rg_.device;
  for (unsigned i = 0; i < g.PinLineBits(); ++i) {
    const unsigned bit = dram::PinLineBit(g, 2, i);
    rank_.device(6).SetStuck(0, 5, bit, !rank_.device(6).ReadBit(0, 5, bit));
  }
  const auto r = scheme_.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kDetected);
  // All delivered bits except device 6 pin 2 must be correct.
  const BitVec diff = r.data ^ line;
  for (auto bit : diff.SetBits()) {
    EXPECT_EQ(bit / 64, 6u);       // device 6
    EXPECT_EQ((bit % 64) % 8, 2u); // pin 2
  }
  EXPECT_GT(diff.Popcount(), 0u);
}

TEST_F(PairTest, DeltaParityWritePathMatchesFullReencode) {
  // Write many lines through the delta path, then verify every codeword of
  // the row is a valid RS codeword (parity kept perfectly in sync).
  Xoshiro256 rng(105);
  for (int i = 0; i < 300; ++i) {
    const Address addr{0, 6, static_cast<unsigned>(rng.UniformBelow(128))};
    WriteRandom(addr, rng);
  }
  const auto stats = scheme_.ScrubRow(0, 6);
  EXPECT_EQ(stats.codewords, 8u * 8u * 2u);
  EXPECT_EQ(stats.corrected, 0u);
  EXPECT_EQ(stats.uncorrectable, 0u);
}

TEST_F(PairTest, ErasureListRaisesCorrectionPower) {
  // 4 known-bad symbols in one codeword exceed t = 2, but with the repair
  // list they decode as erasures (f = 4 <= r = 4).
  Xoshiro256 rng(106);
  const Address addr{0, 7, 0};
  const BitVec line = WriteRandom(addr, rng);
  // Also fill the rest of the codeword's columns so symbols are defined.
  std::vector<BitVec> lines;
  for (unsigned col = 1; col < 64; ++col) {
    lines.push_back(BitVec::Random(rg_.LineBits(), rng));
    scheme_.WriteLine({0, 7, col}, lines.back());
  }
  // Corrupt symbols 0, 10, 20, 30 of (device 0, pin 0, codeword 0): these
  // are pin-line bits of columns 0, 10, 20, 30.
  for (unsigned s : {0u, 10u, 20u, 30u}) {
    rank_.device(0).InjectFlip(0, 7, dram::PinLineBit(rg_.device, 0, s * 8 + 3));
    rank_.device(0).InjectFlip(0, 7, dram::PinLineBit(rg_.device, 0, s * 8 + 5));
  }
  // Without the repair list: 4 symbol errors -> detected.
  EXPECT_EQ(scheme_.ReadLine(addr).claim, Claim::kDetected);
  for (unsigned s : {0u, 10u, 20u, 30u})
    scheme_.MarkSymbolErased(/*device=*/0, /*pin=*/0, /*w=*/0, /*position=*/s);
  const auto r = scheme_.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

TEST_F(PairTest, MarkSymbolErasedValidatesArguments) {
  EXPECT_THROW(scheme_.MarkSymbolErased(8, 0, 0, 0), std::invalid_argument);
  EXPECT_THROW(scheme_.MarkSymbolErased(0, 8, 0, 0), std::invalid_argument);
  EXPECT_THROW(scheme_.MarkSymbolErased(0, 0, 2, 0), std::invalid_argument);
  EXPECT_THROW(scheme_.MarkSymbolErased(0, 0, 0, 68), std::invalid_argument);
  // Duplicate registration is idempotent, not an error.
  scheme_.MarkSymbolErased(0, 0, 0, 5);
  scheme_.MarkSymbolErased(0, 0, 0, 5);
  scheme_.ClearErasures();
}

TEST_F(PairTest, ScrubRowClearsAccumulatedTransients) {
  Xoshiro256 rng(107);
  const Address addr{0, 8, 33};
  const BitVec line = WriteRandom(addr, rng);
  rank_.device(2).InjectFlip(0, 8, 33 * 64 + 9);
  const auto stats = scheme_.ScrubRow(0, 8);
  EXPECT_EQ(stats.corrected, 1u);
  // After scrubbing, the read is clean (not merely corrected).
  const auto r = scheme_.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kClean);
  EXPECT_EQ(r.data, line);
}

TEST_F(PairTest, CleanWriteRewritesOnlyChangedSymbols) {
  // Under a stuck cell the stored bit can differ from what reads return.
  // The delta-parity write must store exactly the symbols whose value
  // changes: rewriting an unchanged symbol would replace such a hidden bit
  // with the read value, which shows once the overlay is cleared.
  Xoshiro256 rng(108);
  const Address addr{1, 11, 21};
  const BitVec old_line = WriteRandom(addr, rng);
  const unsigned pins = rg_.device.dq_pins;
  // One hidden cell per (device, pin) symbol of the column: stuck at its
  // current value (the codeword stays clean), storage flipped beneath it.
  std::map<std::pair<unsigned, unsigned>, unsigned> hidden;  // -> row bit
  for (unsigned d = 0; d < rank_.DataDevices(); ++d) {
    for (unsigned pin = 0; pin < pins; ++pin) {
      const unsigned bit = dram::PinLineBit(
          rg_.device, pin, addr.col * 8 + static_cast<unsigned>(rng.UniformBelow(8)));
      auto& dev = rank_.device(d);
      const bool value = dev.ReadBit(addr.bank, addr.row, bit);
      dev.SetStuck(addr.bank, addr.row, bit, value);
      dev.WriteBit(addr.bank, addr.row, bit, !value);
      hidden[{d, pin}] = bit;
    }
  }
  // The new line changes the symbols of even pins only.
  BitVec new_line = old_line;
  for (unsigned d = 0; d < rank_.DataDevices(); ++d)
    for (unsigned pin = 0; pin < pins; pin += 2)
      new_line.Flip(d * rg_.device.AccessBits() + 3 * pins + pin);
  scheme_.WriteLine(addr, new_line);

  rank_.ClearStuck();
  for (const auto& [where, bit] : hidden) {
    const auto [d, pin] = where;
    const unsigned beat = dram::PinLineIndex(rg_.device, bit) - addr.col * 8;
    const bool stored = rank_.device(d).ReadBit(addr.bank, addr.row, bit);
    const bool written =
        new_line.Get(d * rg_.device.AccessBits() + beat * pins + pin);
    if (pin % 2 == 0) {
      EXPECT_EQ(stored, written) << "changed symbol d" << d << " pin " << pin;
    } else {
      EXPECT_NE(stored, written) << "unchanged symbol d" << d << " pin " << pin
                                 << " was rewritten";
    }
  }
}

TEST(PairVariants, Pair2GeometryAndSingleSymbolCorrection) {
  RankGeometry rg;
  Rank rank(rg);
  PairScheme scheme(rank, PairConfig::Pair2());
  EXPECT_EQ(scheme.code().n(), 34u);
  EXPECT_EQ(scheme.code().t(), 1u);
  EXPECT_EQ(scheme.CodewordsPerPin(), 4u);
  Xoshiro256 rng(108);
  const Address addr{0, 0, 17};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme.WriteLine(addr, line);
  rank.device(5).InjectFlip(0, 0, 17 * 64 + 20);
  const auto r = scheme.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

TEST(PairVariants, Pair2MostlyDetectsDoubleSymbolErrors) {
  // A t=1 RS code presented with two symbol errors usually detects, but a
  // minority of weight-2 patterns sit within distance 1 of another codeword
  // and miscorrect (d = 3). PAIR-2 inherits that — it is why the paper's
  // default is the t=2 variant. Verify the codec exhibits both behaviours
  // with detection dominating.
  RankGeometry rg;
  Xoshiro256 rng(109);
  int sdc = 0, detected = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Rank rank(rg);  // fresh state per trial
    PairScheme scheme(rank, PairConfig::Pair2());
    const Address addr{0, 0, 2};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme.WriteLine(addr, line);
    // Two symbols of the same codeword (pin 0 of device 0): columns 2, 3,
    // with random in-symbol damage.
    rank.device(0).InjectFlip(0, 0, 2 * 64 + 8 * rng.UniformBelow(8));
    rank.device(0).InjectFlip(0, 0, 3 * 64 + 8 * rng.UniformBelow(8));
    const auto r = scheme.ReadLine(addr);
    if (r.claim == Claim::kDetected) {
      ++detected;
    } else if (r.data != line) {
      ++sdc;
    }
  }
  EXPECT_GT(detected, 40);   // detection dominates
  EXPECT_LT(sdc, 20);        // miscorrection is the (real) minority path
}

TEST(PairAblation, ScrubOnWriteModeStaysConsistent) {
  RankGeometry rg;
  Rank rank(rg);
  PairConfig cfg = PairConfig::Pair4();
  cfg.scrub_on_write = true;
  PairScheme scheme(rank, cfg);
  EXPECT_TRUE(scheme.Perf().write_rmw);
  Xoshiro256 rng(110);
  for (int i = 0; i < 100; ++i) {
    const Address addr{0, 0, static_cast<unsigned>(rng.UniformBelow(128))};
    scheme.WriteLine(addr, BitVec::Random(rg.LineBits(), rng));
  }
  const auto stats = scheme.ScrubRow(0, 0);
  EXPECT_EQ(stats.corrected, 0u);
  EXPECT_EQ(stats.uncorrectable, 0u);
}

TEST(PairAblation, ScrubOnWriteRepairsLatentErrorBeforeOverwrite) {
  // The RMW mode's one advantage: a latent error in the codeword is
  // corrected during the write instead of lingering. Verify the repair.
  RankGeometry rg;
  Rank rank(rg);
  PairConfig cfg = PairConfig::Pair4();
  cfg.scrub_on_write = true;
  PairScheme scheme(rank, cfg);
  Xoshiro256 rng(111);
  const Address victim{0, 0, 10};   // same codeword as column 11 (w = 0)
  const Address writer{0, 0, 11};
  const BitVec lv = BitVec::Random(rg.LineBits(), rng);
  scheme.WriteLine(victim, lv);
  rank.device(1).InjectFlip(0, 0, 10 * 64 + 5);  // latent error at col 10
  scheme.WriteLine(writer, BitVec::Random(rg.LineBits(), rng));
  // The write to column 11 scrubbed the shared codeword: col 10 reads clean.
  const auto r = scheme.ReadLine(victim);
  EXPECT_EQ(r.claim, Claim::kClean);
  EXPECT_EQ(r.data, lv);
}

TEST(PairConfigTest, ValidationAndNames) {
  PairConfig c;
  c.data_symbols = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = PairConfig::Pair4();
  c.data_symbols = 254;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  EXPECT_EQ(PairConfig::Pair4().Name(), "PAIR-4");
  EXPECT_EQ(PairConfig::Pair2().Name(), "PAIR-2");
  PairConfig rmw = PairConfig::Pair4();
  rmw.scrub_on_write = true;
  EXPECT_EQ(rmw.Name(), "PAIR-4(rmw)");
}

TEST(PairGeometry, RejectsIncompatibleGeometries) {
  RankGeometry rg;
  rg.device.burst_length = 4;  // not a whole symbol per column per pin
  rg.device.row_bits = 8192;
  Rank rank(rg);
  EXPECT_THROW(PairScheme(rank, PairConfig::Pair4()), std::invalid_argument);

  RankGeometry rg2;
  rg2.device.spare_row_bits = 100;  // too small for parity
  Rank rank2(rg2);
  EXPECT_THROW(PairScheme(rank2, PairConfig::Pair4()), std::invalid_argument);
}

class PairWidthTest : public ::testing::TestWithParam<unsigned> {
 protected:
  static RankGeometry Geometry(unsigned pins) {
    RankGeometry rg;
    rg.device.dq_pins = pins;
    rg.data_devices = 64 / pins;  // constant 64-bit bus
    return rg;
  }
};

TEST_P(PairWidthTest, TilesPinLinesAtTheSameBudget) {
  const RankGeometry rg = Geometry(GetParam());
  Rank rank(rg);
  PairScheme scheme(rank, PairConfig::Pair4());
  // cw/pin * pins is constant: 512 parity bits per row at every width.
  EXPECT_EQ(scheme.CodewordsPerPin() * GetParam() * 4 * 8, 512u);
}

TEST_P(PairWidthTest, RoundTripAndSingleSymbolCorrection) {
  const RankGeometry rg = Geometry(GetParam());
  Rank rank(rg);
  PairScheme scheme(rank, PairConfig::Pair4());
  Xoshiro256 rng(300 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const Address addr{
        0, 2, static_cast<unsigned>(rng.UniformBelow(rg.device.ColumnsPerRow()))};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme.WriteLine(addr, line);
    const unsigned d = static_cast<unsigned>(rng.UniformBelow(rank.DataDevices()));
    const unsigned bit = addr.col * rg.device.AccessBits() +
                         static_cast<unsigned>(
                             rng.UniformBelow(rg.device.AccessBits()));
    rank.device(d).InjectFlip(addr.bank, addr.row, bit);
    const auto r = scheme.ReadLine(addr);
    EXPECT_EQ(r.claim, Claim::kCorrected) << "x" << GetParam();
    EXPECT_EQ(r.data, line);
    rank.device(d).InjectFlip(addr.bank, addr.row, bit);
  }
}

TEST_P(PairWidthTest, AlignedBurstCorrectedAtEveryWidth) {
  const RankGeometry rg = Geometry(GetParam());
  Rank rank(rg);
  PairScheme scheme(rank, PairConfig::Pair4());
  Xoshiro256 rng(400 + GetParam());
  const Address addr{0, 3, 5};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme.WriteLine(addr, line);
  // 8-beat burst on one pin of one device, aligned to the read column.
  for (unsigned i = 0; i < 8; ++i)
    rank.device(0).InjectFlip(0, 3, dram::PinLineBit(rg.device, 1, 5 * 8 + i));
  const auto r = scheme.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

INSTANTIATE_TEST_SUITE_P(Widths, PairWidthTest,
                         ::testing::Values(4u, 8u, 16u));

// ------------------------------------------------ bit-level reference model
//
// An independent PAIR implementation that reads and writes the array one bit
// at a time (Device::ReadBit/WriteBit through dram::PinLineBit) and decodes
// one codeword at a time with the allocating rs::RsCode::Decode. It shares
// no gather, staging or write-back code with PairScheme, so comparing the
// two on twin ranks checks the transpose gather, the staged block and the
// masked write-back against the layout's definition.

class ReferencePair {
 public:
  ReferencePair(Rank& rank, const PairConfig& config)
      : rank_(rank),
        g_(rank.geometry().device),
        config_(config),
        code_(rs::RsCode::Gf256(config.data_symbols + config.check_symbols,
                                config.data_symbols)),
        cw_per_pin_(g_.PinLineBits() / 8 / config.data_symbols),
        spc_(g_.burst_length / 8) {}

  void MarkSymbolErased(unsigned d, unsigned pin, unsigned w, unsigned pos) {
    auto& list = erasures_[{d, pin, w}];
    if (std::find(list.begin(), list.end(), pos) == list.end())
      list.push_back(pos);
  }

  ecc::ReadResult ReadLine(const Address& addr) const {
    ecc::ReadResult result;
    result.data = BitVec(rank_.geometry().LineBits());
    const unsigned k = code_.k();
    const unsigned s0 = addr.col * spc_;
    const unsigned wb = config_.decode_full_pin_line ? 0 : s0 / k;
    const unsigned we =
        config_.decode_full_pin_line ? cw_per_pin_ - 1 : (s0 + spc_ - 1) / k;
    for (unsigned d = 0; d < rank_.DataDevices(); ++d) {
      for (unsigned pin = 0; pin < g_.dq_pins; ++pin) {
        for (unsigned w = wb; w <= we; ++w) {
          std::vector<gf::Elem> word = Gather(d, addr, pin, w);
          const rs::DecodeResult dr = code_.Decode(word, Erasures(d, pin, w));
          if (dr.status == rs::DecodeStatus::kCorrected) {
            if (result.claim != Claim::kDetected)
              result.claim = Claim::kCorrected;
            result.corrected_units += dr.NumCorrected();
          } else if (dr.status == rs::DecodeStatus::kFailure) {
            result.claim = Claim::kDetected;
          }
          for (unsigned q = 0; q < spc_; ++q) {
            const unsigned s = s0 + q;
            if (s / k != w) continue;
            for (unsigned j = 0; j < 8; ++j)
              result.data.Set(LineBit(d, q, j, pin), (word[s % k] >> j) & 1u);
          }
        }
      }
    }
    return result;
  }

  void WriteLine(const Address& addr, const BitVec& line) {
    const unsigned k = code_.k();
    const unsigned s0 = addr.col * spc_;
    for (unsigned d = 0; d < rank_.DataDevices(); ++d) {
      for (unsigned pin = 0; pin < g_.dq_pins; ++pin) {
        for (unsigned w = s0 / k; w <= (s0 + spc_ - 1) / k; ++w) {
          std::vector<gf::Elem> word = Gather(d, addr, pin, w);
          if (!config_.scrub_on_write && code_.IsCodeword(word)) {
            // Delta parity: store the changed symbols and, if any, parity.
            bool changed = false;
            for (unsigned q = 0; q < spc_; ++q) {
              const unsigned s = s0 + q;
              if (s / k != w) continue;
              const gf::Elem sym = LineSymbol(line, d, q, pin);
              const gf::Elem delta = word[s % k] ^ sym;
              if (delta == 0) continue;
              word[s % k] = sym;
              const auto pd = code_.ParityDelta(s % k, delta);
              for (unsigned j = 0; j < pd.size(); ++j) word[k + j] ^= pd[j];
              StoreSymbol(d, addr, pin, w, s % k, sym);
              changed = true;
            }
            if (changed)
              for (unsigned j = 0; j < code_.r(); ++j)
                StoreSymbol(d, addr, pin, w, k + j, word[k + j]);
            continue;
          }
          code_.Decode(word, Erasures(d, pin, w));
          for (unsigned q = 0; q < spc_; ++q) {
            const unsigned s = s0 + q;
            if (s / k == w) word[s % k] = LineSymbol(line, d, q, pin);
          }
          const auto parity = code_.ComputeParity(
              std::span<const gf::Elem>(word.data(), k));
          std::copy(parity.begin(), parity.end(), word.begin() + k);
          for (unsigned i = 0; i < code_.n(); ++i)
            StoreSymbol(d, addr, pin, w, i, word[i]);
        }
      }
    }
  }

  void ScrubLine(const Address& addr) {
    const unsigned s0 = addr.col * spc_;
    Scrub(addr, s0 / code_.k(), (s0 + spc_ - 1) / code_.k());
  }

  PairScheme::ScrubStats ScrubRow(unsigned bank, unsigned row) {
    return Scrub({bank, row, 0}, 0, cw_per_pin_ - 1);
  }

 private:
  PairScheme::ScrubStats Scrub(const Address& addr, unsigned wb, unsigned we) {
    PairScheme::ScrubStats stats;
    for (unsigned d = 0; d < rank_.DataDevices(); ++d) {
      for (unsigned pin = 0; pin < g_.dq_pins; ++pin) {
        for (unsigned w = wb; w <= we; ++w) {
          ++stats.codewords;
          std::vector<gf::Elem> word = Gather(d, addr, pin, w);
          const auto dr = code_.Decode(word, Erasures(d, pin, w));
          if (dr.status == rs::DecodeStatus::kFailure) ++stats.uncorrectable;
          if (dr.status != rs::DecodeStatus::kCorrected) continue;
          ++stats.corrected;
          for (unsigned i = 0; i < code_.n(); ++i)
            StoreSymbol(d, addr, pin, w, i, word[i]);
        }
      }
    }
    return stats;
  }

  // Row bit of bit j of codeword position i of (pin, w).
  unsigned SymbolBit(unsigned pin, unsigned w, unsigned i, unsigned j) const {
    const unsigned k = code_.k();
    if (i < k) return dram::PinLineBit(g_, pin, (w * k + i) * 8 + j);
    return g_.row_bits +
           ((pin * cw_per_pin_ + w) * code_.r() + (i - k)) * 8 + j;
  }

  std::vector<gf::Elem> Gather(unsigned d, const Address& addr, unsigned pin,
                               unsigned w) const {
    std::vector<gf::Elem> word(code_.n());
    for (unsigned i = 0; i < code_.n(); ++i)
      for (unsigned j = 0; j < 8; ++j)
        word[i] = static_cast<gf::Elem>(
            word[i] | rank_.device(d).ReadBit(addr.bank, addr.row,
                                              SymbolBit(pin, w, i, j))
                          << j);
    return word;
  }

  void StoreSymbol(unsigned d, const Address& addr, unsigned pin, unsigned w,
                   unsigned i, gf::Elem value) {
    for (unsigned j = 0; j < 8; ++j)
      rank_.device(d).WriteBit(addr.bank, addr.row, SymbolBit(pin, w, i, j),
                               (value >> j) & 1u);
  }

  // Line bit of bit j of column symbol q on (device d, pin): beat q*8 + j.
  unsigned LineBit(unsigned d, unsigned q, unsigned j, unsigned pin) const {
    return d * g_.AccessBits() + dram::ToBit(g_, {0, q * 8 + j, pin});
  }

  gf::Elem LineSymbol(const BitVec& line, unsigned d, unsigned q,
                      unsigned pin) const {
    gf::Elem v = 0;
    for (unsigned j = 0; j < 8; ++j)
      v = static_cast<gf::Elem>(v | line.Get(LineBit(d, q, j, pin)) << j);
    return v;
  }

  std::span<const unsigned> Erasures(unsigned d, unsigned pin,
                                     unsigned w) const {
    const auto it = erasures_.find({d, pin, w});
    return it == erasures_.end() ? std::span<const unsigned>{}
                                 : std::span<const unsigned>(it->second);
  }

  Rank& rank_;
  dram::DeviceGeometry g_;
  PairConfig config_;
  rs::RsCode code_;
  unsigned cw_per_pin_;
  unsigned spc_;
  std::map<std::tuple<unsigned, unsigned, unsigned>, std::vector<unsigned>>
      erasures_;
};

// gtest prints a parameter without a PrintTo as its raw bytes, and CTest's
// discovered test name includes that dump. The name pointer is therefore the
// last member: leading with it put an address-randomised pointer at the front
// of every discovered name, so the names changed from build to build.
struct OracleCase {
  RankGeometry geometry;
  PairConfig config;
  const char* name;
};

RankGeometry WidthGeometry(unsigned pins) {
  RankGeometry rg;
  rg.device.dq_pins = pins;
  rg.data_devices = 64 / pins;
  return rg;
}

RankGeometry Ddr5Geometry() {
  RankGeometry rg;
  rg.device = dram::DeviceGeometry::Ddr5x8();
  rg.data_devices = 4;
  return rg;
}

RankGeometry Hbm3Geometry() {
  RankGeometry rg;
  rg.device = dram::DeviceGeometry::Hbm3();
  rg.data_devices = 4;
  return rg;
}

PairConfig ScrubOnWrite() {
  PairConfig c = PairConfig::Pair4();
  c.scrub_on_write = true;
  return c;
}

PairConfig CoveringOnly() {
  PairConfig c = PairConfig::Pair2();
  c.decode_full_pin_line = false;
  return c;
}

class PairOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(PairOracleTest, StagedPathMatchesBitLevelReference) {
  const OracleCase& tc = GetParam();
  const RankGeometry& rg = tc.geometry;
  const auto& g = rg.device;
  Rank rank(rg);
  Rank ref_rank(rg);
  PairScheme scheme(rank, tc.config);
  ReferencePair ref(ref_rank, tc.config);
  Xoshiro256 rng(0x0AC1E);

  const unsigned rows[] = {3, 4};
  const auto random_addr = [&] {
    return Address{1, rows[rng.UniformBelow(2)],
                   static_cast<unsigned>(rng.UniformBelow(g.ColumnsPerRow()))};
  };
  const auto expect_same_rows = [&](const char* when) {
    for (unsigned d = 0; d < rank.DataDevices(); ++d)
      for (unsigned row : rows)
        ASSERT_EQ(rank.device(d).ReadBits(1, row, 0, g.TotalRowBits()),
                  ref_rank.device(d).ReadBits(1, row, 0, g.TotalRowBits()))
            << tc.name << " " << when << ": device " << d << " row " << row;
  };
  const auto expect_same_read = [&](const ecc::ReadResult& got,
                                    const Address& addr, const char* how) {
    const ecc::ReadResult want = ref.ReadLine(addr);
    ASSERT_EQ(got.claim, want.claim) << tc.name << " " << how << " col " << addr.col;
    ASSERT_EQ(got.corrected_units, want.corrected_units)
        << tc.name << " " << how << " col " << addr.col;
    ASSERT_EQ(got.data, want.data) << tc.name << " " << how << " col " << addr.col;
  };

  // Fill both rows, then layer faults on both ranks identically: a flip
  // soup over data and spare bits, scattered stuck cells, a stuck pin line
  // on one device, and on another a row frozen at its current contents
  // with flips hidden beneath it (reads stay clean while the storage
  // differs, which only a write that stores too much would disturb).
  for (unsigned row : rows) {
    for (unsigned col = 0; col < g.ColumnsPerRow(); ++col) {
      const BitVec line = BitVec::Random(rg.LineBits(), rng);
      scheme.WriteLine({1, row, col}, line);
      ref.WriteLine({1, row, col}, line);
    }
  }
  expect_same_rows("after fill");
  const auto both = [&](auto&& fn) {
    fn(rank);
    fn(ref_rank);
  };
  for (int f = 0; f < 60; ++f) {
    const unsigned d = static_cast<unsigned>(rng.UniformBelow(rank.DataDevices()));
    const unsigned row = rows[rng.UniformBelow(2)];
    const unsigned bit = static_cast<unsigned>(rng.UniformBelow(g.TotalRowBits()));
    if (f % 3 == 0) {
      const bool v = rng.Bernoulli(0.5);
      both([&](Rank& r) { r.device(d).SetStuck(1, row, bit, v); });
    } else {
      both([&](Rank& r) { r.device(d).InjectFlip(1, row, bit); });
    }
  }
  for (unsigned i = 0; i < g.PinLineBits(); ++i) {
    const bool v = rng.Bernoulli(0.5);
    both([&](Rank& r) {
      r.device(0).SetStuck(1, 3, dram::PinLineBit(g, g.dq_pins - 1, i), v);
    });
  }
  const unsigned frozen = 1 % rank.DataDevices();
  for (unsigned bit = 0; bit < g.TotalRowBits(); ++bit) {
    const bool v = rank.device(frozen).ReadBit(1, 4, bit);
    both([&](Rank& r) { r.device(frozen).SetStuck(1, 4, bit, v); });
  }
  for (int f = 0; f < 40; ++f) {
    const unsigned bit = static_cast<unsigned>(rng.UniformBelow(g.TotalRowBits()));
    both([&](Rank& r) { r.device(frozen).InjectFlip(1, 4, bit); });
  }
  // Registered erasures, some of them beyond r for their codeword.
  for (int e = 0; e < 12; ++e) {
    const unsigned d = static_cast<unsigned>(rng.UniformBelow(rank.DataDevices()));
    const unsigned pin = static_cast<unsigned>(rng.UniformBelow(g.dq_pins));
    const unsigned w =
        static_cast<unsigned>(rng.UniformBelow(scheme.CodewordsPerPin()));
    const unsigned n_pos = e % 4 == 0 ? scheme.code().r() + 1 : 1 + e % 3;
    for (unsigned i = 0; i < n_pos; ++i) {
      const unsigned pos =
          static_cast<unsigned>(rng.UniformBelow(scheme.code().n()));
      scheme.MarkSymbolErased(d, pin, w, pos);
      ref.MarkSymbolErased(d, pin, w, pos);
    }
  }

  // A random mix of every entry point.
  std::vector<ecc::ReadResult> batch(5);
  for (int op = 0; op < 40; ++op) {
    switch (op % 6) {
      case 0: {
        const Address addr = random_addr();
        expect_same_read(scheme.ReadLine(addr), addr, "ReadLine");
        break;
      }
      case 1: {
        std::vector<Address> addrs;
        for (std::size_t i = 0; i < batch.size(); ++i) addrs.push_back(random_addr());
        scheme.ReadLines(addrs, batch);
        for (std::size_t i = 0; i < addrs.size(); ++i)
          expect_same_read(batch[i], addrs[i], "ReadLines");
        break;
      }
      case 2: {
        // A partial update of what the line reads now: most symbols keep
        // their value, so the delta path has unchanged symbols to skip.
        const Address addr = random_addr();
        BitVec line = ref.ReadLine(addr).data;
        for (int i = 0; i < 3; ++i)
          line.Flip(static_cast<unsigned>(rng.UniformBelow(rg.LineBits())));
        scheme.WriteLine(addr, line);
        ref.WriteLine(addr, line);
        break;
      }
      case 3: {
        std::vector<Address> addrs;
        std::vector<BitVec> lines;
        for (int i = 0; i < 4; ++i) {
          addrs.push_back(random_addr());
          lines.push_back(BitVec::Random(rg.LineBits(), rng));
        }
        addrs[3] = addrs[0];  // same line twice in one batch
        scheme.WriteLines(addrs, lines);
        for (std::size_t i = 0; i < addrs.size(); ++i)
          ref.WriteLine(addrs[i], lines[i]);
        break;
      }
      case 4: {
        const Address addr = random_addr();
        scheme.ScrubLine(addr);
        ref.ScrubLine(addr);
        break;
      }
      case 5: {
        const unsigned row = rows[rng.UniformBelow(2)];
        const auto got = scheme.ScrubRow(1, row);
        const auto want = ref.ScrubRow(1, row);
        ASSERT_EQ(got.codewords, want.codewords) << tc.name;
        ASSERT_EQ(got.corrected, want.corrected) << tc.name;
        ASSERT_EQ(got.uncorrectable, want.uncorrectable) << tc.name;
        break;
      }
    }
    expect_same_rows("during ops");
  }
  // The storage under the stuck cells must agree too.
  rank.ClearStuck();
  ref_rank.ClearStuck();
  expect_same_rows("after ClearStuck");
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PairOracleTest,
    ::testing::Values(
        OracleCase{WidthGeometry(4), PairConfig::Pair4(), "x4"},
        OracleCase{WidthGeometry(8), PairConfig::Pair4(), "x8"},
        OracleCase{WidthGeometry(8), CoveringOnly(), "x8_pair2_covering"},
        OracleCase{WidthGeometry(8), ScrubOnWrite(), "x8_scrub_on_write"},
        OracleCase{WidthGeometry(16), PairConfig::Pair4(), "x16"},
        OracleCase{Ddr5Geometry(), PairConfig::Pair4(), "ddr5_bl16"},
        OracleCase{Ddr5Geometry(), ScrubOnWrite(), "ddr5_bl16_scrub_on_write"},
        OracleCase{Hbm3Geometry(), PairConfig::Pair4(), "hbm3"}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(PairExpandability, WiderKLowersOverheadAndStillWorks) {
  // k = 128: one codeword per pin, overhead 4/128 = 3.1% — half the budget.
  RankGeometry rg;
  Rank rank(rg);
  PairConfig cfg;
  cfg.data_symbols = 128;
  cfg.check_symbols = 4;
  PairScheme scheme(rank, cfg);
  EXPECT_EQ(scheme.CodewordsPerPin(), 1u);
  Xoshiro256 rng(112);
  const Address addr{0, 0, 99};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme.WriteLine(addr, line);
  rank.device(0).InjectFlip(0, 0, 99 * 64 + 1);
  rank.device(0).InjectFlip(0, 0, 50 * 64 + 1);  // same pin, same codeword now
  const auto r = scheme.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

}  // namespace
}  // namespace pair_ecc::core
