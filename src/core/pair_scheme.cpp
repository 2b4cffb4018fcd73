#include "core/pair_scheme.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contract.hpp"

namespace pair_ecc::core {

using gf::Elem;

namespace {
constexpr unsigned kSymbolBits = 8;
// Pins gathered per transpose: one byte of beat bits per pin.
constexpr unsigned kTilePins = 8;

// 8x8 bit-matrix transpose: bit 8i + j <-> bit 8j + i. Byte i of a beat x
// pin tile holds beat i of pins 0..7, so the transpose turns it into byte
// p = the 8 beats of pin p, i.e. one symbol per pin.
constexpr std::uint64_t Transpose8x8(std::uint64_t x) noexcept {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  return x ^ t ^ (t << 28);
}
static_assert(Transpose8x8(0x0000000000000002ull) == 0x0000000000000100ull);
static_assert(Transpose8x8(0x8000000000000000ull) == 0x8000000000000000ull);
static_assert(Transpose8x8(0x00000000000000FFull) == 0x0101010101010101ull);

// Beat x pin tile of one symbol index in a beat-major bit vector (row image
// or device column): byte j holds beat j of `count` <= 8 adjacent pins.
// `base` is beat 0 of the first pin; beats are `pins` bits apart. On x8 the
// tile is one contiguous 64-bit word, read in one access instead of eight.
inline std::uint64_t LoadTile(const util::BitVec& bits, unsigned base,
                              unsigned pins, unsigned count) noexcept {
  if (pins == kTilePins) return bits.GetWord(base, 64);
  std::uint64_t tile = 0;
  for (unsigned j = 0; j < kSymbolBits; ++j)
    tile |= bits.GetWord(base + j * pins, count) << (kSymbolBits * j);
  return tile;
}

// Inverse of LoadTile.
inline void StoreTile(util::BitVec& bits, unsigned base, unsigned pins,
                      unsigned count, std::uint64_t tile) noexcept {
  if (pins == kTilePins) {
    bits.SetWord(base, 64, tile);
    return;
  }
  for (unsigned j = 0; j < kSymbolBits; ++j)
    bits.SetWord(base + j * pins, count, tile >> (kSymbolBits * j));
}

// Byte p of `bytes` -> lanes[p], for p < count.
void SpreadBytes(std::uint64_t bytes, Elem* lanes, unsigned count) noexcept {
  for (unsigned p = 0; p < count; ++p)
    lanes[p] = static_cast<Elem>((bytes >> (kSymbolBits * p)) & 0xFF);
}

// Inverse of SpreadBytes (symbols are 8 bits wide).
std::uint64_t PackBytes(const Elem* lanes, unsigned count) noexcept {
  std::uint64_t bytes = 0;
  for (unsigned p = 0; p < count; ++p)
    bytes |= std::uint64_t{lanes[p]} << (kSymbolBits * p);
  return bytes;
}
}  // namespace

PairScheme::PairScheme(dram::Rank& rank, const PairConfig& config)
    : Scheme(rank),
      config_(config),
      code_(rs::RsCode::Gf256(config.data_symbols + config.check_symbols,
                              config.data_symbols)) {
  config_.Validate();
  const auto& g = rank.geometry().device;
  PAIR_CHECK(!(g.burst_length % kSymbolBits != 0), "PAIR: burst length must be a whole number of symbols");
  PAIR_CHECK(!(g.PinLineBits() % kSymbolBits != 0), "PAIR: pin line must be a whole number of symbols");
  symbols_per_pin_ = g.PinLineBits() / kSymbolBits;
  PAIR_CHECK(!(symbols_per_pin_ % config_.data_symbols != 0), "PAIR: codewords must tile the pin line");
  cw_per_pin_ = symbols_per_pin_ / config_.data_symbols;
  subsymbols_per_col_ = g.burst_length / kSymbolBits;
  const unsigned parity_bits =
      g.dq_pins * cw_per_pin_ * config_.check_symbols * kSymbolBits;
  PAIR_CHECK(parity_bits <= g.spare_row_bits, "PAIR: spare region too small for parity");
  word_.resize(code_.n());
  pdelta_.resize(config_.check_symbols);
  images_.resize(rank.DataDevices());
}

ecc::PerfDescriptor PairScheme::Perf() const {
  ecc::PerfDescriptor p;
  // The delta-parity write path needs no internal column cycle: old data and
  // parity are in the sense amplifiers of the open row. The scrub-on-write
  // ablation decodes the covering codeword first, which is an internal RMW.
  p.write_rmw = config_.scrub_on_write;
  p.read_decode_ns = config_.read_decode_ns;
  p.write_encode_ns = config_.scrub_on_write ? 2.5 : 0.8;
  p.storage_overhead = static_cast<double>(config_.check_symbols) /
                       static_cast<double>(config_.data_symbols);
  return p;
}

unsigned PairScheme::ParityBitOffset(unsigned pin, unsigned w,
                                     unsigned j) const {
  const auto& g = rank().geometry().device;
  return g.row_bits +
         ((pin * cw_per_pin_ + w) * config_.check_symbols + j) * kSymbolBits;
}

const std::vector<unsigned>* PairScheme::ErasuresFor(
    const CodewordRef& ref) const {
  if (erasures_.empty()) return nullptr;
  const auto it = erasures_.find(ref);
  return it == erasures_.end() ? nullptr : &it->second;
}

bool PairScheme::MarkSymbolErased(unsigned device, unsigned pin, unsigned w,
                                  unsigned position) {
  const auto& g = rank().geometry().device;
  PAIR_CHECK(!(device >= rank().DataDevices() || pin >= g.dq_pins ||
      w >= cw_per_pin_ || position >= code_.n()), "PairScheme::MarkSymbolErased: out of range");
  auto& list = erasures_[{device, pin, w}];
  for (unsigned p : list)
    if (p == position) return false;  // already registered
  list.push_back(position);
  return true;
}

// ------------------------------------------------------------ staged block

unsigned PairScheme::Lane(unsigned w, unsigned device, unsigned pin) const {
  return ((w - stage_w0_) * rank().DataDevices() + device) *
             rank().geometry().device.dq_pins +
         pin;
}

PairScheme::CodewordRef PairScheme::LaneRef(unsigned lane) const {
  const unsigned pins = rank().geometry().device.dq_pins;
  const unsigned devices = rank().DataDevices();
  return {(lane / pins) % devices, lane % pins,
          stage_w0_ + lane / (pins * devices)};
}

void PairScheme::Stage(unsigned bank, unsigned row, unsigned w0,
                       unsigned wcount) {
  const auto& g = rank().geometry().device;
  const unsigned pins = g.dq_pins;
  const unsigned k = code_.k();
  const unsigned lanes = wcount * rank().DataDevices() * pins;
  stage_bank_ = bank;
  stage_row_ = row;
  stage_w0_ = w0;
  stage_wcount_ = wcount;
  block_buf_.resize(std::size_t{code_.n()} * lanes);
  block_ = {block_buf_.data(), lanes, code_.n(), lanes};
  store_.assign(block_buf_.size(), 0);

  for (unsigned d = 0; d < rank().DataDevices(); ++d) {
    util::BitVec& image = images_[d];
    rank().device(d).ReadBitsInto(bank, row, 0, g.TotalRowBits(), image);
    for (unsigned w = w0; w < w0 + wcount; ++w) {
      const unsigned lane0 = Lane(w, d, 0);
      for (unsigned i = 0; i < k; ++i) {
        const unsigned s = w * k + i;
        for (unsigned pin0 = 0; pin0 < pins; pin0 += kTilePins) {
          const unsigned count = std::min(kTilePins, pins - pin0);
          const std::uint64_t tile =
              LoadTile(image, s * kSymbolBits * pins + pin0, pins, count);
          SpreadBytes(Transpose8x8(tile), block_.Row(i) + lane0 + pin0, count);
        }
      }
      for (unsigned pin = 0; pin < pins; ++pin)
        for (unsigned j = 0; j < config_.check_symbols; ++j)
          block_.Row(k + j)[lane0 + pin] = static_cast<Elem>(
              image.GetWord(ParityBitOffset(pin, w, j), kSymbolBits));
    }
  }
}

void PairScheme::DecodeStaged() {
  const unsigned lanes = block_.lines;
  lane_res_.resize(lanes);
  std::span<const std::span<const unsigned>> erasures;
  if (!erasures_.empty()) {
    lane_erasures_.resize(lanes);
    for (unsigned l = 0; l < lanes; ++l) {
      const auto* er = ErasuresFor(LaneRef(l));
      lane_erasures_[l] = er ? std::span<const unsigned>(*er)
                             : std::span<const unsigned>{};
    }
    erasures = lane_erasures_;
  }
  code_.DecodeBatch(block_, lane_res_, scratch_, erasures);
}

bool PairScheme::StagedClean(unsigned lane) const {
  for (unsigned j = 0; j < code_.r(); ++j)
    if (scratch_.batch_syn[std::size_t{j} * block_.lines + lane] != 0)
      return false;
  return true;
}

void PairScheme::MarkLane(unsigned lane) {
  for (unsigned i = 0; i < code_.n(); ++i) store_[i * block_.stride + lane] = 0xFF;
}

void PairScheme::WriteBackStaged() {
  const auto& g = rank().geometry().device;
  const unsigned pins = g.dq_pins;
  const unsigned k = code_.k();
  for (unsigned d = 0; d < rank().DataDevices(); ++d) {
    util::BitVec& image = images_[d];
    util::BitVec& mask = write_mask_;
    mask.Reset(g.TotalRowBits());
    bool any = false;
    // The row image doubles as the write-back source: whole tiles of staged
    // symbols go into it, and the mask selects the marked ones.
    for (unsigned w = stage_w0_; w < stage_w0_ + stage_wcount_; ++w) {
      const unsigned lane0 = Lane(w, d, 0);
      for (unsigned i = 0; i < k; ++i) {
        const unsigned s = w * k + i;
        for (unsigned pin0 = 0; pin0 < pins; pin0 += kTilePins) {
          const unsigned count = std::min(kTilePins, pins - pin0);
          const unsigned l = lane0 + pin0;
          const std::uint64_t flags =
              PackBytes(store_.data() + std::size_t{i} * block_.stride + l, count);
          if (flags == 0) continue;
          const unsigned base = s * kSymbolBits * pins + pin0;
          StoreTile(image, base, pins, count,
                    Transpose8x8(PackBytes(block_.Row(i) + l, count)));
          StoreTile(mask, base, pins, count, Transpose8x8(flags));
          any = true;
        }
      }
      for (unsigned pin = 0; pin < pins; ++pin) {
        const unsigned l = lane0 + pin;
        for (unsigned j = 0; j < config_.check_symbols; ++j) {
          if (store_[std::size_t{k + j} * block_.stride + l] == 0) continue;
          const unsigned offset = ParityBitOffset(pin, w, j);
          image.SetWord(offset, kSymbolBits, block_.Row(k + j)[l]);
          mask.SetWord(offset, kSymbolBits, 0xFF);
          any = true;
        }
      }
    }
    if (any)
      rank().device(d).WriteRowMasked(stage_bank_, stage_row_, image, mask);
  }
}

// --------------------------------------------------------------- data path

void PairScheme::DoWriteLine(const dram::Address& addr,
                             const util::BitVec& line) {
  DoWriteLines(std::span<const dram::Address>(&addr, 1),
               std::span<const util::BitVec>(&line, 1));
}

ecc::ReadResult PairScheme::DoReadLine(const dram::Address& addr) {
  ecc::ReadResult result;
  DoReadLines(std::span<const dram::Address>(&addr, 1),
              std::span<ecc::ReadResult>(&result, 1));
  return result;
}

void PairScheme::DoWriteLines(std::span<const dram::Address> addrs,
                              std::span<const util::BitVec> lines) {
  PAIR_DCHECK(addrs.size() == lines.size(), "span extents rechecked in NVI");
  const auto& g = rank().geometry().device;
  const unsigned pins = g.dq_pins;
  const unsigned k = code_.k();
  const unsigned r = config_.check_symbols;

  for (std::size_t a = 0; a < addrs.size(); ++a) {
    const dram::Address& addr = addrs[a];
    const util::BitVec& line = lines[a];
    const unsigned s0 = addr.col * subsymbols_per_col_;
    const unsigned w0 = s0 / k;
    Stage(addr.bank, addr.row, w0, (s0 + subsymbols_per_col_ - 1) / k - w0 + 1);
    DecodeStaged();

    // Splice the new symbols into the covering codewords. A clean codeword
    // takes the delta-parity update: its parity moves by the precomputed
    // per-symbol footprint of each changed symbol — no decode, no internal
    // column cycle (everything is in the open row's sense amplifiers) —
    // and only the changed data symbols and the parity are written. A pure
    // delta update over an *inconsistent* codeword would carry the old
    // error into the new parity and resurrect it as a miscorrection on the
    // next read, so a dirty codeword was decoded above and is re-encoded
    // and rewritten whole below. The syndrome check reuses the read
    // datapath and errors are rare, so that slow path is off the
    // performance model (scrub_on_write forces it always, with the RMW
    // timing cost, as the F6 ablation).
    //
    // Writing only changed symbols is observable, not an optimisation:
    // under a stuck cell the stored value differs from what reads return,
    // and rewriting an unchanged symbol would overwrite that hidden value
    // (visible again after ClearStuck or a repair).
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      for (unsigned q = 0; q < subsymbols_per_col_; ++q) {
        const unsigned s = s0 + q;
        const unsigned w = s / k;
        const unsigned pos = s % k;
        for (unsigned pin0 = 0; pin0 < pins; pin0 += kTilePins) {
          const unsigned count = std::min(kTilePins, pins - pin0);
          const std::uint64_t syms = Transpose8x8(LoadTile(
              line, d * g.AccessBits() + q * kSymbolBits * pins + pin0, pins,
              count));
          for (unsigned p = 0; p < count; ++p) {
            const unsigned l = Lane(w, d, pin0 + p);
            const auto new_sym =
                static_cast<Elem>((syms >> (kSymbolBits * p)) & 0xFF);
            Elem& sym = block_.Row(pos)[l];
            const Elem delta = sym ^ new_sym;
            sym = new_sym;
            if (config_.scrub_on_write || !StagedClean(l) || delta == 0)
              continue;
            store_[std::size_t{pos} * block_.stride + l] = 0xFF;
            code_.ParityDeltaInto(pos, delta, pdelta_);
            for (unsigned j = 0; j < r; ++j) {
              block_.Row(k + j)[l] ^= pdelta_[j];
              store_[std::size_t{k + j} * block_.stride + l] = 0xFF;
            }
          }
        }
      }
    }
    for (unsigned l = 0; l < block_.lines; ++l) {
      if (!config_.scrub_on_write && StagedClean(l)) continue;
      for (unsigned i = 0; i < k; ++i) word_[i] = block_.Row(i)[l];
      code_.ComputeParityInto(std::span<const Elem>(word_.data(), k),
                              std::span<Elem>(word_.data() + k, r));
      for (unsigned j = 0; j < r; ++j) block_.Row(k + j)[l] = word_[k + j];
      MarkLane(l);
    }
    WriteBackStaged();
  }
}

void PairScheme::DoReadLines(std::span<const dram::Address> addrs,
                             std::span<ecc::ReadResult> results) {
  PAIR_DCHECK(addrs.size() == results.size(), "span extents rechecked in NVI");
  const auto& g = rank().geometry().device;
  const unsigned pins = g.dq_pins;
  const unsigned k = code_.k();

  for (std::size_t a = 0; a < addrs.size(); ++a) {
    const dram::Address& addr = addrs[a];
    ecc::ReadResult& result = results[a];
    // With decode_full_pin_line every codeword of the pin is checked (they
    // are all in the sense amplifiers); otherwise only the one covering
    // the addressed column.
    const unsigned s0 = addr.col * subsymbols_per_col_;
    const unsigned w_begin = config_.decode_full_pin_line ? 0 : s0 / k;
    const unsigned w_end = config_.decode_full_pin_line
                               ? cw_per_pin_ - 1
                               : (s0 + subsymbols_per_col_ - 1) / k;
    Stage(addr.bank, addr.row, w_begin, w_end - w_begin + 1);
    DecodeStaged();

    // Claim aggregation: the failure > corrected > clean lattice is
    // order-independent, and corrected_units is a plain sum.
    result.claim = ecc::Claim::kClean;
    result.corrected_units = 0;
    for (const rs::BatchLineResult& lane : lane_res_) {
      switch (lane.status) {
        case rs::DecodeStatus::kNoError:
          break;
        case rs::DecodeStatus::kCorrected:
          if (result.claim != ecc::Claim::kDetected)
            result.claim = ecc::Claim::kCorrected;
          result.corrected_units += lane.corrected;
          break;
        case rs::DecodeStatus::kFailure:
          result.claim = ecc::Claim::kDetected;
          break;
      }
    }

    // Deliver the (corrected) symbols of the addressed column; failed
    // lanes deliver the data as received.
    result.data.Reset(rank().geometry().LineBits());
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      for (unsigned q = 0; q < subsymbols_per_col_; ++q) {
        const unsigned s = s0 + q;
        for (unsigned pin0 = 0; pin0 < pins; pin0 += kTilePins) {
          const unsigned count = std::min(kTilePins, pins - pin0);
          const std::uint64_t syms =
              PackBytes(block_.Row(s % k) + Lane(s / k, d, pin0), count);
          StoreTile(result.data,
                    d * g.AccessBits() + q * kSymbolBits * pins + pin0, pins,
                    count, Transpose8x8(syms));
        }
      }
    }
  }
}

void PairScheme::DoScrubLine(const dram::Address& addr) {
  const unsigned s0 = addr.col * subsymbols_per_col_;
  const unsigned w0 = s0 / code_.k();
  Stage(addr.bank, addr.row, w0,
        (s0 + subsymbols_per_col_ - 1) / code_.k() - w0 + 1);
  DecodeStaged();
  for (unsigned l = 0; l < block_.lines; ++l)
    if (lane_res_[l].status == rs::DecodeStatus::kCorrected) MarkLane(l);
  WriteBackStaged();
}

PairScheme::ScrubStats PairScheme::ScrubRow(unsigned bank, unsigned row) {
  Stage(bank, row, 0, cw_per_pin_);
  DecodeStaged();
  ScrubStats stats;
  stats.codewords = block_.lines;
  for (unsigned l = 0; l < block_.lines; ++l) {
    switch (lane_res_[l].status) {
      case rs::DecodeStatus::kNoError:
        break;
      case rs::DecodeStatus::kCorrected:
        ++stats.corrected;
        MarkLane(l);
        break;
      case rs::DecodeStatus::kFailure:
        ++stats.uncorrectable;
        break;
    }
  }
  WriteBackStaged();
  return stats;
}

}  // namespace pair_ecc::core
