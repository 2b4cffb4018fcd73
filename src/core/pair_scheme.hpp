// PAIR: Pin-Aligned In-dram ecc using the expandability of Reed-Solomon
// codes — the paper's primary contribution.
//
// Layout (per device, per row; defaults for an x8 BL8 die with 8 Kib rows):
//
//   pin line p          = row bits { i : i mod dq_pins == p }   (1024 bits)
//   symbol (p, s)       = pin-line bits [8s, 8s+8)              (128 / pin)
//   codeword (p, w)     = symbols  [w*k, (w+1)*k) of pin p + r check
//                         symbols in the row's spare region      (k=64: 2 / pin)
//
// With BL8 a symbol is exactly one column access's worth of pin p, so:
//
//  * a cache-line write changes whole symbols only -> the linear RS parity
//    is updated incrementally from the sensed old value (delta encoding),
//    with no internal read-modify-write column cycle;
//  * an I/O-path burst along a pin lands in adjacent symbols of ONE
//    codeword — inside t for bursts up to 8(t-1)+1 bits;
//  * a whole-pin fault corrupts one codeword per segment and leaves the
//    other 8*dq_pins-ish codewords of the row clean, so the damage is
//    contained and (being far beyond t) reliably *detected* rather than
//    miscorrected — while conventional bit-interleaved SEC smears the same
//    fault across every codeword as a miscorrectable multi-bit pattern.
//
// A read decodes, for every device and pin, the codeword covering the
// addressed column (the rest of the codeword is available in the sense
// amplifiers of the open row). The line's claim aggregates all
// dq_pins * data_devices decodes; any failing decode poisons the line.
//
// Known-bad cells/columns can be registered per codeword position
// (MarkSymbolErased) and are handed to the decoder as erasures, raising
// correction power toward r per codeword — the repair-list extension.
#pragma once

#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "core/pair_config.hpp"
#include "ecc/scheme.hpp"
#include "rs/rs_code.hpp"

namespace pair_ecc::core {

class PairScheme final : public ecc::Scheme {
 public:
  PairScheme(dram::Rank& rank, const PairConfig& config);

  std::string Name() const override { return config_.Name(); }
  ecc::PerfDescriptor Perf() const override;

  const PairConfig& config() const noexcept { return config_; }
  const rs::RsCode& code() const noexcept { return code_; }
  /// Codewords per pin per row.
  unsigned CodewordsPerPin() const noexcept { return cw_per_pin_; }

  /// Registers codeword position `position` (0..n-1; data or check symbol)
  /// of codeword (device, pin, w) as known-bad. Subsequent decodes treat it
  /// as an erasure. Returns false when the position was already registered.
  bool MarkSymbolErased(unsigned device, unsigned pin, unsigned w,
                        unsigned position);
  void ClearErasures() { erasures_.clear(); }

  /// Patrol scrub: decodes every codeword of the row and writes corrected
  /// data + parity back, clearing accumulated transient errors.
  struct ScrubStats {
    unsigned codewords = 0;
    unsigned corrected = 0;
    unsigned uncorrectable = 0;
  };
  ScrubStats ScrubRow(unsigned bank, unsigned row);

 protected:
  /// Per-line entry points: a batch of one through DoWriteLines /
  /// DoReadLines.
  void DoWriteLine(const dram::Address& addr,
                   const util::BitVec& line) override;
  ecc::ReadResult DoReadLine(const dram::Address& addr) override;

  /// Batch data path. Each address stages its codewords (every data device
  /// x pin x covering codeword; every codeword of the pin line for reads
  /// with decode_full_pin_line) as the lanes of one SoA block, classifies
  /// them with one vectorized syndrome sweep and decodes only dirty or
  /// erasure-carrying lanes with the scalar decoder. Writes take the
  /// delta-parity update on clean lanes and decode-splice-re-encode on the
  /// rest (all lanes under the scrub-on-write ablation).
  void DoWriteLines(std::span<const dram::Address> addrs,
                    std::span<const util::BitVec> lines) override;
  void DoReadLines(std::span<const dram::Address> addrs,
                   std::span<ecc::ReadResult> results) override;

  /// In-DRAM patrol scrub of the codewords covering `addr`: decode and
  /// restore data AND check symbols (the delta-parity write path cannot
  /// clear latent errors, so PAIR scrubs below the controller).
  void DoScrubLine(const dram::Address& addr) override;

  /// One decode-and-restore pass over every codeword of the row.
  void DoScrubRowFull(unsigned bank, unsigned row) override {
    ScrubRow(bank, row);
  }

 private:
  struct CodewordRef {
    unsigned device;
    unsigned pin;
    unsigned w;
    bool operator<(const CodewordRef& o) const {
      return std::tie(device, pin, w) < std::tie(o.device, o.pin, o.w);
    }
  };

  /// Spare-region bit offset of check symbol `j` of codeword (pin, w).
  unsigned ParityBitOffset(unsigned pin, unsigned w, unsigned j) const;

  const std::vector<unsigned>* ErasuresFor(const CodewordRef& ref) const;

  // -- staged block ---------------------------------------------------------
  //
  // Stage() gathers codewords (device, pin, w) for every data device, every
  // pin and w in [w0, w0 + wcount) of one row into block_, lane
  // ((w - w0) * devices + device) * pins + pin, so the pins of one device
  // are adjacent lanes. Symbols are gathered eight pins at a time: the
  // beat x pin bit block of a symbol index, transposed, is that symbol for
  // every pin of the tile. Writes go back through the same transpose, and
  // only for the symbols marked in store_.

  unsigned Lane(unsigned w, unsigned device, unsigned pin) const;
  CodewordRef LaneRef(unsigned lane) const;

  /// Reads every data device's row image and fills block_ with the
  /// codewords w in [w0, w0 + wcount) of every device and pin.
  void Stage(unsigned bank, unsigned row, unsigned w0, unsigned wcount);

  /// Decodes every staged lane in place (DecodeBatch, with each lane's
  /// registered erasures); fills lane_res_.
  void DecodeStaged();

  /// True iff staged lane `lane` was a codeword before DecodeStaged.
  bool StagedClean(unsigned lane) const;

  /// Marks every symbol of `lane` for write-back.
  void MarkLane(unsigned lane);

  /// Writes the marked symbols of block_ back to the staged row, touching
  /// no other bit of the array.
  void WriteBackStaged();

  PairConfig config_;
  rs::RsCode code_;
  unsigned symbols_per_pin_;      // per row
  unsigned cw_per_pin_;           // per row
  unsigned subsymbols_per_col_;   // burst_length / 8
  std::map<CodewordRef, std::vector<unsigned>> erasures_;

  // Reusable hot-path buffers. A Scheme instance is not thread-safe; the
  // trial engine gives every worker its own rank + scheme, so these are
  // touched by one thread only.
  rs::DecodeScratch scratch_;
  std::vector<gf::Elem> word_;
  std::vector<gf::Elem> pdelta_;
  // Staged block state: the row and codeword range, the SoA block and its
  // per-symbol write-back flags (0 or 0xFF, same indexing), per-lane decode
  // results and erasure lists, each data device's row image, and the mask
  // of image bits the write-back stores.
  unsigned stage_bank_ = 0;
  unsigned stage_row_ = 0;
  unsigned stage_w0_ = 0;
  unsigned stage_wcount_ = 0;
  std::vector<gf::Elem> block_buf_;
  rs::CodewordBlock block_;
  std::vector<gf::Elem> store_;
  std::vector<rs::BatchLineResult> lane_res_;
  std::vector<std::span<const unsigned>> lane_erasures_;
  std::vector<util::BitVec> images_;
  util::BitVec write_mask_;
};

}  // namespace pair_ecc::core
