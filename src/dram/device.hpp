// Functional (data-accurate) model of one DRAM device with a fault overlay.
//
// Rows are allocated lazily and zero-filled, so simulations touch only the
// working set they address. Two fault mechanisms are modelled:
//
//  * transient flips — the stored value is inverted once (a disturbed cell);
//    a subsequent write repairs it;
//  * stuck-at bits — reads always return the stuck value regardless of what
//    was written (a permanently defective cell / column / row). Writes
//    still reach the cell's underlying storage, which reads back once the
//    overlay is cleared (ClearStuck) or the row is repaired away (PPR).
//
// The stuck overlay is a pair of per-row bit planes (mask, value), allocated
// on a row's first SetStuck and applied to reads with one word op per 64
// bits, so a row fault (thousands of stuck cells) costs a read no more than
// a single stuck cell does.
//
// Bit indices run over the *entire* row including the spare ECC region
// [row_bits, row_bits + spare_row_bits) — inherent faults do not spare the
// parity cells, and several of the paper's failure modes come precisely
// from corrupted parity.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dram/geometry.hpp"
#include "util/bitvec.hpp"

namespace pair_ecc::dram {

class Device {
 public:
  explicit Device(const DeviceGeometry& geometry);

  const DeviceGeometry& geometry() const noexcept { return geom_; }

  /// Reads one bit as the memory array would deliver it (stuck-at overlay
  /// applied). `bit` may address the spare region.
  bool ReadBit(unsigned bank, unsigned row, unsigned bit) const;

  /// Writes one bit of the underlying storage. Under a stuck bit the write
  /// is stored but hidden: reads keep returning the stuck value.
  void WriteBit(unsigned bank, unsigned row, unsigned bit, bool value);

  /// Reads `count` bits starting at `offset` within the row.
  util::BitVec ReadBits(unsigned bank, unsigned row, unsigned offset,
                        unsigned count) const;

  /// Allocation-free ReadBits: `out` becomes the `count` bits at `offset`
  /// (stuck-at overlay applied), reusing the caller-owned buffer.
  void ReadBitsInto(unsigned bank, unsigned row, unsigned offset,
                    unsigned count, util::BitVec& out) const;

  /// Writes `bits` at `offset` within the row.
  void WriteBits(unsigned bank, unsigned row, unsigned offset,
                 const util::BitVec& bits);

  /// Writes the bits of `bits` whose `mask` bit is set and leaves the rest
  /// of the row untouched. Both vectors span the whole row
  /// (TotalRowBits()).
  void WriteRowMasked(unsigned bank, unsigned row, const util::BitVec& bits,
                      const util::BitVec& mask);

  /// One column access worth of data (AccessBits bits, beat-major).
  util::BitVec ReadColumn(const Address& addr) const;
  void WriteColumn(const Address& addr, const util::BitVec& data);

  // -- fault overlay -------------------------------------------------------

  /// Inverts the stored value once (transient fault).
  void InjectFlip(unsigned bank, unsigned row, unsigned bit);

  /// Forces the bit to read as `value` forever (permanent fault).
  void SetStuck(unsigned bank, unsigned row, unsigned bit, bool value);

  /// Drops all stuck-at entries (used between Monte-Carlo trials).
  void ClearStuck();

  /// Number of distinct stuck bits currently registered (diagnostics).
  std::size_t StuckCount() const noexcept { return stuck_count_; }

  // -- post-package repair ---------------------------------------------------

  /// JEDEC-style row sparing: retires (bank, row) onto a fresh spare row.
  /// Subsequent accesses to the address reach defect-free cells; previously
  /// stored content does NOT follow (the caller re-writes what it could
  /// recover, as real hPPR flows do). Each bank has `spare_rows_per_bank`
  /// repairs; returns false when the bank's budget is exhausted or the row
  /// was already repaired the maximum number of times.
  bool PostPackageRepair(unsigned bank, unsigned row);

  /// Spare rows still available in `bank`.
  unsigned SpareRowsLeft(unsigned bank) const;

  static constexpr unsigned kSpareRowsPerBank = 4;

 private:
  struct RowState {
    util::BitVec data;
    // Stuck-at overlay planes: bit i reads as stuck_value[i] wherever
    // stuck_mask[i] is set. Both stay empty until the row's first SetStuck.
    util::BitVec stuck_mask;
    util::BitVec stuck_value;
  };

  std::uint64_t RowKey(unsigned bank, unsigned row) const {
    CheckAddress(bank, row);
    return (static_cast<std::uint64_t>(bank) << 32) | row;
  }

  /// Resolves the logical address through the PPR remap table.
  std::uint64_t PhysicalKey(unsigned bank, unsigned row) const;

  void CheckAddress(unsigned bank, unsigned row) const;

  RowState& GetRow(unsigned bank, unsigned row);
  const RowState* FindRow(unsigned bank, unsigned row) const;

  DeviceGeometry geom_;
  mutable std::unordered_map<std::uint64_t, RowState> rows_;
  // PPR: logical row key -> spare physical id (top bit set to stay out of
  // the logical key space), plus the per-bank repair budget consumed.
  std::unordered_map<std::uint64_t, std::uint64_t> remap_;
  std::vector<unsigned> spares_used_;
  std::uint64_t next_spare_id_ = std::uint64_t{1} << 63;
  std::size_t stuck_count_ = 0;
};

}  // namespace pair_ecc::dram
