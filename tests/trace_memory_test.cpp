// Constant-memory acceptance test: a multi-gigabyte trace, generated on
// the fly by a procedural ByteSource, flows through StreamingTraceParser
// while a counting global allocator tracks the live-byte high-water mark.
// The whole parse must stay under a small fixed bound — megabytes, not the
// gigabytes the text occupies — or the "constant memory" claim is broken.
//
// The allocator override (counting_allocator.hpp) is process-global, so
// this test lives in its own binary and contains nothing else.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "counting_allocator.hpp"
#include "timing/request_source.hpp"
#include "util/contract.hpp"
#include "workload/byte_source.hpp"
#include "workload/trace_stream.hpp"

namespace pair_ecc::workload {
namespace {

// Emits `target_bytes`-plus of trace text without ever holding more than
// one refill block: "<cycle> R <bank> <row> <col>\n" with the cycle
// advancing a few ticks per line, formatted with to_chars in 64 KiB
// batches.
class SyntheticTraceBytes final : public ByteSource {
 public:
  explicit SyntheticTraceBytes(std::uint64_t target_bytes)
      : target_bytes_(target_bytes) {
    block_.reserve(kBlockBytes + 64);
  }

  std::uint64_t lines_emitted() const noexcept { return lines_; }
  std::uint64_t bytes_emitted() const noexcept { return bytes_; }

  std::size_t Read(char* out, std::size_t max) override {
    std::size_t written = 0;
    while (written < max) {
      if (pos_ >= block_.size()) {
        if (!Refill()) break;
      }
      const std::size_t n =
          std::min(max - written, block_.size() - pos_);
      std::memcpy(out + written, block_.data() + pos_, n);
      pos_ += n;
      written += n;
    }
    return written;
  }

  void Reset() override {
    // The differential tests cover replay; this source is single-pass.
    PAIR_CHECK(bytes_ == 0, "SyntheticTraceBytes: single-pass source");
  }

 private:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  bool Refill() {
    if (bytes_ >= target_bytes_) return false;
    block_.clear();
    pos_ = 0;
    char number[24];
    while (block_.size() < kBlockBytes && bytes_ + block_.size() < target_bytes_) {
      const auto append_number = [&](std::uint64_t value) {
        const auto [end, ec] =
            std::to_chars(number, number + sizeof(number), value);
        (void)ec;
        block_.append(number, static_cast<std::size_t>(end - number));
      };
      append_number(cycle_);
      block_ += (lines_ % 3 == 0) ? " W " : " R ";
      append_number(lines_ % 16);         // bank
      block_ += ' ';
      append_number((lines_ * 37) % 8192);  // row
      block_ += ' ';
      append_number((lines_ * 11) % 128);   // col
      block_ += '\n';
      cycle_ += 3 + (lines_ % 5);
      ++lines_;
    }
    bytes_ += block_.size();
    return !block_.empty();
  }

  std::uint64_t target_bytes_;
  std::uint64_t bytes_ = 0;
  std::uint64_t lines_ = 0;
  std::uint64_t cycle_ = 0;
  std::string block_;
  std::size_t pos_ = 0;
};

TEST(TraceMemory, MultiGigabyteParseStaysUnderSixteenMegabytes) {
  // 2.2 GB of text — far beyond any plausible buffer, small enough to
  // format + parse in seconds.
  constexpr std::uint64_t kTargetBytes = 2'200'000'000ull;
  constexpr std::size_t kBoundBytes = 16ull * 1024 * 1024;

  auto bytes = std::make_unique<SyntheticTraceBytes>(kTargetBytes);
  SyntheticTraceBytes* raw = bytes.get();
  StreamingTraceParser parser(std::move(bytes), "<synthetic>");

  std::uint64_t requests = 0;
  std::uint64_t arrival_sum = 0;
  timing::Request req;
  while (parser.Next(req)) {
    ++requests;
    arrival_sum += req.arrival & 0xff;  // consume the parse, cheaply
  }

  EXPECT_GE(raw->bytes_emitted(), kTargetBytes);
  EXPECT_EQ(requests, raw->lines_emitted());
  EXPECT_GT(arrival_sum, 0u);
  const std::size_t high = g_high_water.load(std::memory_order_relaxed);
  EXPECT_LT(high, kBoundBytes)
      << "high-water " << high << " bytes while parsing "
      << raw->bytes_emitted() << " bytes of trace text";
}

}  // namespace
}  // namespace pair_ecc::workload
