#pragma once

// A 128-bit digest for pinning a stream of values in a test: two independent
// 64-bit lanes (FNV-1a and a multiply-xorshift mix) plus the value count, so
// a pinned result fits on a line and any drift in any value changes it.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace soc {

struct PinnedDigest {
  std::size_t words = 0;
  std::uint64_t fnv = 0xcbf29ce484222325ull;
  std::uint64_t mix = 0x9e3779b97f4a7c15ull;
  bool operator==(const PinnedDigest&) const = default;

  void add(std::uint64_t w) {
    ++words;
    fnv = (fnv ^ w) * 0x100000001b3ull;
    mix = (mix ^ w) * 0xbf58476d1ce4e5b9ull;
    mix ^= mix >> 31;
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

inline std::ostream& operator<<(std::ostream& os, const PinnedDigest& d) {
  return os << "{" << d.words << ", 0x" << std::hex << d.fnv << ", 0x"
            << d.mix << std::dec << "}";
}

}  // namespace soc
