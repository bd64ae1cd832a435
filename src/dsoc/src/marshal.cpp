#include "soc/dsoc/marshal.hpp"

#include <cstring>
#include <stdexcept>

namespace soc::dsoc {

std::vector<std::uint32_t> marshal_call(const CallHeader& hdr,
                                        std::span<const std::uint32_t> args) {
  std::vector<std::uint32_t> body;
  body.reserve(kCallHeaderWords + args.size());
  body.push_back(hdr.object);
  body.push_back(hdr.method);
  body.push_back(hdr.call);
  body.push_back(hdr.reply_terminal);
  body.push_back(static_cast<std::uint32_t>(args.size()));
  body.insert(body.end(), args.begin(), args.end());
  return body;
}

void put_call_header(WireWriter& w, const CallHeader& hdr, std::uint32_t argc) {
  w.u32(hdr.object);
  w.u32(hdr.method);
  w.u32(hdr.call);
  w.u32(hdr.reply_terminal);
  w.u32(argc);
}

CallHeader unmarshal_call(std::span<const std::uint32_t> body,
                          std::vector<std::uint32_t>& args_out) {
  if (body.size() < kCallHeaderWords) {
    throw std::invalid_argument("unmarshal_call: truncated header");
  }
  CallHeader hdr;
  hdr.object = body[0];
  hdr.method = body[1];
  hdr.call = body[2];
  hdr.reply_terminal = body[3];
  if (hdr.reply_terminal != kNoReply &&
      hdr.reply_terminal > kMaxReplyTerminal) {
    throw std::invalid_argument("unmarshal_call: bogus reply terminal");
  }
  const std::uint32_t argc = body[4];
  if (body.size() < kCallHeaderWords + static_cast<std::size_t>(argc)) {
    throw std::invalid_argument("unmarshal_call: truncated arguments");
  }
  if (body.size() > kCallHeaderWords + static_cast<std::size_t>(argc)) {
    throw std::invalid_argument("unmarshal_call: trailing garbage after args");
  }
  args_out.assign(body.begin() + kCallHeaderWords,
                  body.begin() + kCallHeaderWords + argc);
  return hdr;
}

std::vector<std::uint32_t> marshal_reply(
    CallId call, std::span<const std::uint32_t> results) {
  std::vector<std::uint32_t> body;
  body.reserve(2 + results.size());
  body.push_back(call);
  body.push_back(static_cast<std::uint32_t>(results.size()));
  body.insert(body.end(), results.begin(), results.end());
  return body;
}

CallId unmarshal_reply(std::span<const std::uint32_t> body,
                       std::vector<std::uint32_t>& results_out) {
  if (body.size() < 2) throw std::invalid_argument("unmarshal_reply: truncated");
  const CallId call = body[0];
  const std::uint32_t retc = body[1];
  if (body.size() < 2 + static_cast<std::size_t>(retc)) {
    throw std::invalid_argument("unmarshal_reply: truncated results");
  }
  if (body.size() > 2 + static_cast<std::size_t>(retc)) {
    throw std::invalid_argument(
        "unmarshal_reply: trailing garbage after results");
  }
  results_out.assign(body.begin() + 2, body.begin() + 2 + retc);
  return call;
}

// ------------------------------------------------- typed word-stream codecs

void WireWriter::u64(std::uint64_t v) {
  words_.push_back(static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  words_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void WireWriter::i32(std::int32_t v) {
  u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

void WireWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(std::string_view s) {
  u64(static_cast<std::uint64_t>(s.size()));
  for (std::size_t i = 0; i < s.size(); i += 4) {
    std::uint32_t w = 0;
    for (std::size_t b = 0; b < 4 && i + b < s.size(); ++b) {
      w |= static_cast<std::uint32_t>(static_cast<unsigned char>(s[i + b]))
           << (8 * b);
    }
    words_.push_back(w);
  }
}

std::uint32_t WireReader::u32() {
  if (pos_ >= words_.size()) {
    throw std::invalid_argument("WireReader: truncated stream");
  }
  return words_[pos_++];
}

std::uint64_t WireReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

std::int32_t WireReader::i32() {
  // Canonical-form check: WireWriter::i32 sign-extends through i64, so the
  // only valid high words are 0x00000000 (bit 31 clear) and 0xFFFFFFFF
  // (bit 31 set). Anything else is a corrupt stream, not a wide integer —
  // and accepting it would break the injective-encoding contract above.
  const auto wide = static_cast<std::int64_t>(u64());
  const auto narrow = static_cast<std::int32_t>(wide);
  if (static_cast<std::int64_t>(narrow) != wide) {
    throw std::invalid_argument("WireReader: non-canonical i32");
  }
  return narrow;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const std::uint64_t len = u64();
  // Checked before the word count is derived so a hostile length cannot
  // overflow the arithmetic: remaining() words carry at most 4x that many
  // chars.
  if (len > static_cast<std::uint64_t>(remaining()) * 4u) {
    throw std::invalid_argument("WireReader: truncated string");
  }
  std::string s;
  s.reserve(static_cast<std::size_t>(len));
  for (std::size_t i = 0; i < static_cast<std::size_t>(len); i += 4) {
    const std::uint32_t w = words_[pos_++];
    for (std::size_t b = 0; b < 4; ++b) {
      if (i + b < static_cast<std::size_t>(len)) {
        s.push_back(static_cast<char>((w >> (8 * b)) & 0xFFu));
      } else if (((w >> (8 * b)) & 0xFFu) != 0) {
        // WireWriter zero-pads the final word; nonzero padding would decode
        // to a value that re-encodes differently, so reject it.
        throw std::invalid_argument("WireReader: nonzero string padding");
      }
    }
  }
  return s;
}

void WireReader::expect_end() const {
  if (!done()) {
    throw std::invalid_argument("WireReader: trailing garbage");
  }
}

}  // namespace soc::dsoc
