#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace soc::dsoc {

/// Object and method identifiers of the DSOC (Distributed System Object
/// Component) model — the paper's lightweight CORBA-inspired programming
/// model (Section 7.2): objects live behind NoC terminals, invocations are
/// marshalled messages, and the mapping of objects to processors is a tool
/// decision rather than a source-code property.
using ObjectId = std::uint32_t;
using MethodId = std::uint32_t;
using CallId = std::uint32_t;

/// Reply terminal value meaning "oneway call, no reply expected".
inline constexpr std::uint32_t kNoReply = 0xFFFFFFFFu;

/// Largest reply-terminal value unmarshal_call accepts besides kNoReply.
/// Terminal ids are small dense indices; anything in (kMaxReplyTerminal,
/// kNoReply) is a corrupt header, not a plausible terminal.
inline constexpr std::uint32_t kMaxReplyTerminal = 0x7FFFFFFFu;

/// Wire format of an invocation message (32-bit words):
///   [0] object id     [1] method id   [2] call id
///   [3] reply terminal (kNoReply for oneway)
///   [4] argc          [5...] args
struct CallHeader {
  ObjectId object = 0;
  MethodId method = 0;
  CallId call = 0;
  std::uint32_t reply_terminal = kNoReply;
};

inline constexpr std::size_t kCallHeaderWords = 5;

/// Serializes an invocation.
std::vector<std::uint32_t> marshal_call(const CallHeader& hdr,
                                        std::span<const std::uint32_t> args);

/// Parses an invocation. Strict: throws std::invalid_argument on a
/// truncated header, an argc that overruns (or undershoots — trailing
/// garbage) the body, or a bogus reply terminal (neither kNoReply nor
/// <= kMaxReplyTerminal). Never reads outside `body`.
CallHeader unmarshal_call(std::span<const std::uint32_t> body,
                          std::vector<std::uint32_t>& args_out);

/// Wire format of a reply message: [0] call id, [1] retc, [2...] results.
std::vector<std::uint32_t> marshal_reply(CallId call,
                                         std::span<const std::uint32_t> results);

/// Parses a reply. Strict like unmarshal_call: a truncated header, a retc
/// overrunning the body, or trailing words all throw std::invalid_argument.
CallId unmarshal_reply(std::span<const std::uint32_t> body,
                       std::vector<std::uint32_t>& results_out);

// --- typed word-stream codecs ----------------------------------------------
//
// WireWriter/WireReader extend the 32-bit-word wire format with the injective
// serialization discipline of soc::core::EvalCache's canonical keys: every
// scalar is fixed-width (u32 = 1 word; u64/i64/f64 = 2 words, little-endian
// word order; doubles travel as their IEEE-754 bit pattern), strings are
// u64-length-prefixed with 4 chars packed per word, and containers serialize
// a u64 element count before their elements. Equal byte streams therefore
// decode to equal values and vice versa — the property the distributed DSE
// sweep's bit-identical merge contract rests on.

/// Append-only typed writer over a word vector (the args/results payload of
/// a marshalled call or reply).
class WireWriter {
 public:
  /// Sizes the buffer for `words` words in total, so a writer that knows
  /// its message length allocates once.
  void reserve(std::size_t words) { words_.reserve(words); }
  /// One 32-bit word.
  void u32(std::uint32_t v) { words_.push_back(v); }
  /// Two words, low word first.
  void u64(std::uint64_t v);
  /// Sign-preserving i32 (sign-extended through u64).
  void i32(std::int32_t v);
  /// IEEE-754 bit pattern via u64.
  void f64(double v);
  /// One word, 0 or 1.
  void boolean(bool v) { words_.push_back(v ? 1u : 0u); }
  /// u64 length prefix, then 4 chars per word (last word zero-padded).
  void str(std::string_view s);

  /// Words written so far.
  std::size_t size() const noexcept { return words_.size(); }
  /// Moves the accumulated words out (the writer is then empty).
  std::vector<std::uint32_t> take() { return std::move(words_); }
  /// The accumulated words, in place.
  const std::vector<std::uint32_t>& words() const noexcept { return words_; }

 private:
  std::vector<std::uint32_t> words_;
};

/// Bounds-checked typed reader over a word span. Every accessor throws
/// std::invalid_argument (never reads out of bounds) when the stream is
/// shorter than the requested value — the same strictness contract as
/// unmarshal_call.
class WireReader {
 public:
  /// Reads from `words` (not owned; must outlive the reader).
  explicit WireReader(std::span<const std::uint32_t> words) : words_(words) {}

  /// One 32-bit word.
  std::uint32_t u32();
  /// Two words, low word first.
  std::uint64_t u64();
  /// Sign-preserving i32 (see WireWriter::i32). Throws on a u64 pattern
  /// no i32 sign-extends to.
  std::int32_t i32();
  /// IEEE-754 bit pattern via u64.
  double f64();
  /// One word; strictly 0 or 1 (anything else throws — WireWriter only
  /// ever emits those two, and a lax decode would break injectivity).
  bool boolean() {
    const std::uint32_t v = u32();
    if (v > 1u) {
      throw std::invalid_argument("WireReader: non-canonical boolean");
    }
    return v == 1u;
  }
  /// u64 length prefix, then packed chars.
  std::string str();

  /// Words not yet consumed.
  std::size_t remaining() const noexcept { return words_.size() - pos_; }
  /// True when the stream is fully consumed.
  bool done() const noexcept { return pos_ == words_.size(); }
  /// Throws std::invalid_argument unless the stream is fully consumed —
  /// the trailing-garbage check decoders end with.
  void expect_end() const;

 private:
  std::span<const std::uint32_t> words_;
  std::size_t pos_ = 0;
};

/// Writes an invocation header announcing `argc` argument words into `w`;
/// the caller then writes exactly those words. The result equals
/// marshal_call's, without first building the arguments in a vector of
/// their own.
void put_call_header(WireWriter& w, const CallHeader& hdr, std::uint32_t argc);

}  // namespace soc::dsoc
