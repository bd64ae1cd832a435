#include "soc/core/dse_wire.hpp"

#include <stdexcept>
#include <string>

#include "dse_fields.hpp"

namespace soc::core {

namespace {

using dsoc::WireReader;
using dsoc::WireWriter;

using Writer = fields::FieldWriter<WireWriter, true>;

/// A sink that counts the words WireWriter would append for each call.
struct WordCounter {
  std::size_t words = 0;
  void u32(std::uint32_t) { words += 1; }
  void u64(std::uint64_t) { words += 2; }
  void i32(std::int32_t) { words += 2; }
  void f64(double) { words += 2; }
  void boolean(bool) { words += 1; }
  void str(std::string_view s) { words += 2 + (s.size() + 3) / 4; }
};

// The last enumerator of each enum the DSE values carry: decode rejects
// anything past it, so a corrupt stream can never smuggle an impossible
// kind into a switch downstream.
constexpr auto last_enumerator(noc::TopologyKind) {
  return noc::TopologyKind::kCrossbar;
}
constexpr auto last_enumerator(tech::Fabric) {
  return tech::Fabric::kHardwired;
}
constexpr auto last_enumerator(ConstraintViolationKind) {
  return ConstraintViolationKind::kUnmappedTask;
}
constexpr auto last_enumerator(noc::ReplayConfig::Mode) {
  return noc::ReplayConfig::Mode::kClosedLoop;
}

/// Decodes values through the member lists of dse_fields.hpp. Every
/// accessor throws std::invalid_argument on a truncated or malformed
/// stream: WireReader polices the scalars (canonical i32, boolean and
/// string padding), this class the enum ranges and element counts.
class Reader {
 public:
  explicit Reader(WireReader& r) : r_(r) {}

  template <class... M>
  void operator()(M&... m) {
    (get(m), ...);
  }
  void label(std::string& s) { s = r_.str(); }

  void get(bool& v) { v = r_.boolean(); }
  void get(std::int32_t& v) { v = r_.i32(); }
  void get(std::uint32_t& v) { v = r_.u32(); }
  void get(std::uint64_t& v) { v = r_.u64(); }
  void get(double& v) { v = r_.f64(); }
  void get(std::string& v) { v = r_.str(); }
  void get(ObjectiveSpace& v) { v = ObjectiveSpace::from_names(r_.str()); }
  void get(TaskGraph& v) {
    TaskGraph g(r_.str());
    std::vector<TaskNode> nodes;
    get(nodes);
    for (TaskNode& n : nodes) g.add_node(std::move(n));
    std::vector<TaskEdge> edges;
    get(edges);
    for (const TaskEdge& e : edges) g.add_edge(e);
    v = std::move(g);
  }
  // TaskGraph has no default constructor, so the scenario set cannot take
  // the generic vector path below.
  void get(ScenarioSet& v) {
    const std::size_t n = count();
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) get(v.emplace_back(""));
  }
  template <class E>
    requires std::is_enum_v<E>
  void get(E& v) {
    const std::uint32_t raw = r_.u32();
    if (raw > static_cast<std::uint32_t>(last_enumerator(E{}))) {
      throw std::invalid_argument("dse_wire: enum value " +
                                  std::to_string(raw) + " out of range");
    }
    v = static_cast<E>(raw);
  }
  template <class T>
  void get(std::vector<T>& v) {
    const std::size_t n = count();
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) get(v.emplace_back());
  }
  template <class T>
    requires requires(Reader& rd, T& t) { fields::members(rd, t); }
  void get(T& v) {
    fields::members(*this, v);
  }

 private:
  // Every element of any type costs at least one word, so a count beyond
  // remaining() is a lie about the stream and is rejected before any
  // allocation sized by it.
  std::size_t count() {
    const std::uint64_t n = r_.u64();
    if (n > r_.remaining()) {
      throw std::invalid_argument("dse_wire: element count " +
                                  std::to_string(n) +
                                  " overruns the remaining stream");
    }
    return static_cast<std::size_t>(n);
  }

  WireReader& r_;
};

template <class T>
std::vector<std::uint32_t> marshal(const T& v) {
  WireWriter w;
  Writer{w}(v);
  return w.take();
}

template <class T>
T unmarshal(std::span<const std::uint32_t> words) {
  WireReader r(words);
  T v;
  Reader{r}.get(v);
  r.expect_end();
  return v;
}

}  // namespace

void wire_put(WireWriter& w, const DsePoint& v) { Writer{w}(v); }

void wire_get(WireReader& r, DsePoint& v) { Reader{r}.get(v); }

std::size_t wire_words(const DsePoint& v) {
  WordCounter counter;
  fields::FieldWriter<WordCounter, true>{counter}(v);
  return counter.words;
}

void wire_put(WireWriter& w, const SweepRequest& v) { Writer{w}(v); }

void wire_get(WireReader& r, SweepRequest& v) { Reader{r}.get(v); }

std::vector<std::uint32_t> marshal_sweep_request(const SweepRequest& req) {
  return marshal(req);
}

SweepRequest unmarshal_sweep_request(std::span<const std::uint32_t> words) {
  return unmarshal<SweepRequest>(words);
}

std::vector<std::uint32_t> marshal_point(const DsePoint& pt) {
  return marshal(pt);
}

DsePoint unmarshal_point(std::span<const std::uint32_t> words) {
  return unmarshal<DsePoint>(words);
}

}  // namespace soc::core
