#include "soc/svc/dse_client.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace soc::svc {

using core::DsePoint;
using core::SweepRequest;

namespace {

/// The grid a service must report for `req`: the candidate axes' product
/// (an empty node axis sweeps one node) times the scenario count.
std::uint64_t request_grid(const SweepRequest& req) {
  const core::DseSpace& s = req.space;
  return std::uint64_t{std::max<std::size_t>(1, s.nodes.size())} *
         s.pe_counts.size() * s.thread_counts.size() * s.topologies.size() *
         s.fabrics.size() * req.scenarios.size();
}

/// Reads a u64-counted list of u64 indices, refusing a count the rest of
/// the message cannot hold before anything is sized from it.
std::vector<std::size_t> read_indices(dsoc::WireReader& r, const char* field) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / 2) {
    throw std::invalid_argument(std::string(field) +
                                " count overruns the message");
  }
  std::vector<std::size_t> out(static_cast<std::size_t>(n));
  for (std::size_t& i : out) i = static_cast<std::size_t>(r.u64());
  return out;
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string busy_message(std::uint32_t active, std::uint32_t queued,
                         std::uint32_t max_active, std::uint32_t max_queued) {
  return "DseService busy: " + std::to_string(active) + "/" +
         std::to_string(max_active) + " active, " + std::to_string(queued) +
         "/" + std::to_string(max_queued) + " queued";
}

}  // namespace

ServiceBusy::ServiceBusy(std::uint32_t active_, std::uint32_t queued_,
                         std::uint32_t max_active_, std::uint32_t max_queued_)
    : std::runtime_error(
          busy_message(active_, queued_, max_active_, max_queued_)),
      active(active_),
      queued(queued_),
      max_active(max_active_),
      max_queued(max_queued_) {}

DseClient::DseClient(tlm::MessageBus& bus, noc::TerminalId terminal,
                     noc::TerminalId service_terminal)
    : bus_(bus), terminal_(terminal), service_terminal_(service_terminal) {
  bus_.attach(terminal_, *this);
}

void DseClient::send(dsoc::MethodId method, std::vector<std::uint32_t> args) {
  dsoc::CallHeader hdr;
  hdr.object = kServiceObjectId;
  hdr.method = method;
  hdr.call = 1;  // oneway protocol: call ids are not correlated
  hdr.reply_terminal = dsoc::kNoReply;
  bus_.message(terminal_, service_terminal_, dsoc::marshal_call(hdr, args));
}

std::uint32_t DseClient::submit(const SweepRequest& request,
                                PointObserverFn on_point) {
  std::uint32_t tag = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    tag = next_tag_++;
    PendingSubmit& p = pending_[tag];
    p.request_grid = request_grid(request);
    p.on_point = std::move(on_point);
    p.t_submit = std::chrono::steady_clock::now();
  }
  dsoc::WireWriter w;
  w.u32(terminal_);
  w.u32(tag);
  core::wire_put(w, request);
  try {
    send(svc_method::kSubmit, w.take());
  } catch (...) {
    // Nothing will resolve the entry, and it holds the caller's observer.
    const std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(tag);
    throw;
  }

  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return pending_[tag].resolved; });
  const PendingSubmit p = std::move(pending_[tag]);
  pending_.erase(tag);
  if (p.busy) {
    throw ServiceBusy(p.busy_active, p.busy_queued, p.busy_max_active,
                      p.busy_max_queued);
  }
  if (!p.error.empty()) {
    throw std::runtime_error("DseClient: sweep refused: " + p.error);
  }
  return p.sweep_id;
}

void DseClient::cancel(std::uint32_t id) {
  dsoc::WireWriter w;
  w.u32(terminal_);
  w.u32(id);
  send(svc_method::kCancel, w.take());
}

SweepResult DseClient::wait(std::uint32_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = sweeps_.find(id);
  if (it == sweeps_.end()) {
    throw std::runtime_error("DseClient: unknown sweep id " +
                             std::to_string(id));
  }
  cv_.wait(lock, [&it] { return it->second.done; });
  SweepState st = std::move(it->second);
  sweeps_.erase(it);
  lock.unlock();
  if (!st.error.empty()) {
    throw std::runtime_error("DseClient: sweep failed: " + st.error);
  }

  SweepResult res;
  res.cancelled = st.cancelled;
  res.points_evaluated = st.evaluated;
  res.points_streamed = st.streamed;
  res.wall_ms = ms_between(st.t_submit, st.t_done);
  res.time_to_first_point_ms =
      st.first_seen ? ms_between(st.t_submit, st.t_first) : res.wall_ms;
  if (st.cancelled) {
    // Partial sweep: whatever grid points streamed, ascending flat order,
    // without front marking (the service never marked one).
    res.grid_points = static_cast<std::size_t>(st.grid);
    const std::vector<std::size_t>& flats = st.arrivals.flats;
    std::vector<std::size_t> order(flats.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&flats](std::size_t a, std::size_t b) {
                return flats[a] < flats[b];
              });
    for (const std::size_t k : order) {
      res.points.push_back(std::move(st.arrivals.points[k]));
    }
    return res;
  }

  // Each wire-supplied step is checked by the layout; a refusal names the
  // message it came from.
  const char* stage = "incomplete stream: ";
  try {
    static_cast<core::SweepLayout&>(res) = core::lay_out_sweep(
        std::move(st.arrivals), static_cast<std::size_t>(st.grid));
    stage = "kDone ";
    res.set_fronts(std::move(st.fronts));
    stage = "kPoint ";
    for (auto& [index, pt] : st.validated) {
      res.overlay_validated(static_cast<std::size_t>(index), std::move(pt));
    }
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("DseClient: ") + stage + e.what());
  }
  return res;
}

// ---------------------------------------------------------------- inbound ---

void DseClient::handle(const tlm::Transaction& request, tlm::CompletionFn) {
  std::vector<std::uint32_t> args;
  dsoc::CallHeader hdr;
  try {
    hdr = dsoc::unmarshal_call(request.payload, args);
  } catch (const std::exception&) {
    return;  // not a protocol frame
  }
  // kPoint and kDone lead with their sweep id, so even a malformed one
  // can fail its sweep instead of leaving wait() blocked forever.
  const bool names_sweep = (hdr.method == svc_method::kPoint ||
                            hdr.method == svc_method::kDone) &&
                           !args.empty();
  const std::uint32_t sweep_id = names_sweep ? args[0] : 0;
  try {
    switch (hdr.method) {
      case svc_method::kAccepted:
        on_accepted(std::move(args));
        break;
      case svc_method::kBusy:
        on_busy(std::move(args));
        break;
      case svc_method::kPoint:
        on_point_msg(std::move(args));
        break;
      case svc_method::kDone:
        on_done(std::move(args));
        break;
      case svc_method::kCancelled:
        on_cancelled(std::move(args));
        break;
      case svc_method::kError:
        on_error(std::move(args));
        break;
      default:
        break;
    }
  } catch (const std::invalid_argument& e) {
    // A decode failure. Never kill the dispatcher thread; other malformed
    // messages cannot be attributed to a sweep and are dropped.
    if (names_sweep) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (const auto it = sweeps_.find(sweep_id); it != sweeps_.end()) {
        fail_locked(it->second, std::string(hdr.method == svc_method::kPoint
                                                ? "kPoint: "
                                                : "kDone: ") +
                                    e.what());
      }
    }
  } catch (const std::exception&) {
    // E.g. a throwing observer: nothing to attribute, keep dispatching.
  }
}

void DseClient::on_accepted(std::vector<std::uint32_t> args) {
  dsoc::WireReader r(args);
  const std::uint32_t tag = r.u32();
  const std::uint32_t id = r.u32();
  const std::uint64_t grid = r.u64();
  r.boolean();  // queued flag: informational
  r.expect_end();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = pending_.find(tag);
  if (it == pending_.end()) return;
  it->second.resolved = true;
  it->second.sweep_id = id;
  // Register the sweep *here*, before any kPoint of it can be decoded:
  // the service sends kAccepted first and the bus is FIFO per sender.
  SweepState& st = sweeps_[id];
  st.on_point = it->second.on_point;
  st.t_submit = it->second.t_submit;
  if (grid != it->second.request_grid) {
    fail_locked(st, "kAccepted grid count " + std::to_string(grid) +
                        " differs from the request's " +
                        std::to_string(it->second.request_grid));
  } else {
    st.grid = grid;
    st.arrivals.reserve(static_cast<std::size_t>(grid));
  }
  cv_.notify_all();
}

void DseClient::on_busy(std::vector<std::uint32_t> args) {
  dsoc::WireReader r(args);
  const std::uint32_t tag = r.u32();
  const std::uint32_t active = r.u32();
  const std::uint32_t queued = r.u32();
  const std::uint32_t max_active = r.u32();
  const std::uint32_t max_queued = r.u32();
  r.expect_end();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = pending_.find(tag);
  if (it == pending_.end()) return;
  it->second.resolved = true;
  it->second.busy = true;
  it->second.busy_active = active;
  it->second.busy_queued = queued;
  it->second.busy_max_active = max_active;
  it->second.busy_max_queued = max_queued;
  cv_.notify_all();
}

void DseClient::on_point_msg(std::vector<std::uint32_t> args) {
  dsoc::WireReader r(args);
  const std::uint32_t id = r.u32();
  const std::uint32_t stage = r.u32();
  const std::uint64_t index = r.u64();
  DsePoint pt;
  core::wire_get(r, pt);
  // No reserve from the wire count: a bogus count fails on the first
  // missing point instead of sizing an allocation.
  const std::uint64_t n_extras = r.u64();
  std::vector<DsePoint> extras;
  for (std::uint64_t i = 0; i < n_extras; ++i) {
    DsePoint e;
    core::wire_get(r, e);
    extras.push_back(std::move(e));
  }
  r.expect_end();

  PointObserverFn observer;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = sweeps_.find(id);
    if (it == sweeps_.end() || it->second.done) return;
    SweepState& st = it->second;
    if (stage != kStageEvaluated && stage != kStageValidated) {
      fail_locked(st, "kPoint stage " + std::to_string(stage) + " unknown");
      return;
    }
    if (stage == kStageEvaluated && index >= st.grid) {
      fail_locked(st, "kPoint index " + std::to_string(index) +
                          " outside grid of " + std::to_string(st.grid));
      return;
    }
    if (!st.first_seen) {
      st.first_seen = true;
      st.t_first = std::chrono::steady_clock::now();
    }
    st.streamed += 1 + extras.size();
    observer = st.on_point;
    // The observer reads the point after the lock drops; copy only then.
    if (stage == kStageValidated) {
      st.validated.emplace_back(index, observer ? pt : std::move(pt));
    } else {
      const auto flat = static_cast<std::size_t>(index);
      if (observer) {
        st.arrivals.add(flat, pt, extras);
      } else {
        st.arrivals.add(flat, std::move(pt), std::move(extras));
      }
    }
  }
  // Observer runs outside the lock: it may call cancel() or block.
  if (observer) {
    observer(index, pt, stage == kStageValidated);
    for (const DsePoint& e : extras) observer(index, e, false);
  }
}

void DseClient::on_done(std::vector<std::uint32_t> args) {
  dsoc::WireReader r(args);
  const std::uint32_t id = r.u32();
  std::vector<std::size_t> front = read_indices(r, "kDone front");
  const std::uint64_t nscen = r.u64();
  if (nscen > r.remaining() / 2) {
    throw std::invalid_argument("kDone scenario-front count overruns the "
                                "message");
  }
  std::vector<std::vector<std::size_t>> sfronts;
  for (std::uint64_t s = 0; s < nscen; ++s) {
    sfronts.push_back(read_indices(r, "kDone scenario-front"));
  }
  const std::uint64_t evaluated = r.u64();
  r.u64();  // validated count: implied by the overlay stream
  r.expect_end();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sweeps_.find(id);
  if (it == sweeps_.end() || it->second.done) return;
  SweepState& st = it->second;
  st.fronts = {std::move(front), std::move(sfronts)};
  st.evaluated = evaluated;
  st.done = true;
  st.t_done = std::chrono::steady_clock::now();
  cv_.notify_all();
}

void DseClient::on_cancelled(std::vector<std::uint32_t> args) {
  dsoc::WireReader r(args);
  const std::uint32_t id = r.u32();
  const std::uint64_t evaluated = r.u64();
  r.expect_end();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sweeps_.find(id);
  if (it == sweeps_.end() || it->second.done) return;
  SweepState& st = it->second;
  st.cancelled = true;
  st.evaluated = evaluated;
  st.done = true;
  st.t_done = std::chrono::steady_clock::now();
  cv_.notify_all();
}

void DseClient::on_error(std::vector<std::uint32_t> args) {
  dsoc::WireReader r(args);
  const std::uint32_t tag = r.u32();
  const std::uint32_t id = r.u32();
  const std::string what = r.str();
  r.expect_end();
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto pit = pending_.find(tag); pit != pending_.end()) {
    pit->second.resolved = true;
    pit->second.error = what;
  }
  if (const auto sit = sweeps_.find(id); sit != sweeps_.end()) {
    fail_locked(sit->second, what);
  }
  cv_.notify_all();
}

void DseClient::fail_locked(SweepState& st, std::string what) {
  if (st.done) return;
  st.error = std::move(what);
  st.done = true;
  st.t_done = std::chrono::steady_clock::now();
  cv_.notify_all();
}

}  // namespace soc::svc
