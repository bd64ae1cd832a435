#include "soc/svc/dse_service.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace soc::svc {

using core::DsePoint;
using core::FlatPointEval;
using core::ShardEvaluator;
using core::SweepRequest;

namespace {

/// The header of every service -> client message: a oneway call to the
/// client's stub (object 0: the terminal identifies it), with call id 1,
/// as the protocol correlates nothing by call id.
dsoc::CallHeader client_call(dsoc::MethodId method) {
  dsoc::CallHeader hdr;
  hdr.method = method;
  hdr.call = 1;
  return hdr;
}

/// A marshalled service -> client message.
std::vector<std::uint32_t> call(dsoc::MethodId method,
                                std::span<const std::uint32_t> args) {
  return dsoc::marshal_call(client_call(method), args);
}

/// A marshalled kPoint message, header and payload written into one
/// buffer that is sized before anything is written.
std::vector<std::uint32_t> point_call(std::uint32_t sweep, std::uint32_t stage,
                                      std::uint64_t index, const DsePoint& pt,
                                      const std::vector<DsePoint>& extras) {
  // [sweep id][stage][index u64][point][n extras u64][extras...]
  std::size_t argc = 1 + 1 + 2 + core::wire_words(pt) + 2;
  for (const DsePoint& e : extras) argc += core::wire_words(e);
  dsoc::WireWriter w;
  w.reserve(dsoc::kCallHeaderWords + argc);
  dsoc::put_call_header(w, client_call(svc_method::kPoint),
                        static_cast<std::uint32_t>(argc));
  w.u32(sweep);
  w.u32(stage);
  w.u64(index);
  core::wire_put(w, pt);
  w.u64(extras.size());
  for (const DsePoint& e : extras) core::wire_put(w, e);
  return w.take();
}

}  // namespace

DseService::DseService(tlm::MessageBus& bus, noc::TerminalId terminal,
                       DseServiceConfig cfg)
    : bus_(bus), terminal_(terminal) {
  bus_.attach(terminal_, *this);
  start(cfg);
}

DseService::DseService(dsoc::Broker& broker, tlm::MessageBus& bus,
                       noc::TerminalId terminal, DseServiceConfig cfg)
    : bus_(bus), terminal_(terminal) {
  broker.register_object(kServiceInterface, *this, kServiceObjectId, terminal_,
                         kServiceInterface);
  start(cfg);
}

DseService::~DseService() { stop(); }

void DseService::start(DseServiceConfig cfg) {
  cfg_ = cfg;
  if (cfg_.pool_threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    cfg_.pool_threads = hw == 0 ? 2 : static_cast<int>(hw);
  }
  if (cfg_.max_active < 1) {
    throw std::invalid_argument("DseService: max_active must be >= 1");
  }
  if (cfg_.max_queued < 0) {
    throw std::invalid_argument("DseService: max_queued must be >= 0");
  }
  pool_.reserve(static_cast<std::size_t>(cfg_.pool_threads));
  for (int i = 0; i < cfg_.pool_threads; ++i) {
    pool_.emplace_back([this] { pool_loop(); });
  }
}

void DseService::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : pool_) {
    if (t.joinable()) t.join();
  }
  // Pool threads drain what they claimed before they exit; a bus
  // dispatcher may still be draining an outbox it claimed in handle().
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return !sending_locked(); });
  lock.unlock();
  idle_cv_.notify_all();
}

void DseService::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return stop_ ||
           (active_.empty() && queued_.empty() && !sending_locked());
  });
}

ServiceStats DseService::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t DseService::active_sweeps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

std::size_t DseService::queued_sweeps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queued_.size();
}

// ---------------------------------------------------------------- protocol --

void DseService::handle(const tlm::Transaction& request, tlm::CompletionFn done) {
  std::vector<std::uint32_t> args;
  dsoc::CallHeader hdr;
  try {
    hdr = dsoc::unmarshal_call(request.payload, args);
  } catch (const std::exception&) {
    return;  // not a protocol frame; nothing to reply to
  }
  if (hdr.object != kServiceObjectId) return;
  switch (hdr.method) {
    case svc_method::kSubmit:
      on_submit(std::move(args));
      break;
    case svc_method::kCancel:
      on_cancel(std::move(args));
      break;
    default:
      break;  // unknown method: oneway protocol, drop
  }
  if (done) done(request);
}

// ------------------------------------------------------------------ outbox --

void DseService::post_locked(noc::TerminalId client,
                             std::vector<std::uint32_t> body) {
  outboxes_[client].queue.push_back(std::move(body));
}

bool DseService::sending_locked() const {
  return std::any_of(outboxes_.begin(), outboxes_.end(),
                     [](const auto& entry) { return entry.second.sending; });
}

void DseService::flush(std::unique_lock<std::mutex>& lock,
                       noc::TerminalId client) {
  const auto it = outboxes_.find(client);
  if (it == outboxes_.end() || it->second.sending ||
      it->second.queue.empty()) {
    return;
  }
  // This thread is now the client's only sender. The outbox stays put
  // while `sending` is set: only its sender erases it.
  Outbox& box = it->second;
  box.sending = true;
  std::deque<std::vector<std::uint32_t>> batch;
  while (!box.queue.empty()) {
    batch.swap(box.queue);
    lock.unlock();
    bool sent = true;
    for (std::vector<std::uint32_t>& body : batch) {
      try {
        bus_.message(terminal_, client, std::move(body));
      } catch (const std::exception&) {
        sent = false;  // detached terminal, dead connection, closed bus
        break;
      }
    }
    batch.clear();
    lock.lock();
    if (!sent) {
      box.queue.clear();  // the client is sent nothing further
      retire_client_locked(client);
    }
  }
  box.sending = false;
  const bool serving =
      client_jobs_.count(client) != 0 ||
      std::any_of(queued_.begin(), queued_.end(),
                  [client](const auto& j) { return j->client == client; });
  if (!serving) outboxes_.erase(it);
  if (stop_ || (active_.empty() && queued_.empty())) idle_cv_.notify_all();
}

void DseService::retire_client_locked(noc::TerminalId client) {
  for (auto it = queued_.begin(); it != queued_.end();) {
    if ((*it)->client == client) {
      ++stats_.cancelled;
      it = queued_.erase(it);
    } else {
      ++it;
    }
  }
  if (const auto cit = client_jobs_.find(client); cit != client_jobs_.end()) {
    const std::deque<std::uint32_t> ids = cit->second;  // retire edits it
    for (const std::uint32_t id : ids) {
      active_.at(id)->cancelled = true;  // in-flight units drop results
      ++stats_.cancelled;
      retire_locked(id);
    }
  }
  admit_queued_locked();
  if (active_.empty() && queued_.empty()) idle_cv_.notify_all();
}

void DseService::on_submit(std::vector<std::uint32_t> args) {
  dsoc::WireReader r(args);
  noc::TerminalId client = 0;
  std::uint32_t tag = 0;
  SweepRequest request;
  try {
    client = r.u32();
    tag = r.u32();
    core::wire_get(r, request);
    r.expect_end();
  } catch (const std::exception&) {
    return;  // malformed submit: no decodable reply address
  }

  std::shared_ptr<Job> job;
  std::string error;
  try {
    // Validates the whole request with the session's own checks (and
    // exception texts) before a pool slot is committed.
    auto shard = std::make_shared<ShardEvaluator>(
        request.problem, request.scenarios, request.space, request.anneal,
        request.config);
    job = std::make_shared<Job>();
    job->shard = std::move(shard);
    job->total = job->shard->grid_point_count();
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::unique_lock<std::mutex> lock(mu_);
  submit_locked(client, tag, job, error);
  flush(lock, client);
}

void DseService::submit_locked(noc::TerminalId client, std::uint32_t tag,
                               const std::shared_ptr<Job>& job,
                               const std::string& error) {
  ++stats_.submitted;
  if (!error.empty() || stop_) {
    ++stats_.errors;
    dsoc::WireWriter w;
    w.u32(tag);
    w.u32(0);
    w.str(stop_ ? "service stopping" : error);
    post_locked(client, call(svc_method::kError, w.words()));
    return;
  }
  const bool has_active_slot =
      active_.size() < static_cast<std::size_t>(cfg_.max_active);
  const bool has_queue_slot =
      queued_.size() < static_cast<std::size_t>(cfg_.max_queued);
  if (!has_active_slot && !has_queue_slot) {
    ++stats_.rejected_busy;
    dsoc::WireWriter w;
    w.u32(tag);
    w.u32(static_cast<std::uint32_t>(active_.size()));
    w.u32(static_cast<std::uint32_t>(queued_.size()));
    w.u32(static_cast<std::uint32_t>(cfg_.max_active));
    w.u32(static_cast<std::uint32_t>(cfg_.max_queued));
    post_locked(client, call(svc_method::kBusy, w.words()));
    return;
  }
  job->id = next_sweep_id_++;
  job->client = client;
  job->tag = tag;
  job->arrivals.reserve(job->total);
  ++stats_.accepted;
  dsoc::WireWriter w;
  w.u32(tag);
  w.u32(job->id);
  w.u64(job->total);
  w.boolean(!has_active_slot);
  post_locked(client, call(svc_method::kAccepted, w.words()));
  if (has_active_slot) {
    activate_locked(job);
  } else {
    queued_.push_back(job);
  }
}

void DseService::on_cancel(std::vector<std::uint32_t> args) {
  dsoc::WireReader r(args);
  noc::TerminalId client = 0;
  std::uint32_t id = 0;
  try {
    client = r.u32();
    id = r.u32();
    r.expect_end();
  } catch (const std::exception&) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  cancel_locked(client, id);
  flush(lock, client);
}

void DseService::cancel_locked(noc::TerminalId client, std::uint32_t id) {
  // Queued sweeps cancel without ever having run.
  const auto qit = std::find_if(
      queued_.begin(), queued_.end(),
      [&](const std::shared_ptr<Job>& j) { return j->id == id; });
  if (qit != queued_.end() && (*qit)->client == client) {
    const std::shared_ptr<Job> job = *qit;
    queued_.erase(qit);
    ++stats_.cancelled;
    dsoc::WireWriter w;
    w.u32(job->id);
    w.u64(0);
    post_locked(job->client, call(svc_method::kCancelled, w.words()));
    if (active_.empty() && queued_.empty()) idle_cv_.notify_all();
    return;
  }
  const auto it = active_.find(id);
  if (it == active_.end() || it->second->client != client) return;
  const std::shared_ptr<Job> job = it->second;
  job->cancelled = true;
  ++stats_.cancelled;
  dsoc::WireWriter w;
  w.u32(job->id);
  w.u64(job->completed);
  post_locked(job->client, call(svc_method::kCancelled, w.words()));
  // Prompt slot reclamation: the sweep leaves the scheduler *now*; any
  // in-flight evaluations drop their results on completion. The freed
  // slot admits the next queued sweep immediately.
  retire_locked(id);
  admit_queued_locked();
}

// -------------------------------------------------------------- scheduling --

void DseService::activate_locked(const std::shared_ptr<Job>& job) {
  active_.emplace(job->id, job);
  auto [it, fresh] = client_jobs_.try_emplace(job->client);
  it->second.push_back(job->id);
  if (fresh) client_rr_.push_back(job->client);
  work_cv_.notify_all();
}

void DseService::retire_locked(std::uint32_t job_id) {
  const auto it = active_.find(job_id);
  if (it == active_.end()) return;
  const noc::TerminalId client = it->second->client;
  active_.erase(it);
  const auto cit = client_jobs_.find(client);
  if (cit != client_jobs_.end()) {
    auto& jobs = cit->second;
    jobs.erase(std::remove(jobs.begin(), jobs.end(), job_id), jobs.end());
    if (jobs.empty()) {
      client_jobs_.erase(cit);
      client_rr_.erase(
          std::remove(client_rr_.begin(), client_rr_.end(), client),
          client_rr_.end());
    }
  }
  if (active_.empty() && queued_.empty()) idle_cv_.notify_all();
}

void DseService::admit_queued_locked() {
  while (!queued_.empty() &&
         active_.size() < static_cast<std::size_t>(cfg_.max_active)) {
    const std::shared_ptr<Job> job = queued_.front();
    queued_.pop_front();
    activate_locked(job);
  }
}

bool DseService::claim_unit_locked(const std::shared_ptr<Job>& job,
                                   WorkItem& out) {
  if (!job->has_unit()) return false;
  out.job = job;
  out.phase = job->phase;
  if (job->phase == 0) {
    out.index = job->next++;
  } else {
    out.index = job->layout.front[job->vnext++];
    out.parent = job->layout.parent(out.index);
  }
  return true;
}

bool DseService::take_work_locked(WorkItem& out) {
  // Two-level round robin: rotate over distinct clients, then over that
  // client's sweeps — a client with five queued-up sweeps cannot starve a
  // client with one.
  for (std::size_t c = 0; c < client_rr_.size(); ++c) {
    const noc::TerminalId client = client_rr_.front();
    client_rr_.pop_front();
    client_rr_.push_back(client);
    auto& jobs = client_jobs_[client];
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::uint32_t id = jobs.front();
      jobs.pop_front();
      jobs.push_back(id);
      const auto it = active_.find(id);
      if (it != active_.end() && claim_unit_locked(it->second, out)) {
        return true;
      }
    }
  }
  return false;
}

bool DseService::have_work_locked() const {
  return std::any_of(active_.begin(), active_.end(), [](const auto& entry) {
    return entry.second->has_unit();
  });
}

void DseService::pool_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || have_work_locked(); });
    if (stop_) return;
    WorkItem item;
    if (!take_work_locked(item)) continue;  // raced another thread
    lock.unlock();
    // Run the unit and marshal its kPoint outside the lock; record it (or
    // the failure) and queue the message under it.
    FlatPointEval ev;  // a validation fills only ev.point
    std::vector<std::uint32_t> point;
    std::string error;
    try {
      if (item.phase == 0) {
        ev = item.job->shard->evaluate(item.index);
      } else {
        ev.point = item.job->shard->validate(
            item.parent, item.job->layout.points[item.index]);
      }
      point = point_call(item.job->id,
                         item.phase == 0 ? kStageEvaluated : kStageValidated,
                         item.index, ev.point, ev.extras);
    } catch (const std::exception& e) {
      error = e.what();
    }
    lock.lock();
    if (!error.empty()) {
      fail_locked(item.job, error);
    } else if (item.job->cancelled || item.job->failed) {
      // Retired while the unit ran: drop its result.
    } else {
      // Queued before recording, so it precedes any kDone the unit ends
      // the sweep with.
      post_locked(item.job->client, std::move(point));
      ++stats_.points_streamed;
      if (item.phase == 0) {
        record_eval_locked(item.job, item.index, std::move(ev));
      } else {
        record_validated_locked(item.job, item.index, std::move(ev.point));
      }
    }
    flush(lock, item.job->client);
  }
}

// --------------------------------------------------------------- recording --

void DseService::record_eval_locked(const std::shared_ptr<Job>& job,
                                    std::size_t flat, FlatPointEval ev) {
  job->arrivals.add(flat, std::move(ev.point), std::move(ev.extras));
  ++job->completed;
  if (job->completed == job->total) finish_phase0_locked(job);
}

void DseService::finish_phase0_locked(const std::shared_ptr<Job>& job) {
  // The session layout and the session's own front marker.
  job->layout = core::lay_out_sweep(std::move(job->arrivals), job->total);
  job->layout.set_fronts(
      job->shard->mark_fronts(job->layout.points, job->layout.extra_parents));
  if (job->shard->config().validate_pareto && !job->layout.front.empty()) {
    job->phase = 1;
    work_cv_.notify_all();
    return;
  }
  complete_locked(job);
}

void DseService::record_validated_locked(const std::shared_ptr<Job>& job,
                                         std::size_t index, DsePoint pt) {
  job->layout.overlay_validated(index, std::move(pt));
  ++job->vdone;
  if (job->vdone == job->layout.front.size()) complete_locked(job);
}

void DseService::complete_locked(const std::shared_ptr<Job>& job) {
  const core::SweepLayout& layout = job->layout;
  dsoc::WireWriter w;
  w.u32(job->id);
  w.u64(layout.front.size());
  for (const std::size_t i : layout.front) w.u64(i);
  w.u64(layout.scenario_fronts.size());
  for (const auto& sf : layout.scenario_fronts) {
    w.u64(sf.size());
    for (const std::size_t i : sf) w.u64(i);
  }
  w.u64(job->completed);
  w.u64(job->vdone);
  ++stats_.completed;
  post_locked(job->client, call(svc_method::kDone, w.words()));
  retire_locked(job->id);
  admit_queued_locked();
}

void DseService::fail_locked(const std::shared_ptr<Job>& job,
                             const std::string& what) {
  if (job->cancelled || job->failed) return;  // already reported
  job->failed = true;
  ++stats_.errors;
  dsoc::WireWriter w;
  w.u32(job->tag);
  w.u32(job->id);
  w.str(what);
  post_locked(job->client, call(svc_method::kError, w.words()));
  retire_locked(job->id);
  admit_queued_locked();
}

}  // namespace soc::svc
