#include "soc/svc/dse_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace soc::svc {

using core::DsePoint;
using core::FlatPointEval;
using core::ShardEvaluator;
using core::SweepRequest;

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
  idle_cv_.notify_all();
}

void DseService::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return stop_ || (active_.empty() && queued_.empty());
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

void DseService::send_locked(noc::TerminalId client, dsoc::MethodId method,
                             std::vector<std::uint32_t> args) {
  dsoc::CallHeader hdr;
  hdr.object = 0;  // client-side stub: the terminal identifies the target
  hdr.method = method;
  hdr.call = next_call_++;
  hdr.reply_terminal = dsoc::kNoReply;
  try {
    bus_.message(terminal_, client, dsoc::marshal_call(hdr, args));
  } catch (const std::exception&) {
    // Client gone (detached terminal, dead socket): the sweep keeps
    // running server-side; nothing useful to do with the send failure.
  }
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

  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (!error.empty() || stop_) {
    ++stats_.errors;
    dsoc::WireWriter w;
    w.u32(tag);
    w.u32(0);
    w.str(stop_ ? "service stopping" : error);
    send_locked(client, svc_method::kError, w.take());
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
    send_locked(client, svc_method::kBusy, w.take());
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
  send_locked(client, svc_method::kAccepted, w.take());
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
  const std::lock_guard<std::mutex> lock(mu_);
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
    send_locked(job->client, svc_method::kCancelled, w.take());
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
  send_locked(job->client, svc_method::kCancelled, w.take());
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
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this] { return stop_ || have_work_locked(); });
      if (stop_) return;
      if (!take_work_locked(item)) continue;  // raced another thread
    }
    // Run the unit outside the lock; record it (or the failure) under it.
    FlatPointEval ev;  // a validation fills only ev.point
    std::string error;
    try {
      if (item.phase == 0) {
        ev = item.job->shard->evaluate(item.index);
      } else {
        ev.point = item.job->shard->validate(
            item.parent, item.job->layout.points[item.index]);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (!error.empty()) {
      fail_locked(item.job, error);
    } else if (item.job->cancelled || item.job->failed) {
      // Retired while the unit ran: drop its result.
    } else if (item.phase == 0) {
      record_eval_locked(item.job, item.index, std::move(ev));
    } else {
      record_validated_locked(item.job, item.index, std::move(ev.point));
    }
  }
}

// --------------------------------------------------------------- recording --

void DseService::stream_point_locked(const Job& job, std::uint32_t stage,
                                     std::uint64_t index, const DsePoint& pt,
                                     const std::vector<DsePoint>& extras) {
  dsoc::WireWriter w;
  w.u32(job.id);
  w.u32(stage);
  w.u64(index);
  core::wire_put(w, pt);
  w.u64(extras.size());
  for (const DsePoint& e : extras) core::wire_put(w, e);
  ++stats_.points_streamed;
  send_locked(job.client, svc_method::kPoint, w.take());
}

void DseService::record_eval_locked(const std::shared_ptr<Job>& job,
                                    std::size_t flat, FlatPointEval ev) {
  stream_point_locked(*job, kStageEvaluated, flat, ev.point, ev.extras);
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
  stream_point_locked(*job, kStageValidated, index,
                      job->layout.points[index], {});
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
  send_locked(job->client, svc_method::kDone, w.take());
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
  send_locked(job->client, svc_method::kError, w.take());
  retire_locked(job->id);
  admit_queued_locked();
}

}  // namespace soc::svc
