#include "secure/topology.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "obs/metrics.h"
#include "secure/protocol.h"

namespace simcloud {
namespace secure {

namespace {

using Clock = std::chrono::steady_clock;

obs::Counter* DownsCounter() {
  static obs::Counter* const counter = obs::Registry::Default().GetCounter(
      "simcloud_failover_downs_total");
  return counter;
}

obs::Counter* ReconnectsCounter() {
  static obs::Counter* const counter = obs::Registry::Default().GetCounter(
      "simcloud_failover_reconnects_total");
  return counter;
}

obs::Counter* ReplayedCounter() {
  static obs::Counter* const counter = obs::Registry::Default().GetCounter(
      "simcloud_failover_replayed_requests_total");
  return counter;
}

obs::Counter* StaleCounter() {
  static obs::Counter* const counter = obs::Registry::Default().GetCounter(
      "simcloud_failover_stale_replicas_total");
  return counter;
}

/// Requests parked for replay across every replica channel (delta-kept:
/// each channel adds on enqueue, subtracts on drain/overflow).
obs::Gauge* ReplayDepthGauge() {
  static obs::Gauge* const gauge = obs::Registry::Default().GetGauge(
      "simcloud_failover_replay_queue_depth");
  return gauge;
}

/// True when a Collect failure means the peer processed the request and
/// rejected it (the stream itself is fine): surface it to the caller,
/// do not fail over. Timeouts and broken streams return false.
bool IsRemoteRejection(const std::shared_ptr<net::TcpTransport>& transport,
                       const Status& status) {
  return status.code() != StatusCode::kDeadlineExceeded &&
         transport->stream_status().ok();
}

}  // namespace

std::string ShardEndpoint::ToString() const {
  return host + ":" + std::to_string(port);
}

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kUp: return "up";
    case ShardHealth::kDegraded: return "degraded";
    case ShardHealth::kDown: return "down";
  }
  return "unknown";
}

ShardHealth ShardTopologyStatus::health() const {
  ShardHealth best = ShardHealth::kDown;
  for (const auto& replica : replicas) {
    if (static_cast<uint8_t>(replica.health) < static_cast<uint8_t>(best)) {
      best = replica.health;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// ReplicaChannel

ReplicaChannel::ReplicaChannel(ShardEndpoint endpoint,
                               net::ChannelPolicy policy,
                               net::SecureChannelOptions secure,
                               TopologyOptions options)
    : endpoint_(std::move(endpoint)),
      policy_(policy),
      secure_(std::move(secure)),
      options_(options),
      backoff_ms_(options.backoff_initial_ms),
      next_reconnect_(Clock::now()),
      jitter_(options.jitter_seed ^
              std::hash<std::string>()(endpoint_.ToString())) {}

void ReplicaChannel::AdoptTransport(
    std::shared_ptr<net::TcpTransport> transport) {
  std::lock_guard<std::mutex> lock(mutex_);
  transport_ = std::move(transport);
  health_ = ShardHealth::kUp;
  consecutive_probe_failures_ = 0;
}

std::shared_ptr<net::TcpTransport> ReplicaChannel::AcquireForRead(
    bool degraded_ok) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (health_ == ShardHealth::kUp ||
      (degraded_ok && health_ == ShardHealth::kDegraded)) {
    return transport_;
  }
  return nullptr;
}

std::shared_ptr<net::TcpTransport> ReplicaChannel::BeginWrite(
    const Bytes& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (transport_ && health_ != ShardHealth::kDown) return transport_;
  if (stale_) return nullptr;
  // Down: buffer for replay. The decision and the enqueue are one
  // critical section against TryReconnect's drain-then-promote, so a
  // write can never slip between "replay finished" and "replica live".
  replay_bytes_ += request.size();
  if (replay_bytes_ > options_.max_replay_bytes) {
    stale_ = true;
    StaleCounter()->Add(1);
    ReplayDepthGauge()->Add(-static_cast<int64_t>(replay_.size()));
    replay_.clear();
    replay_bytes_ = 0;
    return nullptr;
  }
  replay_.push_back(request);
  ReplayDepthGauge()->Add(1);
  return nullptr;
}

void ReplicaChannel::EnqueueReplay(const Bytes& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stale_) return;
  replay_bytes_ += request.size();
  if (replay_bytes_ > options_.max_replay_bytes) {
    stale_ = true;
    StaleCounter()->Add(1);
    ReplayDepthGauge()->Add(-static_cast<int64_t>(replay_.size()));
    replay_.clear();
    replay_bytes_ = 0;
    return;
  }
  replay_.push_back(request);
  ReplayDepthGauge()->Add(1);
}

void ReplicaChannel::MarkFailure(
    const std::shared_ptr<net::TcpTransport>& transport,
    const Status& reason) {
  std::shared_ptr<net::TcpTransport> victim;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (transport != transport_) return;  // stale report about a replaced conn
    victim = std::move(transport_);
    transport_.reset();
    health_ = ShardHealth::kDown;
    DownsCounter()->Add(1);
    consecutive_probe_failures_ = 0;
    ScheduleReconnectLocked();
  }
  if (victim) victim->Abort(reason);
}

void ReplicaChannel::Probe() {
  std::shared_ptr<net::TcpTransport> transport;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (health_ == ShardHealth::kDown || !transport_) return;
    transport = transport_;
  }
  auto ticket = transport->Submit(EncodePingRequest());
  Result<Bytes> pong =
      ticket.ok()
          ? transport->CollectFor(*ticket, options_.probe_timeout_ms)
          : Result<Bytes>(ticket.status());
  if (pong.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (transport == transport_ && health_ != ShardHealth::kDown) {
      consecutive_probe_failures_ = 0;
      health_ = ShardHealth::kUp;
    }
    return;
  }
  bool harden = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++probe_failures_total_;
    if (transport != transport_) return;
    if (pong.status().code() == StatusCode::kDeadlineExceeded) {
      // Timed out but the stream is intact: degrade first, and only a
      // run of timeouts kills the connection. The probe's ticket stays
      // parked on the transport — harmless, and the count of leaked
      // tickets is bounded by failures_to_down.
      ++consecutive_probe_failures_;
      if (consecutive_probe_failures_ < options_.failures_to_down) {
        health_ = ShardHealth::kDegraded;
        return;
      }
      harden = true;
    } else {
      harden = true;  // stream-level failure: no second chance
    }
  }
  if (harden) MarkFailure(transport, pong.status());
}

bool ReplicaChannel::ReconnectDue() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_ == ShardHealth::kDown && !stale_ &&
         Clock::now() >= next_reconnect_;
}

void ReplicaChannel::TryReconnect() {
  auto dialed =
      net::TcpTransport::Connect(endpoint_.host, endpoint_.port, policy_,
                                 secure_);
  if (!dialed.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ScheduleReconnectLocked();
    return;
  }
  std::shared_ptr<net::TcpTransport> fresh = std::move(dialed).value();
  // Verify the connection end to end (handler reachable, records flow)
  // before trusting it with replay.
  auto ticket = fresh->Submit(EncodePingRequest());
  Result<Bytes> pong =
      ticket.ok() ? fresh->CollectFor(*ticket, options_.probe_timeout_ms)
                  : Result<Bytes>(ticket.status());
  if (!pong.ok()) {
    fresh->Abort(pong.status());
    std::lock_guard<std::mutex> lock(mutex_);
    ScheduleReconnectLocked();
    return;
  }
  // Drain the replay buffer in order, then promote atomically: the
  // queue-empty check and the promotion share one critical section with
  // BeginWrite's enqueue, so no write is ever skipped.
  for (;;) {
    Bytes request;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stale_) {
        break;  // overflowed while we were reconnecting; stay down
      }
      if (replay_.empty()) {
        transport_ = std::move(fresh);
        health_ = ShardHealth::kUp;
        consecutive_probe_failures_ = 0;
        ++reconnects_;
        ReconnectsCounter()->Add(1);
        backoff_ms_ = options_.backoff_initial_ms;
        return;
      }
      request = replay_.front();
    }
    Status applied = ReplayOne(fresh, request);
    if (!applied.ok()) {
      fresh->Abort(applied);
      std::lock_guard<std::mutex> lock(mutex_);
      ScheduleReconnectLocked();
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (!replay_.empty()) {
      replay_bytes_ -= std::min(replay_bytes_, replay_.front().size());
      replay_.pop_front();
      ReplayedCounter()->Add(1);
      ReplayDepthGauge()->Add(-1);
    }
  }
  fresh->Abort(Status::NetworkError("replica marked stale during reconnect"));
}

Status ReplicaChannel::ReplayOne(
    const std::shared_ptr<net::TcpTransport>& transport,
    const Bytes& request) {
  auto ticket = transport->Submit(request);
  if (!ticket.ok()) return ticket.status();
  auto response = transport->CollectFor(*ticket, options_.replay_timeout_ms);
  if (response.ok()) return Status::OK();
  // A rejection over a healthy stream means the peer processed the
  // write (at-least-once replay can re-apply one it already saw — e.g.
  // a delete now reporting NotFound): the item is settled, drop it.
  if (IsRemoteRejection(transport, response.status())) return Status::OK();
  return response.status();
}

void ReplicaChannel::MarkStale() {
  std::shared_ptr<net::TcpTransport> victim;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stale_ = true;
    replay_.clear();
    replay_bytes_ = 0;
    health_ = ShardHealth::kDown;
    victim = std::move(transport_);
    transport_.reset();
  }
  if (victim) victim->Abort(Status::NetworkError("replica marked stale"));
}

ShardHealth ReplicaChannel::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return health_;
}

ReplicaStatus ReplicaChannel::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ReplicaStatus status;
  status.endpoint = endpoint_;
  status.health = health_;
  status.stale = stale_;
  status.reconnects = reconnects_;
  status.probe_failures = probe_failures_total_;
  status.replay_queued = replay_.size();
  return status;
}

void ReplicaChannel::ScheduleReconnectLocked() {
  double factor = jitter_.NextUniform(1.0 - options_.backoff_jitter,
                                      1.0 + options_.backoff_jitter);
  int delay_ms = std::max(1, static_cast<int>(backoff_ms_ * factor));
  next_reconnect_ = Clock::now() + std::chrono::milliseconds(delay_ms);
  backoff_ms_ = std::min(backoff_ms_ * 2, options_.backoff_max_ms);
}

// ---------------------------------------------------------------------------
// ReplicaGroupChannel

ReplicaGroupChannel::ReplicaGroupChannel(
    std::vector<std::unique_ptr<ReplicaChannel>> replicas,
    TopologyOptions options)
    : options_(options), replicas_(std::move(replicas)) {}

ReplicaGroupChannel::~ReplicaGroupChannel() = default;

bool ReplicaGroupChannel::IsWriteOp(const Bytes& request) {
  if (request.empty()) return false;
  switch (static_cast<Op>(request[0])) {
    case Op::kInsertBatch:
    case Op::kDeleteBatch:
      return true;
    default:
      return false;
  }
}

bool ReplicaGroupChannel::IsCompactOp(const Bytes& request) {
  return !request.empty() && static_cast<Op>(request[0]) == Op::kCompact;
}

Result<uint64_t> ReplicaGroupChannel::Submit(const Bytes& request) {
  if (IsWriteOp(request)) return SubmitFanned(request, /*replay_on_down=*/true);
  if (IsCompactOp(request)) {
    return SubmitFanned(request, /*replay_on_down=*/false);
  }
  return SubmitRead(request);
}

Result<Bytes> ReplicaGroupChannel::Collect(uint64_t ticket) {
  PendingRead read;
  PendingWrite write;
  bool is_read = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto read_it = reads_.find(ticket);
    if (read_it != reads_.end()) {
      read = std::move(read_it->second);
      reads_.erase(read_it);
      is_read = true;
    } else {
      auto write_it = writes_.find(ticket);
      if (write_it == writes_.end()) {
        return Status::InvalidArgument("unknown or already collected ticket");
      }
      write = std::move(write_it->second);
      writes_.erase(write_it);
    }
  }
  return is_read ? CollectRead(std::move(read))
                 : CollectWrite(std::move(write));
}

Result<ReplicaGroupChannel::PendingRead> ReplicaGroupChannel::RouteRead(
    const Bytes& request) {
  const size_t n = replicas_.size();
  size_t start;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    start = rr_next_++ % n;
  }
  Status last = Status::NetworkError("no live replica");
  // Pass 0 routes only to kUp replicas; pass 1 admits kDegraded ones.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      size_t r = (start + i) % n;
      auto transport = replicas_[r]->AcquireForRead(/*degraded_ok=*/pass == 1);
      if (!transport) continue;
      auto inner = transport->Submit(request);
      if (inner.ok()) {
        PendingRead pending;
        pending.request = request;
        pending.replica = r;
        pending.transport = std::move(transport);
        pending.inner = *inner;
        return pending;
      }
      replicas_[r]->MarkFailure(transport, inner.status());
      last = inner.status();
    }
  }
  return Status::NetworkError("shard unavailable (" + last.ToString() + ")");
}

Result<uint64_t> ReplicaGroupChannel::SubmitRead(const Bytes& request) {
  SIMCLOUD_ASSIGN_OR_RETURN(PendingRead pending, RouteRead(request));
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t ticket = next_ticket_++;
  reads_.emplace(ticket, std::move(pending));
  return ticket;
}

Result<uint64_t> ReplicaGroupChannel::SubmitFanned(const Bytes& request,
                                                   bool replay_on_down) {
  // One fan-out at a time: every replica sees writes in the same order,
  // keeping the replica set byte-identical.
  std::lock_guard<std::mutex> write_lock(write_mutex_);
  bool any_live = false;
  for (const auto& replica : replicas_) {
    if (replica->health() != ShardHealth::kDown) {
      any_live = true;
      break;
    }
  }
  if (!any_live) {
    // Refuse outright rather than buffering a write the caller will see
    // fail: nothing is enqueued, so a rejected write is never silently
    // applied by a later replay.
    return Status::NetworkError("shard unavailable: all replicas down");
  }
  PendingWrite pending;
  pending.request = request;
  pending.replay = replay_on_down;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    std::shared_ptr<net::TcpTransport> transport;
    if (replay_on_down) {
      transport = replicas_[r]->BeginWrite(request);
      if (!transport) {
        ++pending.queued_for_replay;  // buffered (or stale: dropped)
        continue;
      }
    } else {
      transport = replicas_[r]->AcquireForRead(/*degraded_ok=*/true);
      if (!transport) continue;
    }
    auto inner = transport->Submit(request);
    if (!inner.ok()) {
      replicas_[r]->MarkFailure(transport, inner.status());
      if (replay_on_down) {
        replicas_[r]->EnqueueReplay(request);
        ++pending.queued_for_replay;
      }
      continue;
    }
    PendingWrite::Leg leg;
    leg.replica = r;
    leg.transport = std::move(transport);
    leg.inner = *inner;
    pending.legs.push_back(std::move(leg));
  }
  if (pending.legs.empty()) {
    return Status::NetworkError(
        "shard unavailable: no replica accepted the request");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t ticket = next_ticket_++;
  writes_.emplace(ticket, std::move(pending));
  return ticket;
}

Result<Bytes> ReplicaGroupChannel::CollectRead(PendingRead pending) {
  // Each failed attempt takes its replica out of rotation, so the retry
  // loop is bounded by the replica count.
  for (size_t attempt = 0; attempt <= replicas_.size(); ++attempt) {
    auto response = pending.transport->Collect(pending.inner);
    if (response.ok()) return response;
    if (IsRemoteRejection(pending.transport, response.status())) {
      return response;  // the peer answered; this is an application error
    }
    replicas_[pending.replica]->MarkFailure(pending.transport,
                                            response.status());
    auto rerouted = RouteRead(pending.request);
    if (!rerouted.ok()) return response.status();
    pending = std::move(rerouted).value();
  }
  return Status::NetworkError("read failed over on every replica");
}

Result<Bytes> ReplicaGroupChannel::CollectWrite(PendingWrite pending) {
  bool have_ok = false;
  Bytes ok_payload;
  Status first_error = Status::OK();
  for (auto& leg : pending.legs) {
    auto response = leg.transport->Collect(leg.inner);
    if (response.ok()) {
      if (!have_ok) {
        ok_payload = std::move(response).value();
        have_ok = true;
      }
      continue;
    }
    if (IsRemoteRejection(leg.transport, response.status())) {
      // Deterministic application error (e.g. delete of an unknown id);
      // identical replicas reject identically. Surface it, don't retry.
      if (first_error.ok()) first_error = response.status();
      continue;
    }
    // The stream died with the write in flight: uncertain whether it
    // applied. Queue for at-least-once replay (write opcodes tolerate
    // re-application) and fail the replica over.
    replicas_[leg.replica]->MarkFailure(leg.transport, response.status());
    if (pending.replay) replicas_[leg.replica]->EnqueueReplay(pending.request);
    if (first_error.ok()) first_error = response.status();
  }
  if (have_ok) return ok_payload;
  if (!first_error.ok()) return first_error;
  return Status::NetworkError("write failed on every replica");
}

ShardTopologyStatus ReplicaGroupChannel::Snapshot() const {
  ShardTopologyStatus status;
  status.replicas.reserve(replicas_.size());
  for (const auto& replica : replicas_) {
    status.replicas.push_back(replica->Snapshot());
  }
  return status;
}

// ---------------------------------------------------------------------------
// TopologyMonitor

TopologyMonitor::TopologyMonitor(std::vector<ReplicaGroupChannel*> groups,
                                 TopologyOptions options)
    : options_(options), groups_(std::move(groups)) {
  thread_ = std::thread([this] { Loop(); });
}

TopologyMonitor::~TopologyMonitor() { Stop(); }

void TopologyMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TopologyMonitor::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait_for(lock,
                 std::chrono::milliseconds(options_.probe_interval_ms),
                 [this] { return stop_; });
    if (stop_) return;
    lock.unlock();
    for (ReplicaGroupChannel* group : groups_) {
      for (size_t i = 0; i < group->replica_count(); ++i) {
        ReplicaChannel* replica = group->replica(i);
        if (replica->health() == ShardHealth::kDown) {
          if (replica->ReconnectDue()) replica->TryReconnect();
        } else {
          replica->Probe();
        }
      }
    }
    lock.lock();
  }
}

}  // namespace secure
}  // namespace simcloud
