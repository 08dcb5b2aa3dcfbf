// Topology monitoring and replica failover for the sharded similarity
// cloud (ROADMAP open item 1).
//
// A remote deployment of ShardedServer used to be only as available as
// its least reliable TCP connection: one dropped peer turned the
// transport sticky-broken and every later fan-out failed until the whole
// facade was rebuilt by hand. This module makes the fan-out survive a
// dead peer:
//
//   * Every shard is a REPLICA SET (>= 1 endpoints holding identical
//     data). Reads route to any live replica, rotating for balance and
//     retrying on another replica when one fails mid-request. Writes fan
//     out to every replica in one serialized order, so replicas stay
//     byte-identical.
//   * Each replica runs a per-connection health state machine:
//       kUp ──probe timeout / stream failure──▶ kDegraded ──▶ kDown
//        ▲                                                      │
//        └──── reconnect (full handshake) + write replay ◀──────┘
//     kDegraded still serves (reads prefer kUp replicas); kDown replicas
//     buffer writes for replay and take no traffic.
//   * A background TopologyMonitor thread probes every replica over the
//     kPing opcode on the shared data connection (a probe is just one
//     more pipelined frame) and redials kDown replicas with jittered
//     exponential backoff, redoing the PSK handshake under
//     ChannelPolicy::kSecure. Once the dial succeeds, the buffered
//     writes replay — in order, before any new traffic — and the replica
//     returns to kUp.
//
// Consistency model: write replay is at-least-once. A write whose
// response was lost with its connection is replayed on reconnect, so
// write opcodes must tolerate re-application (kDeleteBatch skips
// NotFound per item; kInsertBatch of the same ids overwrites). Reads
// retried on another replica are safe unconditionally — every replica
// holds the same index.
//
// See docs/protocol.md § "Topology & failover" for the wire-visible
// contract.

#ifndef SIMCLOUD_SECURE_TOPOLOGY_H_
#define SIMCLOUD_SECURE_TOPOLOGY_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/secure_channel.h"
#include "net/tcp.h"

namespace simcloud {
namespace secure {

/// One shard's request channel. Submit() hands a request to the shard
/// without waiting; Collect() blocks for that ticket's response — so a
/// fan-out submits to every shard first and all shards work in parallel,
/// with no per-request thread spawning. Implementations are persistent
/// (a small worker pool for an in-process shard; a pipelined TCP
/// connection or replica group for a remote one) and safe for concurrent
/// Submit/Collect.
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;
  virtual Result<uint64_t> Submit(const Bytes& request) = 0;
  virtual Result<Bytes> Collect(uint64_t ticket) = 0;
};

/// Address of a remote shard server (an EncryptedMIndexServer behind a
/// net::TcpServer).
struct ShardEndpoint {
  std::string host;
  uint16_t port = 0;

  /// "host:port", the form failure Statuses use.
  std::string ToString() const;
};

/// Health of one replica connection.
enum class ShardHealth : uint8_t {
  kUp = 0,        ///< probes pass; serves reads and writes
  kDegraded = 1,  ///< probe failures below the down threshold; still serves
  kDown = 2,      ///< connection dead; writes buffered, reconnect pending
};

/// "up" / "degraded" / "down".
const char* ShardHealthName(ShardHealth health);

/// Tuning knobs of the monitor and failover machinery. Defaults suit the
/// in-tree tests and benches (loopback, millisecond faults); production
/// deployments would scale the cadences up.
struct TopologyOptions {
  /// Monitor wake cadence: every replica is probed (kUp/kDegraded) or
  /// considered for reconnect (kDown) this often.
  int probe_interval_ms = 200;
  /// A probe unanswered after this long counts as a failure. Timeouts do
  /// not poison the shared data connection (the ticket stays parked);
  /// only the kDown transition aborts it.
  int probe_timeout_ms = 1000;
  /// Consecutive probe failures before kDegraded hardens to kDown.
  int failures_to_down = 2;
  /// Reconnect backoff: initial delay, doubling per failed dial, capped.
  int backoff_initial_ms = 50;
  int backoff_max_ms = 2000;
  /// Multiplicative jitter on every backoff delay: the delay is drawn
  /// uniformly from [delay*(1-jitter), delay*(1+jitter)] so replicas
  /// that died together do not redial in lockstep.
  double backoff_jitter = 0.25;
  /// Per-replica timeout for one replayed write on a fresh connection.
  int replay_timeout_ms = 5000;
  /// Cap on buffered replay bytes per down replica. Beyond it the
  /// replica is marked stale and never rejoins (its data has diverged
  /// past what replay can fix); rebuild the facade to replace it.
  size_t max_replay_bytes = 64u << 20;
  /// Seed for the backoff jitter stream (deterministic tests).
  uint64_t jitter_seed = 0x746f706f;  // "topo"
};

/// Point-in-time health of one replica (monitor snapshot).
struct ReplicaStatus {
  ShardEndpoint endpoint;
  ShardHealth health = ShardHealth::kUp;
  /// True when the replay buffer overflowed: the replica is permanently
  /// out of the rotation (health stays kDown).
  bool stale = false;
  uint64_t reconnects = 0;      ///< successful redials since Connect
  uint64_t probe_failures = 0;  ///< lifetime probe failures
  size_t replay_queued = 0;     ///< writes waiting for replay
};

/// Point-in-time health of one shard's replica set.
struct ShardTopologyStatus {
  std::vector<ReplicaStatus> replicas;

  /// Best replica health: a shard is as healthy as its healthiest
  /// replica (one kUp replica keeps the shard fully serving).
  ShardHealth health() const;
};

/// One replica connection's lifecycle: the live transport, the health
/// state machine, the write-replay buffer, and the reconnect schedule.
/// Thread-safe; the monitor thread and fan-out threads race freely.
class ReplicaChannel {
 public:
  ReplicaChannel(ShardEndpoint endpoint, net::ChannelPolicy policy,
                 net::SecureChannelOptions secure, TopologyOptions options);

  /// Installs the initial transport (Connect-time). health becomes kUp.
  void AdoptTransport(std::shared_ptr<net::TcpTransport> transport);

  /// The live transport for a read, or null. `degraded_ok` admits
  /// kDegraded replicas (second-pass routing); kDown never serves.
  std::shared_ptr<net::TcpTransport> AcquireForRead(bool degraded_ok) const;

  /// Write-path decision, atomic against the reconnect replay drain:
  /// either the live transport to submit on, or null with the request
  /// queued for replay (kDown), or null without queueing (stale).
  std::shared_ptr<net::TcpTransport> BeginWrite(const Bytes& request);

  /// Queues a write for replay after a live submit/collect failed with a
  /// broken stream (at-least-once: the write may or may not have
  /// reached the peer before it died).
  void EnqueueReplay(const Bytes& request);

  /// Records a fatal stream failure on `transport`: aborts it, drops it,
  /// health -> kDown, reconnect scheduled. Ignored when `transport` is
  /// no longer this replica's live transport (a stale failure report
  /// must not kill a fresh connection).
  void MarkFailure(const std::shared_ptr<net::TcpTransport>& transport,
                   const Status& reason);

  /// Monitor entry: one kPing probe over the live transport (no-op when
  /// kDown). Timeouts degrade; `failures_to_down` of them harden to
  /// kDown; stream errors go straight to kDown.
  void Probe();

  /// Monitor entry: true when kDown, not stale, and the backoff delay
  /// has elapsed.
  bool ReconnectDue() const;

  /// Monitor entry: redial + handshake, verify with one probe, replay
  /// the buffered writes in order, then atomically go kUp. On any
  /// failure the backoff doubles and the replica stays kDown.
  void TryReconnect();

  /// Permanently removes the replica from rotation (replay overflow or
  /// facade shutdown).
  void MarkStale();

  ShardHealth health() const;
  const ShardEndpoint& endpoint() const { return endpoint_; }
  ReplicaStatus Snapshot() const;

 private:
  /// Applies one replayed write on `transport`. OK / retry-later /
  /// applied-but-rejected are distinguished via the stream status.
  Status ReplayOne(const std::shared_ptr<net::TcpTransport>& transport,
                   const Bytes& request);
  /// Schedules the next reconnect attempt and doubles the backoff.
  /// Caller holds mutex_.
  void ScheduleReconnectLocked();

  const ShardEndpoint endpoint_;
  const net::ChannelPolicy policy_;
  const net::SecureChannelOptions secure_;
  const TopologyOptions options_;

  mutable std::mutex mutex_;
  std::shared_ptr<net::TcpTransport> transport_;  ///< null when kDown
  ShardHealth health_ = ShardHealth::kDown;
  bool stale_ = false;
  int consecutive_probe_failures_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t probe_failures_total_ = 0;
  std::deque<Bytes> replay_;
  size_t replay_bytes_ = 0;
  int backoff_ms_;
  std::chrono::steady_clock::time_point next_reconnect_;
  Rng jitter_;  ///< guarded by mutex_
};

/// ShardChannel over a replica set: reads rotate across live replicas
/// (retrying on another when one dies mid-request), writes fan out to
/// every replica in one group-serialized order. The channel stays usable
/// as long as one replica lives.
class ReplicaGroupChannel : public ShardChannel {
 public:
  ReplicaGroupChannel(std::vector<std::unique_ptr<ReplicaChannel>> replicas,
                      TopologyOptions options);
  ~ReplicaGroupChannel() override;

  Result<uint64_t> Submit(const Bytes& request) override;
  Result<Bytes> Collect(uint64_t ticket) override;

  size_t replica_count() const { return replicas_.size(); }
  ReplicaChannel* replica(size_t i) { return replicas_[i].get(); }
  ShardTopologyStatus Snapshot() const;

 private:
  /// A read submitted to one replica; Collect retries the request on
  /// another replica when this one's stream breaks.
  struct PendingRead {
    Bytes request;
    size_t replica = 0;
    std::shared_ptr<net::TcpTransport> transport;
    uint64_t inner = 0;
  };
  /// A write fanned out to every live replica; Collect returns the
  /// first successful response and requeues the request for replay on
  /// replicas whose stream broke.
  struct PendingWrite {
    Bytes request;
    struct Leg {
      size_t replica = 0;
      std::shared_ptr<net::TcpTransport> transport;
      uint64_t inner = 0;
    };
    std::vector<Leg> legs;
    /// Whether this write replays on replicas whose stream broke
    /// (kCompact fans out but is never replayed).
    bool replay = true;
    /// Replicas that were kDown at submit time (request already queued
    /// for their replay).
    size_t queued_for_replay = 0;
  };

  /// True for opcodes that mutate the index (fan to all replicas and
  /// replay on reconnect).
  static bool IsWriteOp(const Bytes& request);
  /// True for kCompact: fans to all live replicas but is NOT replayed
  /// (compaction is a maintenance hint, not state).
  static bool IsCompactOp(const Bytes& request);

  Result<uint64_t> SubmitRead(const Bytes& request);
  Result<uint64_t> SubmitFanned(const Bytes& request, bool replay_on_down);
  Result<Bytes> CollectRead(PendingRead pending);
  Result<Bytes> CollectWrite(PendingWrite pending);

  /// Submits `request` on some live replica (two passes: kUp first,
  /// then kDegraded), marking failures over. Returns the filled
  /// PendingRead or the last error.
  Result<PendingRead> RouteRead(const Bytes& request);

  const TopologyOptions options_;
  std::vector<std::unique_ptr<ReplicaChannel>> replicas_;

  mutable std::mutex mutex_;  ///< tickets_ + read rotation
  uint64_t next_ticket_ = 1;
  size_t rr_next_ = 0;  ///< read rotation cursor
  std::unordered_map<uint64_t, PendingRead> reads_;
  std::unordered_map<uint64_t, PendingWrite> writes_;

  /// Serializes write fan-outs so every replica applies writes in the
  /// same order (replicas stay byte-identical).
  std::mutex write_mutex_;
};

/// Background health-probe / reconnect thread over a set of replica
/// groups. Owns no replicas — the groups do — so it must be destroyed
/// (or stopped) before them.
class TopologyMonitor {
 public:
  TopologyMonitor(std::vector<ReplicaGroupChannel*> groups,
                  TopologyOptions options);
  ~TopologyMonitor();

  /// Joins the monitor thread. Idempotent.
  void Stop();

 private:
  void Loop();

  const TopologyOptions options_;
  std::vector<ReplicaGroupChannel*> groups_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace secure
}  // namespace simcloud

#endif  // SIMCLOUD_SECURE_TOPOLOGY_H_
