#ifndef BTRIM_NET_SERVER_H_
#define BTRIM_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "engine/session.h"
#include "net/protocol.h"
#include "tpcc/txns.h"

namespace btrim {

class Database;

namespace net {

/// Server configuration (tools/btrim_server.cc exposes these as flags).
struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral (read back via Server::port())

  /// Worker lanes executing parsed requests (a private btrim::ThreadPool).
  /// <= 1 runs requests inline on the event-loop thread — the determinism
  /// anchor for tests, the same convention as DatabaseOptions::pack_workers.
  int worker_lanes = 4;

  /// Admission control: parsed requests allowed in flight (queued +
  /// executing) across all connections before new ones are shed with
  /// kBusy. Handshake and ping are exempt (cheap control ops, and a
  /// client must always be able to identify itself). 0 sheds everything
  /// but control ops — the deterministic-shed test mode.
  int max_inflight = 256;

  /// Per-connection write-buffer cap; a reader slow enough to exceed it is
  /// disconnected (backpressure of last resort).
  size_t max_conn_outbuf = 8u << 20;

  /// Enables the kTpcc opcode. The context (and its warehouse scale) must
  /// outlive the server; null replies kNotSupported.
  tpcc::TpccContext* tpcc = nullptr;

  /// Seed for per-connection TPC-C randomness.
  uint64_t seed = 1;
};

/// The networked front-end (DESIGN.md Sec. 16): one epoll event-loop
/// thread owns all sockets (accept, read, frame assembly, write flush);
/// parsed requests are handed to the worker lanes, which execute them
/// against an engine Session and append framed replies to the
/// connection's write buffer. Per-connection requests run strictly in
/// order on one lane at a time, so pipelined clients get in-order replies;
/// different connections fan out across lanes.
///
/// Locking (DESIGN.md Sec. 12): conns_mu_ (kNetServer) guards the fd map;
/// each connection's mu (kNetConn) guards its pending queue and write
/// buffer. Neither is ever held across an engine call, and all metric
/// sources are atomic-backed, so registry snapshots never touch a net lock.
class Server {
 public:
  /// Binds, registers net.* metrics, and starts the loop + lanes.
  static Result<std::unique_ptr<Server>> Start(Database* db,
                                               ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops accepting, drains queued requests, joins every thread, closes
  /// every connection, and retires the net.* metrics. Idempotent.
  void Stop();

  /// Bound port (after Start).
  int port() const { return port_; }

  /// --- test/bench observability --------------------------------------------
  int64_t sheds() const { return shed_.Load(); }
  int64_t protocol_errors() const { return protocol_errors_.Load(); }
  int64_t active_conns() const { return active_conns_.Load(); }

  /// Not for direct use — Start() is the entry point (public only so
  /// make_unique can see it).
  Server(Database* db, ServerOptions options);

 private:
  /// One parsed (or rejected-at-parse) request awaiting execution.
  struct Pending {
    Request req;
    bool shed = false;    ///< admission control said kBusy
    bool broken = false;  ///< protocol error: reply error, then drop conn
    std::string error;    ///< broken only: parse failure detail
    int64_t enqueue_us = 0;
  };

  struct Conn {
    explicit Conn(int fd, uint64_t id) : fd(fd), id(id) {}
    ~Conn();

    const int fd;
    const uint64_t id;
    std::atomic<bool> dead{false};

    /// Read-side state: event-loop thread only, no lock.
    std::string in;
    bool read_broken = false;  ///< stop parsing after a protocol error

    Mutex mu{LockRank::kNetConn, "net.conn"};
    std::deque<Pending> pending BTRIM_GUARDED_BY(mu);
    bool worker_active BTRIM_GUARDED_BY(mu) = false;
    std::string out BTRIM_GUARDED_BY(mu);
    size_t out_off BTRIM_GUARDED_BY(mu) = 0;
    bool want_write BTRIM_GUARDED_BY(mu) = false;  ///< EPOLLOUT armed
    bool closing BTRIM_GUARDED_BY(mu) = false;     ///< close once out drains

    /// Execution-side state: touched only by the (single) active drain
    /// worker; handed off between lanes through pending's mutex.
    bool handshaken = false;
    std::string tenant;
    std::unique_ptr<Session> session;
    std::unique_ptr<tpcc::TpccRandom> rnd;
    ShardedCounter* tenant_requests = nullptr;  ///< owned by Server
    bool close_after = false;  ///< Execute() requested a post-reply close
  };

  Status Init();
  Status RegisterMetrics();

  void EventLoop();
  void AcceptReady();
  void ReadReady(const std::shared_ptr<Conn>& conn);
  void WriteReady(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);

  /// Executes one connection's pending queue to exhaustion (worker lane).
  void DrainConn(std::shared_ptr<Conn> conn);
  Response Execute(Conn* conn, const Request& req);
  Response ExecuteTpcc(Conn* conn, const Request& req);

  /// Flushes as much of conn->out as the socket accepts; arms/disarms
  /// EPOLLOUT and performs the deferred close when `closing` drains.
  void FlushLocked(Conn* conn) BTRIM_REQUIRES(conn->mu);

  /// Lazily creates + registers the per-tenant request counter.
  ShardedCounter* TenantCounter(const std::string& tenant);

  static int64_t NowMicros();

  Database* const db_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::thread loop_;
  std::unique_ptr<ThreadPool> lanes_;

  uint64_t next_conn_id_ = 1;  ///< event-loop thread only

  mutable Mutex conns_mu_{LockRank::kNetServer, "net.server.conns"};
  std::map<int, std::shared_ptr<Conn>> conns_ BTRIM_GUARDED_BY(conns_mu_);

  mutable Mutex tenants_mu_{LockRank::kNetServer, "net.server.tenants"};
  std::map<std::string, std::unique_ptr<ShardedCounter>> tenants_
      BTRIM_GUARDED_BY(tenants_mu_);

  /// net.* metric sources — all atomic-backed (see class comment).
  ShardedCounter accepted_conns_;
  AtomicGauge active_conns_;
  ShardedCounter requests_;
  ShardedCounter requests_by_op_[kOpCount];
  AtomicGauge queue_depth_;
  ShardedCounter shed_;
  ShardedCounter bytes_in_;
  ShardedCounter bytes_out_;
  ShardedCounter protocol_errors_;
  LatencyHistogram request_latency_;
  ShardedCounter tpcc_committed_;
  ShardedCounter tpcc_user_aborts_;
};

}  // namespace net
}  // namespace btrim

#endif  // BTRIM_NET_SERVER_H_
