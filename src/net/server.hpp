#pragma once
// TCP front-end for serve::EmbeddingServer speaking seqge-wire-v1
// (net/wire.hpp; spec in docs/SERVING.md) — the gate between "library"
// and "system": external clients issue top-k / edge-score / batch /
// stats requests over a socket instead of std::future in-process.
//
// Architecture — one event-loop thread; the engine workers answer:
//
//   clients ──▶ event-loop thread (poll)         engine worker pool
//              ┌──────────────────────────┐     ┌────────────────────┐
//              │ accept / read / decode   │     │ answer the query   │
//              │ admission control:       │ try_│ callback:          │
//              │  * SHUTTING_DOWN drain   │ sub-│  encode response,  │
//              │  * token-bucket          │ mit │  stage to outbox,  │
//              │    RATE_LIMITED          │ ──▶ │  wake the loop     │
//              │  * engine queue full:    │     └────────────────────┘
//              │    OVERLOADED            │  ◀── outbox + wake pipe
//              │ coalesce single top-k    │
//              │ into engine batch calls  │
//              │ write-buffer flushing    │
//              └──────────────────────────┘
//
// The event loop never blocks on the engine: submission goes through
// EmbeddingServer::try_submit (BoundedQueue::try_push under the hood),
// so a saturated engine queue sheds with OVERLOADED instead of parking
// the loop. The worker that answers a request runs its callback, which
// encodes the response frame(s) and stages them — one thread hop per
// request, and no thread that only waits.
//
// Coalescing: single top-k requests decoded in one poll sweep (across
// connections) with the same k are merged into one
// serve::TopKBatchQuery — one queue slot and one worker
// wake-up for the whole group — and fanned back out as individual
// responses. This is the host-side analogue of the accelerator's
// batched walk training: amortize per-item dispatch over a batch.
//
// Hardening: max-frame and max-connection limits, per-client token
// bucket, idle-connection timeout, graceful drain on stop() (stop
// accepting, answer SHUTTING_DOWN, flush in-flight responses up to
// drain_timeout). Everything is instrumented through src/obs/ under
// seqge_net_* (docs/OBSERVABILITY.md).
//
// Threading: the connection table is owned exclusively by the event-
// loop thread; engine workers reach the loop only through the locked
// outbox + wake pipe, and clients never directly. The engine belongs to the
// caller and may answer after stop() timed out or after ~Server, so the
// outbox is shared with every callback and stop() closes it: late
// answers are dropped. start()/stop() are for one controlling thread;
// stats accessors are safe anywhere.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "serve/embedding_server.hpp"

namespace seqge::net {

struct NetServerConfig {
  std::string bind_addr = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read back with port().
  std::uint16_t port = 0;
  /// Ignored: engine workers encode the responses, so the server runs
  /// no responder threads. Kept only because perfbench/perfbench.cpp
  /// still sets it; it goes with the next change to the benchmark.
  std::size_t workers = 2;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 256;
  /// Frames announcing a larger body are rejected (FRAME_TOO_LARGE)
  /// and the connection closed.
  std::size_t max_frame_bytes = kDefaultMaxFrame;
  /// Connections idle (no readable bytes) longer than this are closed.
  /// 0 disables the sweep.
  std::chrono::milliseconds idle_timeout{30000};
  /// Per-client token bucket: requests/second and banked burst.
  /// rate <= 0 disables rate limiting.
  double rate_limit_qps = 0.0;
  double rate_limit_burst = 64.0;
  /// Max single top-k requests coalesced into one engine batch call.
  std::size_t coalesce_max = 16;
  /// stop() waits this long for in-flight responses to flush before
  /// tearing connections down.
  std::chrono::milliseconds drain_timeout{2000};
};

class Server {
 public:
  /// The engine must outlive the server. Call start() to begin serving.
  Server(serve::EmbeddingServer& engine, NetServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the event-loop thread. Throws
  /// std::system_error on bind failure.
  void start();

  /// The port actually bound (after start(); resolves port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Graceful drain: stop accepting, answer new requests with
  /// SHUTTING_DOWN, wait up to cfg.drain_timeout for in-flight
  /// responses to flush, then close every connection and join the
  /// event loop. Idempotent; also run by the destructor. Returns the
  /// number of responses still in flight when the timeout expired
  /// (0 = clean drain).
  std::size_t stop();

  // Lifetime totals, safe from any thread (the kStats wire response
  // carries the same numbers).
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return conns_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_admitted() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejected_overload() const noexcept {
    return rej_overload_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejected_ratelimit() const noexcept {
    return rej_ratelimit_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bad_frames() const noexcept {
    return bad_frames_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t open_connections() const noexcept {
    return open_conns_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;
  struct Pending;
  struct Outbox;

  void run_loop();
  /// Parse + dispatch every complete frame in `conn`'s read buffer.
  void process_frames(Conn& conn);
  void dispatch(Conn& conn, Request&& req,
                std::chrono::steady_clock::time_point t0);
  /// Hand `q` to the engine; its callback encodes one `type` response
  /// per member (a coalesced top-k has several) on the engine worker and
  /// stages them. Sheds every member with OVERLOADED when the engine
  /// queue is full.
  void submit(MsgType type, serve::Query q, std::vector<Pending> members);
  /// Submit the coalesced single-top-k groups accumulated this sweep.
  void flush_coalesced();
  /// Event-loop side: append + try to flush immediately.
  void send_now(Conn& conn, const std::vector<std::uint8_t>& bytes);
  bool flush_out(Conn& conn);  ///< false = fatal write error, drop conn
  void close_conn(std::uint64_t conn_id);
  ServerStats snapshot_stats() const;

  serve::EmbeddingServer& engine_;
  NetServerConfig cfg_;

  Fd listen_fd_;
  Fd wake_r_;
  std::uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_loop_{false};

  /// Made fresh by each start(); shared with every engine callback.
  std::shared_ptr<Outbox> outbox_;

  std::thread loop_;

  // Event-loop-owned state (touched only by run_loop and the helpers
  // it calls on its own thread).
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint32_t, std::vector<Pending>> pending_topk_;

  std::atomic<std::uint64_t> conns_total_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rej_overload_{0};
  std::atomic<std::uint64_t> rej_ratelimit_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::uint64_t> open_conns_{0};
};

}  // namespace seqge::net
