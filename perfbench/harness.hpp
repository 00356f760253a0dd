#pragma once
// perfbench harness: the pieces every workload shares.
//
//  * Report — named metrics with units, printed as a table and as the
//    one-line JSON result the benchmark ends with.
//  * LayerClock + TracedModel + TracedSink — forwarding decorators around
//    EmbeddingModel::train_batch/untrain_batch and the SnapshotSink
//    publish path. They time a layer only while LayerClock::on is set
//    (the traced run); otherwise they forward with one branch.
//  * LoadGenerator — one thread, up to nproc connections, raw
//    seqge-wire-v1 frames built with the net/wire encoders, content
//    drawn from the workload seed. Two phases: open loop (Poisson
//    arrivals at a fixed rate, latency timed from each request's due
//    time, so a stalled server or a late generator shows up in every
//    request that should have been sent meanwhile) and closed loop
//    (saturation: a fixed number of requests in flight, so the answer
//    rate is the server's capacity). The open-loop thread spins on a
//    non-blocking poll rather than sleeping: on a shared virtual
//    machine, a sleeping thread's CPU can take over 10 ms to be
//    rescheduled by the host, which made the generator itself late
//    (p99 lateness above 10 ms with the CPU 90% idle).

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "embedding/model.hpp"
#include "embedding/trainer.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "serve/sharded_query.hpp"
#include "serve/sharded_store.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

using seqge::NodeId;
using Clock = std::chrono::steady_clock;

inline double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double pct(std::vector<double> xs, double q) {
  return seqge::percentile(std::move(xs), q);
}

inline double med(std::vector<double> xs) {
  return seqge::median(std::move(xs));
}

/// A /proc/self/status field in kB (VmHWM = peak RSS, VmRSS = current).
inline double proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
  }
  return 0.0;
}

// ---------------------------------------------------------------- report

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  [[nodiscard]] bool all_finite() const {
    return std::all_of(metrics_.begin(), metrics_.end(),
                       [](const Metric& m) { return std::isfinite(m.value); });
  }
  void print_table(const std::string& title) const {
    std::printf("%s\n", title.c_str());
    for (const Metric& m : metrics_) {
      std::printf("  %-40s %16.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  /// The result line: exactly correct/attempted/failed/metrics, every
  /// value with all its digits.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      if (i) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// ------------------------------------------------------ layer decorators

/// Per-layer time accumulated on the one thread that drives training
/// (train_all's consumer, or the stream trainer). Plain fields: the
/// decorators below are only ever called from that thread.
struct LayerClock {
  bool on = false;
  double train_s = 0.0, untrain_s = 0.0, publish_s = 0.0;
  std::uint64_t train_walks = 0, untrain_calls = 0, untrain_ok = 0;
  std::vector<double> untrain_us, publish_us;
  // Trained walk -> visible in the store: from the first train_batch
  // after a rows publish to the end of the next one.
  bool write_pending = false;
  Clock::time_point write_start{};
  std::vector<double> write_to_publish_ms;
};

/// Forwards every EmbeddingModel call to `inner`, timing train_batch and
/// untrain_batch while the clock is on.
class TracedModel final : public seqge::EmbeddingModel {
 public:
  TracedModel(std::unique_ptr<seqge::EmbeddingModel> inner, LayerClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    const seqge::NegativeSampler& sampler, std::size_t ns,
                    seqge::NegativeMode mode, seqge::Rng& rng) override {
    return inner_->train_walk(walk, window, sampler, ns, mode, rng);
  }
  double train_batch(const seqge::WalkBatch& batch, std::size_t window,
                     const seqge::NegativeSampler& sampler, std::size_t ns,
                     seqge::NegativeMode mode) override {
    if (!clock_.on) return inner_->train_batch(batch, window, sampler, ns, mode);
    const auto t0 = Clock::now();
    if (!clock_.write_pending) {
      clock_.write_pending = true;
      clock_.write_start = t0;
    }
    const double loss = inner_->train_batch(batch, window, sampler, ns, mode);
    const auto t1 = Clock::now();
    clock_.train_s += secs(t0, t1);
    clock_.train_walks += batch.num_walks();
    return loss;
  }
  bool untrain_batch(const seqge::WalkBatch& batch, std::size_t window,
                     const seqge::NegativeSampler& sampler, std::size_t ns,
                     seqge::NegativeMode mode) override {
    if (!clock_.on) {
      return inner_->untrain_batch(batch, window, sampler, ns, mode);
    }
    const auto t0 = Clock::now();
    const bool ok = inner_->untrain_batch(batch, window, sampler, ns, mode);
    const double s = secs(t0, Clock::now());
    clock_.untrain_s += s;
    clock_.untrain_us.push_back(s * 1e6);
    ++clock_.untrain_calls;
    clock_.untrain_ok += ok ? 1 : 0;
    return ok;
  }
  [[nodiscard]] seqge::MatrixF extract_embedding() const override {
    return inner_->extract_embedding();
  }
  void extract_rows(std::span<const NodeId> nodes,
                    seqge::MatrixF& out) const override {
    inner_->extract_rows(nodes, out);
  }
  [[nodiscard]] std::size_t dims() const override { return inner_->dims(); }
  [[nodiscard]] std::size_t num_nodes() const override {
    return inner_->num_nodes();
  }
  [[nodiscard]] std::size_t model_bytes() const override {
    return inner_->model_bytes();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<seqge::EmbeddingModel> inner_;
  LayerClock& clock_;
};

/// One rows publish reaching the store (on_snapshot / on_delta).
struct PublishEvent {
  double at_s;               ///< publish end, seconds since the run epoch
  std::uint64_t version;     ///< store version after the publish
  std::size_t covered;       ///< writes started before it (freshness)
};

/// Forwards the SnapshotSink calls to the store. Always logs each rows
/// publish (end time + version: the freshness bookkeeping); times every
/// call while the clock is on.
class TracedSink final : public seqge::SnapshotSink {
 public:
  TracedSink(seqge::serve::ShardedEmbeddingStore& store, LayerClock& clock,
             Clock::time_point epoch, const std::size_t* writes_started)
      : store_(store), clock_(clock), epoch_(epoch),
        writes_started_(writes_started) {}

  void on_snapshot(const seqge::EmbeddingModel& model,
                   const seqge::TrainStats& stats) override {
    timed([&] { store_.on_snapshot(model, stats); }, true);
  }
  void on_delta(const seqge::EmbeddingModel& model,
                const seqge::TrainStats& stats,
                std::span<const NodeId> touched_rows) override {
    timed([&] { store_.on_delta(model, stats, touched_rows); }, true);
  }
  void on_tombstone(std::span<const NodeId> nodes) override {
    timed([&] { store_.on_tombstone(nodes); }, false);
  }

  std::vector<PublishEvent> events;
  std::uint64_t rows_publishes = 0;

 private:
  template <typename F>
  void timed(F&& publish, bool rows) {
    const auto t0 = Clock::now();
    publish();
    const auto t1 = Clock::now();
    if (clock_.on) {
      clock_.publish_s += secs(t0, t1);
      clock_.publish_us.push_back(secs(t0, t1) * 1e6);
      if (rows && clock_.write_pending) {
        clock_.write_to_publish_ms.push_back(secs(clock_.write_start, t1) *
                                             1e3);
        clock_.write_pending = false;
      }
    }
    if (rows) {
      ++rows_publishes;
      events.push_back({secs(epoch_, t1), store_.version(),
                        writes_started_ ? *writes_started_ : 0});
    }
  }

  seqge::serve::ShardedEmbeddingStore& store_;
  LayerClock& clock_;
  Clock::time_point epoch_;
  const std::size_t* writes_started_;
};

// ------------------------------------------------------- load generator

/// Top-k size of every neighbour query.
constexpr std::uint32_t kTopK = 10;
/// Nodes (or pairs) per top-k-batch and score-batch request.
constexpr std::size_t kBatch = 8;
/// Every this-many-th request is kept with its answer for the
/// served-vs-in-process check.
constexpr std::size_t kSampleEvery = 50;
/// How long a phase waits for late answers after its last send.
constexpr double kDrainS = 5.0;
/// Requests each connection keeps in flight in a saturation phase: 32
/// over four connections, enough to keep two engine workers busy and
/// far below the engine queue's 1024 slots, so nothing is shed.
constexpr std::size_t kSaturationDepth = 8;

/// Connections of the one generator thread: at most four, at most nproc.
inline std::size_t load_connections() {
  return std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
}

/// Request mix by probability; the remainder after the first three is
/// score_batch.
struct Mix {
  double topk = 1.0, score = 0.0, topk_batch = 0.0;
};

struct RequestLog {
  double due_s = 0.0;    ///< scheduled send, seconds since the epoch
  double done_s = -1.0;  ///< response arrival; < 0 = never answered
  std::uint64_t version = 0;
  seqge::net::Status status = seqge::net::Status::kError;
};

/// A request kept with its response for the served-vs-in-process check.
struct Sampled {
  seqge::net::Request req;
  seqge::net::Response resp;
};

/// One generator thread over load_connections() connections, sending raw
/// seqge-wire-v1 frames built with the net/wire encoders. Request content
/// comes from one seeded stream across all of a generator's phases.
class LoadGenerator {
 public:
  using NodeDraw = std::function<NodeId(seqge::Rng&)>;

  LoadGenerator(std::uint16_t port, Mix mix, std::uint64_t seed,
                Clock::time_point epoch, NodeDraw hot, NodeDraw any)
      : mix_(mix), seed_(seed), content_(seed ^ 0xc0471e47ULL),
        epoch_(epoch), hot_(std::move(hot)), any_(std::move(any)) {
    for (std::size_t i = 0; i < load_connections(); ++i) {
      Conn c;
      c.fd = seqge::net::connect_tcp("127.0.0.1", port);
      seqge::net::set_nodelay(c.fd);
      conns_.push_back(std::move(c));
    }
  }

  /// Called about once per millisecond from the generator thread (queue
  /// depth sampling).
  std::function<void()> tick;

  /// Open loop: Poisson arrivals at `rate`/s over [start_s, stop_s)
  /// (seconds since the epoch), drawn from the seed; each request is
  /// sent at its due time whatever is outstanding, and its latency is
  /// timed from that due time. Spins rather than sleeps (see the file
  /// comment). Blocking; run it on the one generator thread.
  void run_open(double rate, double start_s, double stop_s) {
    seqge::Rng arrivals(seed_ ^ 0xa11a11a11ULL);
    auto exp_draw = [&] { return -std::log(1.0 - arrivals.uniform()) / rate; };
    const std::size_t expected =
        static_cast<std::size_t>(rate * (stop_s - start_s) * 1.2) + 16;
    logs.reserve(logs.size() + expected);
    lag_us.reserve(logs.capacity());
    double next_due = start_s + exp_draw();
    std::size_t outstanding = 0;
    auto last_tick = Clock::now();
    for (;;) {
      auto now = Clock::now();
      double now_s = secs(epoch_, now);
      while (next_due < stop_s && next_due <= now_s) {
        Conn& c = conns_[logs.size() % conns_.size()];
        send_next(c, next_due);
        now = Clock::now();
        now_s = secs(epoch_, now);
        ++outstanding;
        next_due += exp_draw();
      }
      if (next_due >= stop_s &&
          (outstanding == 0 || now_s > stop_s + kDrainS)) {
        break;
      }
      if (tick && secs(last_tick, now) >= 1e-3) {
        tick();
        last_tick = now;
      }
      for (Conn& c : poll_ready(0)) outstanding -= receive(c);
    }
  }

  /// Closed loop (saturation): from now on every connection keeps
  /// kSaturationDepth requests in flight and sends the next one as soon
  /// as an answer arrives, until stop_s. The answer rate is then set by
  /// the server alone. Latency here is a round trip, not reported.
  void run_closed(double stop_s) {
    std::size_t outstanding = 0;
    for (Conn& c : conns_) {
      for (std::size_t d = 0; d < kSaturationDepth; ++d) {
        send_next(c, secs(epoch_, Clock::now()));
        ++outstanding;
      }
    }
    for (;;) {
      const double now_s = secs(epoch_, Clock::now());
      if (outstanding == 0 || now_s > stop_s + kDrainS) break;
      for (Conn& c : poll_ready(1)) {
        const std::size_t answered = receive(c);
        outstanding -= answered;
        for (std::size_t i = 0;
             i < answered && secs(epoch_, Clock::now()) < stop_s; ++i) {
          send_next(c, secs(epoch_, Clock::now()));
          ++outstanding;
        }
      }
    }
  }

  std::vector<RequestLog> logs;  ///< indexed by wire id - 1
  std::vector<double> lag_us;    ///< per request: send end - due time
  std::vector<Sampled> sampled;

 private:
  struct Conn {
    seqge::net::Fd fd;
    std::vector<std::uint8_t> in;
  };

  /// Draw, encode and send the next request on `c`, logged as due at
  /// `due_s`; its lag is how long after that the send ended.
  void send_next(Conn& c, double due_s) {
    const std::size_t idx = logs.size();
    seqge::net::Request req = draw(idx + 1);
    frame_.clear();
    encode(req, frame_);
    send_all(c, frame_);
    RequestLog log;
    log.due_s = due_s;
    logs.push_back(log);
    lag_us.push_back((secs(epoch_, Clock::now()) - due_s) * 1e6);
    if (idx % kSampleEvery == 0) {
      sample_of_.resize(idx + 1, -1);
      sample_of_[idx] = static_cast<std::ptrdiff_t>(sampled.size());
      sampled.push_back({std::move(req), {}});
    }
  }

  /// Connections with bytes (or a hang-up) to read; waits up to
  /// `timeout_ms`.
  std::vector<std::reference_wrapper<Conn>> poll_ready(int timeout_ms) {
    pfds_.resize(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds_[i] = {conns_[i].fd.get(), POLLIN, 0};
    }
    std::vector<std::reference_wrapper<Conn>> ready;
    const int n = ::poll(pfds_.data(), pfds_.size(), timeout_ms);
    if (n < 0 && errno != EINTR) {
      throw std::runtime_error("generator: poll failed");
    }
    for (std::size_t i = 0; n > 0 && i < conns_.size(); ++i) {
      if (pfds_[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        ready.emplace_back(conns_[i]);
      }
    }
    return ready;
  }

  seqge::net::Request draw(std::uint64_t id) {
    using seqge::net::MsgType;
    seqge::net::Request req;
    req.id = id;
    req.k = kTopK;
    const double u = content_.uniform();
    if (u < mix_.topk) {
      req.type = MsgType::kTopK;
      req.u = hot_(content_);
    } else if (u < mix_.topk + mix_.score) {
      req.type = MsgType::kScore;
      req.u = hot_(content_);
      req.v = any_(content_);
    } else if (u < mix_.topk + mix_.score + mix_.topk_batch) {
      req.type = MsgType::kTopKBatch;
      for (std::size_t i = 0; i < kBatch; ++i) {
        req.nodes.push_back(hot_(content_));
      }
    } else {
      req.type = MsgType::kScoreBatch;
      for (std::size_t i = 0; i < kBatch; ++i) {
        const NodeId a = hot_(content_);
        req.pairs.emplace_back(a, any_(content_));
      }
    }
    return req;
  }

  static void encode(const seqge::net::Request& req,
                     std::vector<std::uint8_t>& out) {
    using seqge::net::MsgType;
    switch (req.type) {
      case MsgType::kTopK:
        seqge::net::encode_topk_request(out, req.id, req.u, req.k);
        break;
      case MsgType::kScore:
        seqge::net::encode_score_request(out, req.id, req.u, req.v, req.kind);
        break;
      case MsgType::kTopKBatch:
        seqge::net::encode_topk_batch_request(out, req.id, req.nodes, req.k);
        break;
      default:
        seqge::net::encode_score_batch_request(out, req.id, req.pairs,
                                               req.kind);
    }
  }

  static void send_all(Conn& c, const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(c.fd.get(), bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("generator: send failed");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// Drain readable bytes and settle every complete response frame.
  /// Returns the number of requests answered.
  std::size_t receive(Conn& c) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(c.fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN, EOF or error: parse what arrived
    }
    const double now_s = secs(epoch_, Clock::now());
    std::size_t answered = 0, off = 0;
    for (;;) {
      bool too_large = false;
      const std::span<const std::uint8_t> rest(c.in.data() + off,
                                               c.in.size() - off);
      const std::size_t fsize = seqge::net::frame_size(
          rest, seqge::net::kDefaultMaxFrame, &too_large);
      if (too_large) throw std::runtime_error("generator: oversized frame");
      if (fsize == 0) break;
      // A frame that fails to decode or matches no open request leaves
      // its request unanswered, which counts as failed.
      seqge::net::Response resp;
      if (seqge::net::decode_response(rest.subspan(seqge::net::kLenBytes,
                                                   fsize - seqge::net::kLenBytes),
                                      resp) &&
          resp.id >= 1 && resp.id <= logs.size() &&
          logs[resp.id - 1].done_s < 0.0) {
        RequestLog& log = logs[resp.id - 1];
        log.done_s = now_s;
        log.status = resp.status;
        log.version = resp.version;
        const std::size_t idx = resp.id - 1;
        if (idx < sample_of_.size() && sample_of_[idx] >= 0) {
          sampled[static_cast<std::size_t>(sample_of_[idx])].resp =
              std::move(resp);
        }
        ++answered;
      }
      off += fsize;
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
    return answered;
  }

  Mix mix_;
  std::uint64_t seed_;
  seqge::Rng content_;
  Clock::time_point epoch_;
  NodeDraw hot_, any_;
  std::vector<Conn> conns_;
  std::vector<std::ptrdiff_t> sample_of_;
  std::vector<std::uint8_t> frame_;
  std::vector<pollfd> pfds_;
};

/// Served answer == in-process answer (floats compared bit-for-bit via
/// ==; the wire carries raw IEEE-754 bits). The response must come from
/// the engine's version.
inline bool same_answer(const seqge::serve::ShardedQueryEngine& engine,
                        const Sampled& s) {
  using seqge::net::MsgType;
  const auto& resp = s.resp;
  if (resp.status != seqge::net::Status::kOk ||
      resp.version != engine.version()) {
    return false;
  }
  auto same_list = [](const std::vector<seqge::serve::Neighbor>& a,
                      const std::vector<seqge::serve::Neighbor>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].node != b[i].node || a[i].score != b[i].score) return false;
    }
    return true;
  };
  switch (s.req.type) {
    case MsgType::kTopK:
      return same_list(engine.topk(s.req.u, s.req.k), resp.neighbors);
    case MsgType::kScore:
      return engine.score(s.req.u, s.req.v, s.req.kind) == resp.score;
    case MsgType::kTopKBatch:
      if (resp.batch.size() != s.req.nodes.size()) return false;
      for (std::size_t i = 0; i < s.req.nodes.size(); ++i) {
        if (!same_list(engine.topk(s.req.nodes[i], s.req.k), resp.batch[i])) {
          return false;
        }
      }
      return true;
    default:
      if (resp.scores.size() != s.req.pairs.size()) return false;
      for (std::size_t i = 0; i < s.req.pairs.size(); ++i) {
        const auto [u, v] = s.req.pairs[i];
        if (engine.score(u, v, s.req.kind) != resp.scores[i]) return false;
      }
      return true;
  }
}

}  // namespace perfbench
