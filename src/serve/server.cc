#include "serve/server.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.h"
#include "common/socket.h"
#include "graph/io.h"
#include "obs/exporter.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace hap::serve {

namespace {

// epoll tags below this are sentinels, not connection ids.
constexpr uint64_t kListenTag = 1;
constexpr uint64_t kCompletionTag = 2;
constexpr uint64_t kStopTag = 3;
constexpr uint64_t kFirstConnId = 16;

constexpr size_t kMaxHttpHead = 64 * 1024;

struct Completion {
  uint64_t conn_id = 0;
  uint64_t ticket = 0;
  bool http = false;
  Status status;
  int prediction = -1;
};

/// Bridge from engine callbacks (batcher thread) to the event loop.
/// Owned by shared_ptr: every SubmitAsync callback holds a reference,
/// so completions that fire after Server::Stop land in an orphaned
/// list — and the eventfd stays open — until the engine drains.
struct CompletionState {
  std::mutex mu;
  std::vector<Completion> done;
  int event_fd = -1;

  ~CompletionState() {
    if (event_fd >= 0) ::close(event_fd);
  }

  void Push(Completion c) {
    {
      std::lock_guard<std::mutex> lock(mu);
      done.push_back(std::move(c));
    }
    const uint64_t one = 1;
    // Best-effort ring; the counter saturating or the loop being gone
    // are both benign.
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof(one));
  }
};

enum class Proto { kUnknown, kBinary, kHttp };

struct Connection {
  int fd = -1;
  Proto proto = Proto::kUnknown;
  std::string inbuf;
  std::string outbuf;
  bool want_write = false;        // EPOLLOUT currently registered
  bool close_after_flush = false;
  bool http_pending = false;      // one async /predict outstanding
  bool http_keep_alive = true;    // for the pending response
  uint64_t last_activity_ns = 0;  // idle-timeout bookkeeping
};

std::pair<int, const char*> HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return {200, "OK"};
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return {400, "Bad Request"};
    case StatusCode::kNotFound:
      return {404, "Not Found"};
    case StatusCode::kResourceExhausted:
      return {429, "Too Many Requests"};
    case StatusCode::kFailedPrecondition:
      return {503, "Service Unavailable"};
    case StatusCode::kDeadlineExceeded:
      return {504, "Gateway Timeout"};
    default:
      return {500, "Internal Server Error"};
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Bounds-checks the `graph N ...` header line before ReadGraph gets to
/// construct the (dense N x N) Graph, then parses the block. The payload
/// must hold exactly one block: anything after it but whitespace (a
/// second `graph` block) is rejected rather than silently dropped.
StatusOr<Graph> GraphFromText(const std::string& text) {
  long long n = -1;
  if (std::sscanf(text.c_str(), " graph %lld", &n) == 1 &&
      (n < 1 || n > kMaxRequestNodes)) {
    return Status::InvalidArgument("graph node count " + std::to_string(n) +
                                   " outside [1, " +
                                   std::to_string(kMaxRequestNodes) + "]");
  }
  std::istringstream in(text);
  StatusOr<Graph> graph = ReadGraph(&in);
  if (graph.ok() && !(in >> std::ws).eof()) {
    return Status::InvalidArgument("payload holds more than one graph block");
  }
  return graph;
}

/// True when `x` is an integer in [lo, hi]. Checked in double, so a JSON
/// number outside int's range never reaches a cast (NaN fails too).
bool IntegerInRange(double x, double lo, double hi) {
  return x >= lo && x <= hi && std::floor(x) == x;
}

/// Builds a Graph from the POST /predict JSON body:
///   {"nodes": N, "node_labels": [..N ints..]?,
///    "edges": [[u, v], [u, v, w], ...]?, "deadline_ms": ms?}
StatusOr<Graph> GraphFromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("predict body must be a JSON object");
  }
  const JsonValue* nodes = v.Find("nodes");
  if (nodes == nullptr || !nodes->is_number()) {
    return Status::InvalidArgument("predict body: missing numeric \"nodes\"");
  }
  if (!IntegerInRange(nodes->number_value(), 1, kMaxRequestNodes)) {
    return Status::InvalidArgument("predict body: \"nodes\" must be an "
                                   "integer in [1, " +
                                   std::to_string(kMaxRequestNodes) + "]");
  }
  const int n = static_cast<int>(nodes->number_value());
  Graph g(n);
  if (const JsonValue* labels = v.Find("node_labels")) {
    if (!labels->is_array() ||
        labels->array().size() != static_cast<size_t>(n)) {
      return Status::InvalidArgument(
          "predict body: \"node_labels\" must be an array of length nodes");
    }
    for (int u = 0; u < n; ++u) {
      const JsonValue& lbl = labels->array()[static_cast<size_t>(u)];
      if (!lbl.is_number() ||
          !IntegerInRange(lbl.number_value(),
                          std::numeric_limits<int>::min(),
                          std::numeric_limits<int>::max())) {
        return Status::InvalidArgument(
            "predict body: node_labels entries must be integers");
      }
      g.set_node_label(u, static_cast<int>(lbl.number_value()));
    }
  }
  if (const JsonValue* edges = v.Find("edges")) {
    if (!edges->is_array()) {
      return Status::InvalidArgument("predict body: \"edges\" must be an "
                                     "array of [u, v] or [u, v, w]");
    }
    for (const JsonValue& e : edges->array()) {
      if (!e.is_array() || e.array().size() < 2 || e.array().size() > 3 ||
          !e.array()[0].is_number() || !e.array()[1].is_number() ||
          (e.array().size() == 3 && !e.array()[2].is_number())) {
        return Status::InvalidArgument("predict body: each edge must be "
                                       "[u, v] or [u, v, w]");
      }
      const double u_raw = e.array()[0].number_value();
      const double w_raw = e.array()[1].number_value();
      if (!IntegerInRange(u_raw, 0, n - 1) ||
          !IntegerInRange(w_raw, 0, n - 1) || u_raw == w_raw) {
        return Status::InvalidArgument(
            "predict body: edge endpoints must be distinct node ids in "
            "[0, nodes)");
      }
      float weight = 1.0f;
      if (e.array().size() == 3) {
        // Range-checked in double before the cast: a double beyond
        // float's range has no float value, and a tiny one rounds to 0.
        const double raw = e.array()[2].number_value();
        if (!(raw > 0) || raw > std::numeric_limits<float>::max() ||
            !(static_cast<float>(raw) > 0.0f)) {
          return Status::InvalidArgument(
              "predict body: edge weight must be a positive float");
        }
        weight = static_cast<float>(raw);
      }
      g.AddEdge(static_cast<int>(u_raw), static_cast<int>(w_raw), weight);
    }
  }
  return g;
}

uint32_t DeadlineMsFromJson(const JsonValue& v) {
  const JsonValue* d = v.is_object() ? v.Find("deadline_ms") : nullptr;
  if (d == nullptr || !d->is_number() || !(d->number_value() > 0)) return 0;
  const double ms = d->number_value();
  return ms >= std::numeric_limits<uint32_t>::max()
             ? std::numeric_limits<uint32_t>::max()
             : static_cast<uint32_t>(ms);
}

std::string StatsJson(size_t queue_depth) {
  static const char* const kCounters[] = {
      obs::names::kServeRequests,        obs::names::kServeRejected,
      obs::names::kServeCoalesced,       obs::names::kServeBatches,
      obs::names::kServeReloads,         obs::names::kServeShedTotal,
      obs::names::kServeShedQueueDepth,  obs::names::kServeShedLatency,
      obs::names::kServeDeadlineMiss,    obs::names::kServeCacheHit,
      obs::names::kServeCacheMiss,       obs::names::kServeCacheEvicted,
      obs::names::kServeNetConnections,  obs::names::kServeNetRequestsBinary,
      obs::names::kServeNetRequestsHttp, obs::names::kServeNetProtocolErrors,
      obs::names::kServeDeadlineSkipped, obs::names::kServeNetConnRefused,
      obs::names::kServeNetIdleClosed,
  };
  std::string out = "{\"queue_depth\":" + std::to_string(queue_depth);
  out += ",\"counters\":{";
  bool first = true;
  for (const char* name : kCounters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(obs::CounterValue(name));
  }
  out += '}';
  const obs::SketchSnapshot lat =
      obs::SnapshotSketch(obs::names::kServeLatencyNs);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ",\"latency_ns\":{\"count\":%" PRIu64
                ",\"p50\":%.0f,\"p99\":%.0f,\"p999\":%.0f}}",
                lat.count, lat.Quantile(0.5), lat.Quantile(0.99),
                lat.Quantile(0.999));
  out += buf;
  return out;
}

}  // namespace

struct Server::Loop {
  Server* server = nullptr;
  int epoll_fd = -1;
  int listen_fd = -1;
  int stop_fd = -1;
  std::shared_ptr<CompletionState> completions;
  std::unordered_map<uint64_t, Connection> conns;
  uint64_t next_conn_id = kFirstConnId;

  ~Loop() {
    for (auto& [id, conn] : conns) CloseFd(conn.fd);
    CloseFd(listen_fd);
    CloseFd(stop_fd);
    CloseFd(epoll_fd);
    // completions->event_fd is closed by CompletionState's destructor
    // once the last engine callback releases its reference.
  }

  void Run() {
    epoll_event events[64];
    bool stopping = false;
    // With an idle timeout configured the loop must wake even when no fd
    // is ready, so stale connections get swept; without one it blocks
    // forever as before.
    const int64_t idle_ms = server->config_.idle_timeout_ms;
    const int wait_ms =
        idle_ms > 0
            ? static_cast<int>(std::max<int64_t>(
                  10, std::min<int64_t>(idle_ms / 2, 1000)))
            : -1;
    while (!stopping) {
      const int n = ::epoll_wait(epoll_fd, events, 64, wait_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const uint64_t tag = events[i].data.u64;
        if (tag == kStopTag) {
          stopping = true;
        } else if (tag == kListenTag) {
          AcceptAll();
        } else if (tag == kCompletionTag) {
          uint64_t drained = 0;
          [[maybe_unused]] ssize_t r =
              ::read(completions->event_fd, &drained, sizeof(drained));
          DrainCompletions();
        } else {
          HandleConn(tag, events[i].events);
        }
      }
      if (idle_ms > 0) SweepIdle(static_cast<uint64_t>(idle_ms) * 1'000'000);
    }
  }

  /// Closes connections whose last socket activity is older than
  /// `timeout_ns`. A connection with a predict in flight is exempt: its
  /// completion refreshes the stamp when the response is appended, so a
  /// slow forward cannot time out its own client.
  void SweepIdle(uint64_t timeout_ns) {
    static obs::Counter* idle_closed =
        obs::GetCounter(obs::names::kServeNetIdleClosed);
    const uint64_t now = obs::MonotonicNs();
    std::vector<uint64_t> stale;
    for (const auto& [id, conn] : conns) {
      if (conn.http_pending) continue;
      if (now - conn.last_activity_ns >= timeout_ns) stale.push_back(id);
    }
    for (uint64_t id : stale) {
      idle_closed->Increment();
      CloseConn(id);
    }
  }

  void AcceptAll() {
    static obs::Counter* accepted =
        obs::GetCounter(obs::names::kServeNetConnections);
    static obs::Counter* refused =
        obs::GetCounter(obs::names::kServeNetConnRefused);
    const size_t cap = server->config_.max_connections;
    while (true) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) break;  // EAGAIN / transient — retry on next wake
      if (cap > 0 && conns.size() >= cap) {
        // At the cap: refuse with a typed response instead of letting a
        // slowloris herd pin fds. Best-effort single write — the
        // response fits any fresh socket buffer; binary clients just
        // observe the close.
        static const std::string kRefusalBody =
            "{\"error\":\"connection limit reached\","
            "\"code\":\"RESOURCE_EXHAUSTED\"}\n";
        static const std::string kRefusal =
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(kRefusalBody.size()) +
            "\r\nConnection: close\r\n\r\n" + kRefusalBody;
        [[maybe_unused]] ssize_t n =
            ::send(fd, kRefusal.data(), kRefusal.size(), MSG_NOSIGNAL);
        refused->Increment();
        CloseFd(fd);
        continue;
      }
      if (!SetNonBlocking(fd).ok()) {
        CloseFd(fd);
        continue;
      }
      const uint64_t id = next_conn_id++;
      Connection conn;
      conn.fd = fd;
      conn.last_activity_ns = obs::MonotonicNs();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = id;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        CloseFd(fd);
        continue;
      }
      conns.emplace(id, std::move(conn));
      accepted->Increment();
    }
  }

  void CloseConn(uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second.fd, nullptr);
    CloseFd(it->second.fd);
    conns.erase(it);
  }

  void UpdateInterest(uint64_t id, Connection& conn) {
    const bool want = !conn.outbuf.empty();
    if (want == conn.want_write) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.want_write = want;
  }

  void HandleConn(uint64_t id, uint32_t events) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    Connection& conn = it->second;
    conn.last_activity_ns = obs::MonotonicNs();
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      CloseConn(id);
      return;
    }
    if ((events & EPOLLIN) != 0) {
      char buf[16384];
      while (true) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.inbuf.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        CloseConn(id);  // EOF or hard error
        return;
      }
      if (!ProcessInput(id, conn)) return;  // conn closed
    }
    if ((events & EPOLLOUT) != 0) {
      if (!FlushOut(id, conn)) return;
    }
    UpdateInterest(id, conn);
  }

  /// Writes as much of outbuf as the socket takes. Returns false when
  /// the connection was closed (flush finished a draining connection,
  /// or a hard error).
  bool FlushOut(uint64_t id, Connection& conn) {
    while (!conn.outbuf.empty()) {
      const ssize_t n = ::send(conn.fd, conn.outbuf.data(),
                               conn.outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.outbuf.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      CloseConn(id);
      return false;
    }
    if (conn.outbuf.empty() && conn.close_after_flush) {
      CloseConn(id);
      return false;
    }
    return true;
  }

  /// Parses buffered input. Returns false when the connection was
  /// closed (protocol error).
  bool ProcessInput(uint64_t id, Connection& conn) {
    static obs::Counter* proto_errors =
        obs::GetCounter(obs::names::kServeNetProtocolErrors);
    if (conn.proto == Proto::kUnknown) {
      if (conn.inbuf.empty()) return true;
      conn.proto = static_cast<uint8_t>(conn.inbuf[0]) == kWireMagicByte
                       ? Proto::kBinary
                       : Proto::kHttp;
    }
    if (conn.proto == Proto::kBinary) {
      while (conn.inbuf.size() >= kWireHeaderSize) {
        StatusOr<WireHeader> header = DecodeWireHeader(
            reinterpret_cast<const uint8_t*>(conn.inbuf.data()));
        if (!header.ok()) {
          proto_errors->Increment();
          CloseConn(id);
          return false;
        }
        const size_t frame = kWireHeaderSize + header.value().payload_len;
        if (conn.inbuf.size() < frame) break;
        std::string payload =
            conn.inbuf.substr(kWireHeaderSize, header.value().payload_len);
        conn.inbuf.erase(0, frame);
        HandleBinaryFrame(id, conn, header.value(), payload);
      }
      if (!FlushOut(id, conn)) return false;
      UpdateInterest(id, conn);
      return true;
    }
    // HTTP: sequential request/response; while an async /predict is in
    // flight further pipelined bytes just sit in inbuf.
    while (!conn.http_pending) {
      const size_t head_end = conn.inbuf.find("\r\n\r\n");
      if (head_end == std::string::npos) {
        if (conn.inbuf.size() > kMaxHttpHead) {
          proto_errors->Increment();
          CloseConn(id);
          return false;
        }
        break;
      }
      std::string head = conn.inbuf.substr(0, head_end);
      std::string lowered = head;
      std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      size_t body_len = 0;
      const size_t cl = lowered.find("content-length:");
      if (cl != std::string::npos) {
        long long v = -1;
        std::sscanf(lowered.c_str() + cl, "content-length: %lld", &v);
        if (v < 0 || v > static_cast<long long>(kWireMaxPayload)) {
          proto_errors->Increment();
          CloseConn(id);
          return false;
        }
        body_len = static_cast<size_t>(v);
      }
      if (conn.inbuf.size() < head_end + 4 + body_len) break;
      const std::string body = conn.inbuf.substr(head_end + 4, body_len);
      conn.inbuf.erase(0, head_end + 4 + body_len);
      const bool keep_alive =
          lowered.find("connection: close") == std::string::npos;
      std::istringstream req_line(head.substr(0, head.find("\r\n")));
      std::string method, path;
      req_line >> method >> path;
      if (method.empty() || path.empty()) {
        proto_errors->Increment();
        CloseConn(id);
        return false;
      }
      if (!HandleHttpRequest(id, conn, method, path, body, keep_alive)) {
        return false;
      }
    }
    if (!FlushOut(id, conn)) return false;
    UpdateInterest(id, conn);
    return true;
  }

  void AppendBinaryResponse(Connection& conn, uint64_t ticket,
                            const Status& status, int prediction) {
    WireHeader header;
    header.ticket = ticket;
    std::string payload;
    if (status.ok()) {
      header.type = FrameType::kPredictOk;
      const auto u = static_cast<uint32_t>(prediction);
      payload.push_back(static_cast<char>(u));
      payload.push_back(static_cast<char>(u >> 8));
      payload.push_back(static_cast<char>(u >> 16));
      payload.push_back(static_cast<char>(u >> 24));
    } else {
      header.type = FrameType::kError;
      header.status = status.code();
      payload = status.message();
    }
    header.payload_len = static_cast<uint32_t>(payload.size());
    uint8_t raw[kWireHeaderSize];
    EncodeWireHeader(header, raw);
    conn.outbuf.append(reinterpret_cast<const char*>(raw), sizeof(raw));
    conn.outbuf += payload;
  }

  void AppendHttpResponse(Connection& conn, int code, const char* reason,
                          const char* content_type, const std::string& body,
                          bool keep_alive) {
    conn.outbuf += "HTTP/1.1 " + std::to_string(code) + " " + reason +
                   "\r\nContent-Type: " + content_type +
                   "\r\nContent-Length: " + std::to_string(body.size()) +
                   "\r\nConnection: " +
                   (keep_alive ? "keep-alive" : "close") + "\r\n\r\n";
    conn.outbuf += body;
    if (!keep_alive) conn.close_after_flush = true;
  }

  void AppendHttpStatus(Connection& conn, const Status& status,
                        bool keep_alive) {
    const auto [code, reason] = HttpStatusFor(status.code());
    const std::string body = "{\"error\":\"" + JsonEscape(status.message()) +
                             "\",\"code\":\"" +
                             StatusCodeName(status.code()) + "\"}\n";
    AppendHttpResponse(conn, code, reason, "application/json", body,
                       keep_alive);
  }

  /// Shared predict path: admission -> cache -> SubmitAsync. An OK
  /// return means exactly one completion will arrive for (conn, ticket);
  /// a non-OK return means the caller must reply with the error itself.
  Status SubmitPredict(uint64_t conn_id, bool http, uint64_t ticket,
                       uint32_t deadline_ms, const Graph& graph) {
    // Featurising aborts on a label outside the one-hot width, so the
    // untrusted graph is checked against the spec before it is prepared.
    Status labels = CheckNodeLabels(graph, server->spec_);
    if (!labels.ok()) return labels;
    Status admitted =
        server->admission_.Admit(server->engine_->queue_depth());
    if (!admitted.ok()) return admitted;
    std::shared_ptr<const PreparedGraph> prepared =
        server->cache_.Prepare(graph);
    const uint64_t deadline_ns =
        deadline_ms > 0
            ? obs::MonotonicNs() + static_cast<uint64_t>(deadline_ms) * 1'000'000
            : 0;
    std::shared_ptr<CompletionState> state = completions;
    return server->engine_->SubmitAsync(
        *prepared, deadline_ns,
        [state, conn_id, http, ticket](StatusOr<int> result) {
          Completion c;
          c.conn_id = conn_id;
          c.ticket = ticket;
          c.http = http;
          if (result.ok()) {
            c.prediction = result.value();
          } else {
            c.status = result.status();
          }
          state->Push(std::move(c));
        });
  }

  void HandleBinaryFrame(uint64_t id, Connection& conn,
                         const WireHeader& header,
                         const std::string& payload) {
    static obs::Counter* requests =
        obs::GetCounter(obs::names::kServeNetRequestsBinary);
    requests->Increment();
    if (header.type != FrameType::kPredict) {
      AppendBinaryResponse(
          conn, header.ticket,
          Status::InvalidArgument("client frames must be kPredict"), -1);
      return;
    }
    StatusOr<Graph> graph = GraphFromText(payload);
    if (!graph.ok()) {
      AppendBinaryResponse(conn, header.ticket, graph.status(), -1);
      return;
    }
    Status s = SubmitPredict(id, /*http=*/false, header.ticket,
                             header.deadline_ms, graph.value());
    if (!s.ok()) AppendBinaryResponse(conn, header.ticket, s, -1);
  }

  /// Returns false when the connection was closed.
  bool HandleHttpRequest(uint64_t id, Connection& conn,
                         const std::string& method, const std::string& path,
                         const std::string& body, bool keep_alive) {
    static obs::Counter* requests =
        obs::GetCounter(obs::names::kServeNetRequestsHttp);
    requests->Increment();
    if (method == "GET" && path == "/healthz") {
      AppendHttpResponse(conn, 200, "OK", "text/plain", "ok\n", keep_alive);
      return true;
    }
    if (method == "GET" && path == "/metrics") {
      AppendHttpResponse(conn, 200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8",
                         obs::RenderPrometheus(obs::SnapshotMetrics()),
                         keep_alive);
      return true;
    }
    if (method == "GET" && path == "/stats") {
      AppendHttpResponse(conn, 200, "OK", "application/json",
                         StatsJson(server->engine_->queue_depth()) + "\n",
                         keep_alive);
      return true;
    }
    if (method == "POST" && path == "/reload") {
      if (!server->config_.reload_handler) {
        AppendHttpStatus(conn, Status::NotFound("no reload handler"),
                         keep_alive);
        return true;
      }
      const Status reloaded = server->config_.reload_handler();
      if (reloaded.ok()) {
        AppendHttpResponse(conn, 200, "OK", "application/json",
                           "{\"reloaded\":true}\n", keep_alive);
      } else {
        AppendHttpStatus(conn, reloaded, keep_alive);
      }
      return true;
    }
    if (method == "POST" && path == "/predict") {
      StatusOr<JsonValue> parsed = ParseJson(body);
      if (!parsed.ok()) {
        AppendHttpStatus(conn, parsed.status(), keep_alive);
        return true;
      }
      StatusOr<Graph> graph = GraphFromJson(parsed.value());
      if (!graph.ok()) {
        AppendHttpStatus(conn, graph.status(), keep_alive);
        return true;
      }
      const uint32_t deadline_ms = DeadlineMsFromJson(parsed.value());
      Status s = SubmitPredict(id, /*http=*/true, /*ticket=*/0, deadline_ms,
                               graph.value());
      if (!s.ok()) {
        AppendHttpStatus(conn, s, keep_alive);
        return true;
      }
      conn.http_pending = true;
      conn.http_keep_alive = keep_alive;
      return true;
    }
    AppendHttpStatus(
        conn, Status::NotFound("no handler for " + method + " " + path),
        keep_alive);
    return true;
  }

  void DrainCompletions() {
    std::vector<Completion> done;
    {
      std::lock_guard<std::mutex> lock(completions->mu);
      done.swap(completions->done);
    }
    for (Completion& c : done) {
      auto it = conns.find(c.conn_id);
      if (it == conns.end()) continue;  // connection closed mid-flight
      Connection& conn = it->second;
      conn.last_activity_ns = obs::MonotonicNs();
      if (c.http) {
        conn.http_pending = false;
        if (c.status.ok()) {
          AppendHttpResponse(conn, 200, "OK", "application/json",
                             "{\"prediction\":" +
                                 std::to_string(c.prediction) + "}\n",
                             conn.http_keep_alive);
        } else {
          AppendHttpStatus(conn, c.status, conn.http_keep_alive);
        }
        // Pipelined requests may already be buffered behind the one
        // that just completed.
        if (!ProcessInput(c.conn_id, conn)) continue;
      } else {
        AppendBinaryResponse(conn, c.ticket, c.status, c.prediction);
      }
      if (!FlushOut(c.conn_id, conn)) continue;
      UpdateInterest(c.conn_id, conn);
    }
  }
};

namespace {

AdmissionConfig ResolveAdmission(const InferenceEngine& engine,
                                 AdmissionConfig admission) {
  if (admission.shed_queue_depth == 0) {
    admission.shed_queue_depth = engine.config().queue_capacity;
  }
  return admission;
}

}  // namespace

Server::Server(InferenceEngine* engine, const FeatureSpec& spec,
               const ServerConfig& config)
    : engine_(engine),
      spec_(spec),
      config_(config),
      admission_(ResolveAdmission(*engine, config.admission)),
      cache_(config.cache_capacity, spec) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  HAP_CHECK(!started_) << "Server::Start called twice";
  StatusOr<int> listen_fd = ListenLoopback(config_.port);
  if (!listen_fd.ok()) return listen_fd.status();
  StatusOr<int> port = BoundPort(listen_fd.value());
  if (!port.ok()) {
    CloseFd(listen_fd.value());
    return port.status();
  }
  Status nonblocking = SetNonBlocking(listen_fd.value());
  if (!nonblocking.ok()) {
    CloseFd(listen_fd.value());
    return nonblocking;
  }

  auto loop = std::make_unique<Loop>();
  loop->server = this;
  loop->listen_fd = listen_fd.value();
  loop->epoll_fd = ::epoll_create1(0);
  loop->stop_fd = ::eventfd(0, EFD_NONBLOCK);
  loop->completions = std::make_shared<CompletionState>();
  loop->completions->event_fd = ::eventfd(0, EFD_NONBLOCK);
  if (loop->epoll_fd < 0 || loop->stop_fd < 0 ||
      loop->completions->event_fd < 0) {
    return Status::Internal("epoll/eventfd setup failed: " +
                            std::string(std::strerror(errno)));
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->listen_fd, &ev) != 0) {
    return Status::Internal("epoll_ctl(listen) failed");
  }
  ev.data.u64 = kCompletionTag;
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->completions->event_fd,
                  &ev) != 0) {
    return Status::Internal("epoll_ctl(completion eventfd) failed");
  }
  ev.data.u64 = kStopTag;
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->stop_fd, &ev) != 0) {
    return Status::Internal("epoll_ctl(stop eventfd) failed");
  }

  port_ = port.value();
  loop_ = std::move(loop);
  thread_ = std::thread([this] { loop_->Run(); });
  started_ = true;
  return Status::Ok();
}

void Server::Stop() {
  if (!started_ || !thread_.joinable()) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(loop_->stop_fd, &one, sizeof(one));
  thread_.join();
  loop_.reset();  // closes listener, connections, epoll, stop fd
}

}  // namespace hap::serve
