// The serve_replay workload's loopback drive of the built hap_served
// daemon (traced run only): the per-layer metrics that exist only with a
// real server between client and model — the wire gap, the engine's
// stages, batching, coalescing, frames, protocol errors and sheds.
//
// Load is a closed loop as a network client produces it: one client
// process, two connections, each keeping 16 binary kPredict frames in
// flight (32 outstanding: two full default micro-batches).
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/socket.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve.h"
#include "serve/protocol.h"
#include "stats.h"

extern char** environ;

namespace perfbench {
namespace {

namespace names = hap::obs::names;
using hap::serve::FrameType;
using hap::serve::WireHeader;

// hap_served's kernel pool: two threads, so that with one two-connection
// client the daemon fits the machine's four CPUs.
constexpr int kServedPoolThreads = 2;
constexpr int kConnections = 2;
constexpr int kInFlight = 16;
constexpr int kWarmupRequests = 1024;
constexpr double kDriveSeconds = 5.0;
constexpr double kStartTimeoutS = 30.0;
constexpr double kStopTimeoutS = 30.0;

// One hap_served process. The destructor kills and reaps a process that
// was not terminated, so no exit path leaves a server behind.
class ServerProcess {
 public:
  ServerProcess(const RunConfig& config, const std::string& checkpoint,
                const std::string& port_file, const std::string& log_file) {
    std::vector<std::string> args = {config.served_binary, "--dataset",
                                     "proteins",           "--checkpoint",
                                     checkpoint,           "--port-file",
                                     port_file};
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::string(*e).rfind("HAP_", 0) != 0) env.emplace_back(*e);
    }
    env.push_back("HAP_NUM_THREADS=" + std::to_string(kServedPoolThreads));
    std::vector<char*> argv, envp;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                               envp.data());
    posix_spawn_file_actions_destroy(&actions);
    Require(rc == 0, "hap_served starts",
            "posix_spawn " + config.served_binary + ": " + std::to_string(rc));
  }

  ~ServerProcess() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int pid() const { return pid_; }

  // Polls for the port file hap_served writes once it listens.
  int WaitForPort(const std::string& port_file) {
    const double deadline = NowS() + kStartTimeoutS;
    while (NowS() < deadline) {
      std::ifstream in(port_file);
      std::string line;
      if (in && std::getline(in, line) && !in.eof()) {
        return std::stoi(line);
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        Require(false, "hap_served starts", "exited before listening");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Require(false, "hap_served starts", "no port file after 30 s");
    return -1;
  }

  // SIGTERM, then reaps; returns the exit code (-1 for a signal death).
  int Terminate() {
    ::kill(pid_, SIGTERM);
    const double deadline = NowS() + kStopTimeoutS;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      Require(NowS() < deadline, "hap_served exits 0 on SIGTERM",
              "still running 30 s after SIGTERM");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
};

// GET over a fresh connection; returns the body of a 200 response.
std::string HttpGet(int port, const std::string& path) {
  hap::StatusOr<int> fd = hap::ConnectLoopback(port);
  Require(fd.ok(), "HTTP scrape", fd.status().ToString());
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  hap::Status sent = hap::SendAll(fd.value(), request.data(), request.size());
  std::string response;
  char buf[65536];
  while (sent.ok()) {
    const ssize_t n = ::recv(fd.value(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  hap::CloseFd(fd.value());
  const size_t body = response.find("\r\n\r\n");
  Require(sent.ok() && response.rfind("HTTP/1.1 200", 0) == 0 &&
              body != std::string::npos,
          "HTTP scrape", "GET " + path + " did not answer 200");
  return response.substr(body + 4);
}

Scrape ScrapeServer(int port) {
  hap::StatusOr<Scrape> scrape = ParsePrometheus(HttpGet(port, "/metrics"));
  Require(scrape.ok(), "HTTP scrape", scrape.status().ToString());
  return std::move(scrape).value();
}

// When a connection stops sending, and whether its frames are traced.
struct LoopPlan {
  int64_t max_sends = INT64_MAX;  // per connection
  uint64_t end_ns = UINT64_MAX;
  bool traced = false;
};

struct ConnectionResult {
  FrameTally tally;
  std::vector<double> latency_ms;
  int64_t mismatches = 0;
  std::string first_mismatch;
  unsigned classes = 0;  // bit c: the stream sent a graph of class c
  hap::Status error;

  void Merge(const ConnectionResult& other) {
    tally.Merge(other.tally);
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    mismatches += other.mismatches;
    if (first_mismatch.empty()) first_mismatch = other.first_mismatch;
    classes |= other.classes;
    if (error.ok()) error = other.error;
  }
};

// Closed loop on one connection: keep kInFlight frames outstanding, send
// the next request as each response arrives, stop sending at the plan's
// end and drain.
void RunConnection(int fd, int conn, RequestStream* stream,
                   const LoopPlan& plan, const ServeInputs& in,
                   SpanRecorder* spans, ConnectionResult* out) {
  struct Slot {
    uint64_t ticket = 0;
    uint64_t send_ns = 0;
    int graph = -1;
  };
  std::array<Slot, kInFlight> slots;
  uint64_t next_ticket = static_cast<uint64_t>(conn) << 48;

  auto send = [&](int slot) {
    const uint64_t now = hap::obs::MonotonicNs();
    if (out->tally.sent >= plan.max_sends || now >= plan.end_ns) return false;
    const int graph = stream->Next();
    slots[slot] = Slot{next_ticket, now, graph};
    hap::Status s =
        hap::serve::SendPredict(fd, next_ticket++, 0, in.payloads[graph]);
    if (!s.ok()) {
      out->error = s;
      return false;
    }
    ++out->tally.sent;
    out->classes |= 1u << in.reference[graph];
    return true;
  };

  int outstanding = 0;
  for (int slot = 0; slot < kInFlight && send(slot); ++slot) ++outstanding;
  std::string payload;
  while (outstanding > 0 && out->error.ok()) {
    hap::StatusOr<WireHeader> header = hap::serve::RecvFrame(fd, &payload);
    if (!header.ok()) {
      out->error = header.status();
      return;
    }
    const uint64_t now = hap::obs::MonotonicNs();
    int slot = 0;
    while (slot < kInFlight && slots[slot].ticket != header.value().ticket) {
      ++slot;
    }
    if (slot == kInFlight) {
      out->error = hap::Status::Internal("response for an unknown ticket");
      return;
    }
    --outstanding;
    const Slot& s = slots[slot];
    out->tally.Answered(header.value().type, header.value().status);
    if (header.value().type == FrameType::kPredictOk) {
      hap::StatusOr<int> predicted = hap::serve::DecodePrediction(payload);
      if ((!predicted.ok() || predicted.value() != in.reference[s.graph]) &&
          out->mismatches++ == 0) {
        out->first_mismatch =
            "graph " + std::to_string(s.graph) + ": expected " +
            std::to_string(in.reference[s.graph]) + ", served " +
            (predicted.ok() ? std::to_string(predicted.value())
                            : predicted.status().ToString());
      }
    }
    if (now < plan.end_ns) {
      out->latency_ms.push_back(static_cast<double>(now - s.send_ns) / 1e6);
      if (plan.traced) {
        spans->Add("client.frame", s.send_ns, now, -1, s.ticket,
                   static_cast<uint32_t>(1 + conn * kInFlight + slot));
      }
    }
    if (send(slot)) ++outstanding;
  }
}

// Runs `plan` on every connection at once, merges and checks the results.
ConnectionResult RunLoad(const std::vector<int>& fds, uint64_t seed,
                         const LoopPlan& plan, const ServeInputs& in,
                         SpanRecorder* spans) {
  std::vector<RequestStream> streams;
  for (size_t c = 0; c < fds.size(); ++c) {
    streams.emplace_back(MixSeed(seed, 100 + c));
  }
  std::vector<ConnectionResult> results(fds.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < fds.size(); ++c) {
    threads.emplace_back([&, c] {
      RunConnection(fds[c], static_cast<int>(c), &streams[c], plan, in, spans,
                    &results[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  ConnectionResult merged = std::move(results[0]);
  for (size_t c = 1; c < results.size(); ++c) merged.Merge(results[c]);
  Require(merged.error.ok(), "client connections", merged.error.ToString());
  Require(merged.mismatches == 0,
          "each served prediction equals ServedModel::Predict",
          std::to_string(merged.mismatches) + " differ; first " +
              merged.first_mismatch);
  Require(merged.tally.Balanced(), "ok + shed + error = sent",
          std::to_string(merged.tally.ok) + " + " +
              std::to_string(merged.tally.shed) + " + " +
              std::to_string(merged.tally.error) +
              " != " + std::to_string(merged.tally.sent));
  return merged;
}

struct Connections {
  std::vector<int> fds;
  explicit Connections(int port) {
    for (int c = 0; c < kConnections; ++c) {
      hap::StatusOr<int> fd = hap::ConnectLoopback(port);
      Require(fd.ok(), "client connections", fd.status().ToString());
      fds.push_back(fd.value());
    }
  }
  ~Connections() {
    for (int fd : fds) hap::CloseFd(fd);
  }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;
};

}  // namespace

void DriveDaemon(const RunConfig& config, const ServeInputs& in,
                 SpanRecorder* spans, Report* report) {
  const std::string port_file = config.work_dir + "/port";
  std::remove(port_file.c_str());
  ServerProcess server(config, in.checkpoint, port_file,
                       config.work_dir + "/hap_served.log");
  const int port = server.WaitForPort(port_file);
  ConnectionResult result;
  Scrape before;
  {
    Connections conns(port);
    LoopPlan warmup;
    warmup.max_sends = kWarmupRequests / kConnections;
    RunLoad(conns.fds, MixSeed(config.seed, 30), warmup, in, spans);
    before = ScrapeServer(port);
    LoopPlan plan;
    plan.end_ns = hap::obs::MonotonicNs() +
                  static_cast<uint64_t>(kDriveSeconds * 1e9);
    plan.traced = true;
    result = RunLoad(conns.fds, MixSeed(config.seed, 40), plan, in, spans);
  }
  const Window window(before, ScrapeServer(port));
  Require(result.classes == 3u,
          "reference predictions over the stream contain both classes",
          "class mask " + std::to_string(result.classes));
  const int code = server.Terminate();
  Require(code == 0, "hap_served exits 0 on SIGTERM",
          "exit status " + std::to_string(code));

  report->Set("server.wire_p50_us",
              Median(result.latency_ms) * 1e3 -
                  window.SketchQuantile(names::kServeLatencyNs, 0.5) / 1e3);
  report->Set("server.frames", window.Counter(names::kServeNetRequestsBinary));
  report->Set("server.protocol_errors",
              window.Counter(names::kServeNetProtocolErrors));
  report->Set("admission.shed", window.Counter(names::kServeShedTotal));
  report->Set("engine.queue_wait_p50_us",
              window.SketchQuantile(names::kServeQueueWaitNs, 0.5) / 1e3);
  report->Set("engine.dispatch_p50_us",
              window.SketchQuantile(names::kServeStageDispatchNs, 0.5) / 1e3);
  report->Set("engine.forward_p50_us",
              window.SketchQuantile(names::kServeStageForwardNs, 0.5) / 1e3);
  report->Set("engine.resolve_p50_us",
              window.SketchQuantile(names::kServeStageResolveNs, 0.5) / 1e3);
  report->Set("engine.batch_size_mean",
              Ratio(window.Sum(names::kServeBatchSize),
                    window.Count(names::kServeBatchSize)));
  const double requests = window.Counter(names::kServeRequests);
  report->Set("engine.coalesce_ratio",
              Ratio(requests,
                    requests - window.Counter(names::kServeCoalesced)));
}

}  // namespace perfbench
