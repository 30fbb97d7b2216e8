// Shared fixtures for the service-plane suite (`ctest -L serve`): a small
// simulated datacenter, a fast FlareConfig shared by daemons and their
// offline-replay references, per-test temp state dirs with short socket
// paths, an in-process daemon runner, and a raw-connection helper for the
// overload tests — those must park several unanswered frames on the daemon
// at once, which ServeClient's synchronous one-call-per-connection API
// cannot do.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "core/pipeline.hpp"
#include "dcsim/submission.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"
#include "util/socket.hpp"

namespace flare::serve::testing {

inline dcsim::ScenarioSet make_set(std::size_t n, std::uint64_t seed) {
  dcsim::SubmissionConfig config;
  config.target_distinct_scenarios = n;
  config.seed = seed;
  return dcsim::generate_scenario_set(config, dcsim::default_machine());
}

/// The base archive every serve test fits (150 rows keeps the rank-checked
/// PCA fit comfortably overdetermined, matching tests/core/test_env.hpp).
inline const dcsim::ScenarioSet& base_set() {
  static const dcsim::ScenarioSet kSet = make_set(150, 11);
  return kSet;
}

inline core::FlareConfig serve_flare_config() {
  core::FlareConfig config;
  config.analyzer.fixed_clusters = 4;
  config.analyzer.compute_quality_curve = false;
  return config;
}

/// Unique-per-test scratch directory; removed recursively on destruction.
struct TempTree {
  std::string path;
  explicit TempTree(const std::string& name)
      : path(::testing::TempDir() + "/" + name) {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    std::filesystem::create_directories(path, ec);
  }
  ~TempTree() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return path + "/" + name;
  }
};

inline DaemonConfig daemon_config(const TempTree& tree) {
  DaemonConfig config;
  config.socket_path = tree.file("daemon.sock");
  config.state_dir = tree.file("state");
  config.flare = serve_flare_config();
  return config;
}

#ifdef FLARE_HAVE_UNIX_SOCKETS

/// Polls the daemon with status requests until it answers or `timeout`
/// elapses. Returns true when the daemon is serving.
inline bool wait_until_ready(const std::string& socket_path,
                             std::chrono::milliseconds timeout) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < give_up) {
    try {
      ServeClient client(socket_path, std::chrono::milliseconds(500));
      const ResponseFrame response = client.call(make_status_request());
      if (response.outcome == Outcome::kOk) return true;
    } catch (const ServeError&) {
      // Not up yet (or mid-recovery); retry until the timeout.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// Constructs the daemon (recovery + fit happen here), runs it on a thread,
/// and blocks until it answers status. stop() requests shutdown and joins.
class DaemonRunner {
 public:
  DaemonRunner(DaemonConfig config, const dcsim::ScenarioSet& base)
      : daemon_(std::move(config), base),
        thread_([this] { daemon_.run(); }) {
    if (!wait_until_ready(daemon_.config().socket_path,
                          std::chrono::seconds(30))) {
      ADD_FAILURE() << "daemon never became ready on "
                    << daemon_.config().socket_path;
    }
  }
  ~DaemonRunner() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    try {
      ServeClient shutdown_client(daemon_.config().socket_path);
      (void)shutdown_client.call(make_shutdown_request());
    } catch (const FlareError&) {
      // Already stopping (or stopped): joining is all that is left.
    }
    thread_.join();
  }

  [[nodiscard]] Daemon& daemon() { return daemon_; }
  [[nodiscard]] ServeClient client(
      std::chrono::milliseconds timeout = std::chrono::seconds(30)) const {
    return ServeClient(daemon_.config().socket_path, timeout);
  }

 private:
  Daemon daemon_;
  std::thread thread_;
};

/// One raw connection: lets a test send a frame (or a fragment of one) and
/// read the response later, with other connections' traffic in between.
class RawConn {
 public:
  explicit RawConn(const std::string& socket_path,
                   std::chrono::milliseconds timeout = std::chrono::seconds(30))
      : timeout_(timeout),
        fd_(util::connect_unix(socket_path, util::io_deadline_in(timeout))) {}

  void send(const RequestFrame& frame) {
    send_bytes(encode_request(frame));
  }

  void send_bytes(const std::string& bytes) {
    const util::IoStatus status = util::send_all(
        fd_.get(), bytes.data(), bytes.size(), util::io_deadline_in(timeout_));
    if (status != util::IoStatus::kOk) {
      throw ServeError("RawConn: send failed");
    }
  }

  [[nodiscard]] ResponseFrame read() {
    const util::IoDeadline deadline = util::io_deadline_in(timeout_);
    std::string header(kResponseHeaderBytes, '\0');
    if (util::recv_all(fd_.get(), header.data(), header.size(), deadline) !=
        util::IoStatus::kOk) {
      throw ServeError("RawConn: response header read failed");
    }
    ResponseFrame response;
    const HeaderParse parsed = parse_response_header(header, response);
    if (!parsed.ok) throw ServeError("RawConn: " + parsed.error);
    response.payload.resize(parsed.payload_len);
    if (parsed.payload_len > 0 &&
        util::recv_all(fd_.get(), response.payload.data(), parsed.payload_len,
                       deadline) != util::IoStatus::kOk) {
      throw ServeError("RawConn: response payload read failed");
    }
    return response;
  }

 private:
  std::chrono::milliseconds timeout_;
  util::Fd fd_;
};

/// Polls status until `predicate(kv)` holds or `timeout` elapses.
template <typename Predicate>
bool wait_for_status(const std::string& socket_path, Predicate predicate,
                     std::chrono::milliseconds timeout) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < give_up) {
    ServeClient client(socket_path, std::chrono::seconds(5));
    const ResponseFrame response = client.call(make_status_request());
    if (response.outcome == Outcome::kOk &&
        predicate(parse_kv_payload(response.payload))) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

#endif  // FLARE_HAVE_UNIX_SOCKETS

/// Every response is a terminal outcome: the counters must partition the
/// request count exactly — the accounting pivot of DESIGN.md §16.
inline void expect_fully_accounted(const DaemonStats& stats) {
  EXPECT_EQ(stats.ok + stats.shed + stats.failed + stats.timeout +
                stats.shutting_down,
            stats.requests)
      << "ok=" << stats.ok << " shed=" << stats.shed
      << " failed=" << stats.failed << " timeout=" << stats.timeout
      << " shutting_down=" << stats.shutting_down
      << " requests=" << stats.requests;
}

inline std::string kv_or(const std::map<std::string, std::string>& kv,
                         const std::string& key) {
  const std::optional<std::string> value = kv_get(kv, key);
  return value.value_or("<missing " + key + ">");
}

}  // namespace flare::serve::testing
