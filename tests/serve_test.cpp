// Serve-daemon tests: the dfmres-request-v1 socket round-trip with two
// concurrent clients, admission control (quota / inflight / duplicate
// rejections), and the crash-restart contract — SIGKILL the daemon
// mid-run, restart it over the same campaign root, and the recovered
// campaign's canonical report is byte-identical to a serial run.
//
// Fork-based (daemon as a child process), so scripts/run_tsan.sh
// excludes ServeHeavy like the other multi-process suites.

#include "src/core/serve.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/core/campaign.hpp"
#include "src/core/request.hpp"
#include "src/util/crashpoint.hpp"
#include "src/util/fsio.hpp"
#include "src/util/json.hpp"

namespace dfmres {
namespace {

std::string make_root(const std::string& tag) {
  const std::string root = testing::TempDir() + "dfmres_serve_" + tag + "_" +
                           std::to_string(::getpid());
  EXPECT_TRUE(make_dir(root).is_ok());
  return root;
}

/// Trimmed search budgets so daemon-run jobs stay unit-test sized.
void trim(CampaignJobSpec& job) {
  job.flow.atpg.random_batches = 4;
  job.flow.atpg.backtrack_limit = 1000;
  job.resyn.max_iterations_per_phase = 8;
  job.resyn.reanalyses_per_iteration = 8;
}

CampaignManifest flow_manifest(int jobs) {
  CampaignManifest manifest;
  for (int i = 0; i < jobs; ++i) {
    CampaignJobSpec job;
    job.name = "tlu-" + std::to_string(i);
    job.design = "sparc_tlu";
    job.mode = CampaignJobSpec::Mode::Flow;
    job.flow.atpg.seed = static_cast<std::uint64_t>(100 + i);
    trim(job);
    manifest.jobs.push_back(std::move(job));
  }
  return manifest;
}

std::string canon_of(const std::string& report) {
  const auto canon = canonical_campaign_report(report);
  EXPECT_TRUE(canon) << canon.status().to_string();
  return canon ? *canon : std::string();
}

std::string canon_of_file(const std::string& path) {
  const auto text = read_file(path);
  EXPECT_TRUE(text) << path << ": " << text.status().to_string();
  if (!text) return std::string();
  const auto canon = canonical_campaign_report(*text);
  EXPECT_TRUE(canon) << path << ": " << canon.status().to_string();
  return canon ? *canon : std::string();
}

/// Forks the serve daemon. The child re-arms DFMRES_CRASH_AFTER from
/// the environment (crash-injection tests set it pre-fork) and exits 0
/// only on a clean drain.
pid_t fork_daemon(const std::string& root, const std::string& socket_path,
                  int workers, std::size_t max_inflight = 64,
                  std::size_t client_quota = 8) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  crash_point_rearm_from_env();
  ServeOptions options;
  options.campaign_root = root;
  options.socket_path = socket_path;
  options.workers = workers;
  options.total_threads = workers;
  options.max_inflight_jobs = max_inflight;
  options.max_client_campaigns = client_quota;
  options.poll_interval = std::chrono::milliseconds(20);
  const auto stats = run_serve(options);
  ::_exit(stats && stats->drained ? 0 : 1);
}

/// Minimal blocking protocol client over the daemon's Unix socket.
class Client {
 public:
  ~Client() { close(); }

  /// Connects, retrying until the daemon has bound the socket.
  [[nodiscard]] bool connect(const std::string& path, int attempts = 100) {
    for (int i = 0; i < attempts; ++i) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) return false;
      sockaddr_un addr = {};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return true;
      }
      ::close(fd_);
      fd_ = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  [[nodiscard]] bool send(const Request& request) {
    return send_raw(request_to_json(request) + "\n");
  }

  [[nodiscard]] bool send_raw(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next response line, or "" on EOF/timeout.
  [[nodiscard]] std::string read_line(int timeout_ms = 120000) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (!line.empty()) return line;
        continue;
      }
      pollfd p = {fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, timeout_ms);
      if (r <= 0) return std::string();
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return std::string();
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Reads until an event named `event` arrives (returns its document)
  /// or the stream ends (returns parse failure).
  [[nodiscard]] Expected<JsonValue> wait_for(const std::string& event) {
    for (;;) {
      const std::string line = read_line();
      if (line.empty()) {
        return Status(StatusCode::kUnavailable, "stream ended before " + event);
      }
      auto doc = JsonValue::parse(line);
      if (!doc) return doc.status();
      const JsonValue* ev = doc->find("event");
      if (ev == nullptr || !ev->is_string()) continue;
      if (ev->as_string() == event || ev->as_string() == "rejected" ||
          ev->as_string() == "error") {
        return doc;
      }
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

Request submit(const std::string& id, CampaignManifest manifest) {
  Request r;
  r.payload = CampaignRequest{id, std::move(manifest)};
  return r;
}

Request status_of(const std::string& id) {
  Request r;
  r.payload = StatusRequest{id};
  return r;
}

Request drain() {
  Request r;
  r.payload = DrainRequest{};
  return r;
}

void expect_event(const Expected<JsonValue>& doc, const char* event) {
  ASSERT_TRUE(doc) << doc.status().to_string();
  const JsonValue* ev = doc->find("event");
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->as_string(), event);
}

/// Two clients, two concurrent campaigns, four workers: both reports
/// stream back, the daemon drains cleanly, and each campaign's
/// canonical projection is byte-identical to a serial run_campaign of
/// the same manifest.
TEST(ServeHeavy, TwoClientsConcurrentCampaignsCanonIdentical) {
  const CampaignManifest alpha = flow_manifest(3);
  const CampaignManifest beta = flow_manifest(2);

  CampaignOptions serial;
  serial.total_threads = 1;
  const auto ref_alpha =
      run_campaign(alpha, make_root("two_ref") + "/alpha", serial);
  ASSERT_TRUE(ref_alpha) << ref_alpha.status().to_string();
  const auto ref_beta =
      run_campaign(beta, make_root("two_ref") + "/beta", serial);
  ASSERT_TRUE(ref_beta) << ref_beta.status().to_string();

  const std::string root = make_root("two") + "/serve";
  const std::string sock = root + ".sock";
  const pid_t daemon = fork_daemon(root, sock, /*workers=*/4);
  ASSERT_GT(daemon, 0);

  Client c1;
  Client c2;
  ASSERT_TRUE(c1.connect(sock));
  ASSERT_TRUE(c2.connect(sock));
  ASSERT_TRUE(c1.send(submit("alpha", alpha)));
  ASSERT_TRUE(c2.send(submit("beta", beta)));
  expect_event(c1.wait_for("accepted"), "accepted");
  expect_event(c2.wait_for("accepted"), "accepted");

  // Both campaigns complete; each client gets its own report event.
  const auto report_alpha = c1.wait_for("report");
  ASSERT_TRUE(report_alpha) << report_alpha.status().to_string();
  EXPECT_EQ(report_alpha->find("id")->as_string(), "alpha");
  const auto report_beta = c2.wait_for("report");
  ASSERT_TRUE(report_beta) << report_beta.status().to_string();
  EXPECT_EQ(report_beta->find("id")->as_string(), "beta");

  ASSERT_TRUE(c1.send(drain()));
  expect_event(c1.wait_for("drained"), "drained");
  c1.close();
  c2.close();
  int wstatus = 0;
  ASSERT_EQ(::waitpid(daemon, &wstatus, 0), daemon);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);

  // Canon byte-identity against the serial scheduler, per campaign.
  EXPECT_EQ(canon_of_file(root + "/alpha/report.json"), canon_of(*ref_alpha));
  EXPECT_EQ(canon_of_file(root + "/beta/report.json"), canon_of(*ref_beta));

  // The provenance header records the daemon's fan-out: four workers,
  // one lane each out of four threads.
  for (const char* id : {"alpha", "beta"}) {
    const auto text = read_file(root + "/" + id + "/report.json");
    ASSERT_TRUE(text) << text.status().to_string();
    const auto report = JsonValue::parse(*text);
    ASSERT_TRUE(report) << report.status().to_string();
    for (const char* field :
         {"jobs_in_flight", "inner_threads", "total_threads"}) {
      const JsonValue* value = report->find(field);
      ASSERT_NE(value, nullptr) << id << ": " << field;
      EXPECT_GT(value->as_number(), 0.0) << id << ": " << field;
    }
    EXPECT_EQ(report->find("jobs_in_flight")->as_number(), 4.0) << id;
    EXPECT_EQ(report->find("total_threads")->as_number(), 4.0) << id;
  }
}

/// Admission control rejects, never queues silently: duplicate ids,
/// per-client campaign quotas and the inflight-jobs bound all come back
/// as typed `rejected` events while the daemon keeps serving. A
/// deliberately slow resyn job pins one campaign active for the whole
/// test, so every bound is checked deterministically; a cancel request
/// then terminalizes it (skipped shard, merged report) before drain.
TEST(ServeHeavy, AdmissionControlRejectsExplicitly) {
  const std::string root = make_root("admit") + "/serve";
  const std::string sock = root + ".sock";
  const pid_t daemon = fork_daemon(root, sock, /*workers=*/2,
                                   /*max_inflight=*/2, /*client_quota=*/1);
  ASSERT_GT(daemon, 0);

  // One resyn job with untrimmed budgets: runs until cancelled.
  CampaignManifest slow;
  {
    CampaignJobSpec job;
    job.name = "slow";
    job.design = "sparc_tlu";
    job.mode = CampaignJobSpec::Mode::Resyn;
    job.resyn.q_max = 5;
    slow.jobs.push_back(std::move(job));
  }

  Client c1;
  ASSERT_TRUE(c1.connect(sock));
  ASSERT_TRUE(c1.send(submit("slow", slow)));
  expect_event(c1.wait_for("accepted"), "accepted");

  // Same id again: kAlreadyExists, regardless of which client asks.
  Client c2;
  ASSERT_TRUE(c2.connect(sock));
  ASSERT_TRUE(c2.send(submit("slow", flow_manifest(1))));
  auto rejected = c2.wait_for("rejected");
  ASSERT_TRUE(rejected) << rejected.status().to_string();
  EXPECT_EQ(rejected->find("event")->as_string(), "rejected");
  EXPECT_EQ(rejected->find("code")->as_string(), "already_exists");

  // "slow" holds 1 inflight job; 2 more would exceed max_inflight=2.
  ASSERT_TRUE(c2.send(submit("big", flow_manifest(2))));
  rejected = c2.wait_for("rejected");
  ASSERT_TRUE(rejected) << rejected.status().to_string();
  EXPECT_EQ(rejected->find("event")->as_string(), "rejected");
  EXPECT_EQ(rejected->find("code")->as_string(), "resource_exhausted");

  // c1 already has an active campaign and the per-client quota is 1.
  ASSERT_TRUE(c1.send(submit("extra", flow_manifest(1))));
  rejected = c1.wait_for("rejected");
  ASSERT_TRUE(rejected) << rejected.status().to_string();
  EXPECT_EQ(rejected->find("event")->as_string(), "rejected");
  EXPECT_EQ(rejected->find("code")->as_string(), "resource_exhausted");

  // Malformed request: typed error event, connection stays usable.
  ASSERT_TRUE(c2.send_raw("{\"schema\":\"dfmres-request-v1\"}\n"));
  const auto err = c2.wait_for("error");
  ASSERT_TRUE(err) << err.status().to_string();
  EXPECT_EQ(err->find("event")->as_string(), "error");
  ASSERT_TRUE(c2.send(status_of("")));
  const auto server = c2.wait_for("status");
  ASSERT_TRUE(server) << server.status().to_string();

  // Cancel terminalizes the slow campaign: its job lands as a skipped
  // shard and the report still merges (streamed back to c1).
  {
    Request cancel;
    cancel.payload = CancelRequest{"slow"};
    ASSERT_TRUE(c1.send(cancel));
  }
  const auto report = c1.wait_for("report");
  ASSERT_TRUE(report) << report.status().to_string();
  EXPECT_EQ(report->find("id")->as_string(), "slow");
  const JsonValue* body = report->find("report");
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->find("skipped")->as_number(), 1.0);

  ASSERT_TRUE(c1.send(drain()));
  expect_event(c1.wait_for("drained"), "drained");
  c1.close();
  c2.close();
  int wstatus = 0;
  ASSERT_EQ(::waitpid(daemon, &wstatus, 0), daemon);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

/// SIGKILL the daemon mid-run (crash point at a job claim), restart it
/// over the same root: the unfinished campaign is recovered headless,
/// runs to completion, and its canonical report is byte-identical to a
/// serial run — the acceptance contract of the serve subsystem.
TEST(ServeHeavy, SigkillRestartResumesByteIdentical) {
  const CampaignManifest manifest = flow_manifest(3);
  CampaignOptions serial;
  serial.total_threads = 1;
  const auto reference =
      run_campaign(manifest, make_root("sigkill_ref") + "/gamma", serial);
  ASSERT_TRUE(reference) << reference.status().to_string();

  const std::string root = make_root("sigkill") + "/serve";
  const std::string sock = root + ".sock";

  // First daemon: dies at the second job claim, after accepting the
  // campaign — some shards may exist, the report does not.
  ASSERT_EQ(::setenv("DFMRES_CRASH_AFTER", "job.start:2", 1), 0);
  const pid_t victim = fork_daemon(root, sock, /*workers=*/2);
  ASSERT_EQ(::unsetenv("DFMRES_CRASH_AFTER"), 0);
  ASSERT_GT(victim, 0);

  {
    Client c;
    ASSERT_TRUE(c.connect(sock));
    ASSERT_TRUE(c.send(submit("gamma", manifest)));
    expect_event(c.wait_for("accepted"), "accepted");
    // The stream ends when the daemon is SIGKILLed by the crash point.
    for (;;) {
      const std::string line = c.read_line();
      if (line.empty()) break;
    }
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(victim, &wstatus, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "daemon survived the crash point";
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);
  EXPECT_FALSE(path_exists(root + "/gamma/report.json"));

  // Second daemon, same root: restart recovery rescans the sub-roots,
  // re-admits "gamma" headless and finishes its unclaimed jobs.
  const pid_t rescuer = fork_daemon(root, sock, /*workers=*/2);
  ASSERT_GT(rescuer, 0);
  {
    Client c;
    ASSERT_TRUE(c.connect(sock));
    for (int i = 0; i < 1200; ++i) {
      ASSERT_TRUE(c.send(status_of("gamma")));
      const auto doc = c.wait_for("status");
      ASSERT_TRUE(doc) << doc.status().to_string();
      const JsonValue* body = doc->find("status");
      ASSERT_NE(body, nullptr);
      if (body->find("report_written")->as_bool()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ASSERT_TRUE(path_exists(root + "/gamma/report.json"))
        << "recovered campaign did not finish";
    ASSERT_TRUE(c.send(drain()));
    expect_event(c.wait_for("drained"), "drained");
  }
  ASSERT_EQ(::waitpid(rescuer, &wstatus, 0), rescuer);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);

  // The kill schedule left no trace in the canonical projection.
  EXPECT_EQ(canon_of_file(root + "/gamma/report.json"), canon_of(*reference));
}

}  // namespace
}  // namespace dfmres
