// Lease-protocol and multi-process campaign tests: claim arbitration
// (exactly-once, torn files, backoff, attempt budgets), heartbeat
// takeover, poison tombstones in the merged report, and the
// campaign-level crash-resume bit-identity contract (SIGKILL a worker
// mid-run, let another finish, canonical report equals the
// uninterrupted serial run).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/core/campaign.hpp"
#include "src/core/lease.hpp"
#include "src/util/crashpoint.hpp"
#include "src/util/fsio.hpp"
#include "src/util/json.hpp"

namespace dfmres {
namespace {

using Outcome = LeaseClaim::Outcome;

LeaseConfig fast_config(const std::string& owner) {
  LeaseConfig config;
  config.owner = owner;
  config.heartbeat_period = std::chrono::milliseconds(20);
  config.ttl = std::chrono::milliseconds(60);
  config.max_attempts = 3;
  config.backoff_base = std::chrono::milliseconds(10);
  return config;
}

/// A fresh lease root under the test temp dir.
std::string make_lease_root(const std::string& tag) {
  const std::string root = testing::TempDir() + "dfmres_lease_" + tag + "_" +
                           std::to_string(::getpid());
  EXPECT_TRUE(make_dir(root).is_ok());
  return root;
}

TEST(Lease, FreshJobIsClaimedAtEpochOne) {
  const std::string root = make_lease_root("fresh");
  const LeaseDir leases(root, fast_config("w1"));
  ASSERT_TRUE(leases.init().is_ok());
  const auto claim = leases.try_claim("job");
  ASSERT_TRUE(claim) << claim.status().to_string();
  EXPECT_EQ(claim->outcome, Outcome::Claimed);
  EXPECT_EQ(claim->epoch, 1);
  EXPECT_EQ(claim->attempt, 1);
  EXPECT_FALSE(claim->poison);
  // The holder is live: a second claim (any owner) is Busy.
  const LeaseDir other(root, fast_config("w2"));
  const auto busy = other.try_claim("job");
  ASSERT_TRUE(busy);
  EXPECT_EQ(busy->outcome, Outcome::Busy);
}

TEST(Lease, TornLeaseFileIsImmediatelyClaimable) {
  const std::string root = make_lease_root("torn");
  const LeaseDir leases(root, fast_config("w1"));
  ASSERT_TRUE(leases.init().is_ok());
  ASSERT_TRUE(make_dir(leases.job_dir("job")).is_ok());
  // A crash mid-publish leaves a truncated record; it must not wedge
  // the job until the TTL, it is claimable right away.
  ASSERT_TRUE(write_file_atomic(leases.epoch_path("job", 1),
                                "{\"schema\": \"dfmres-lea", "t")
                  .is_ok());
  const auto claim = leases.try_claim("job");
  ASSERT_TRUE(claim) << claim.status().to_string();
  EXPECT_EQ(claim->outcome, Outcome::Claimed);
  EXPECT_EQ(claim->epoch, 2);
}

TEST(Lease, EmptyLeaseFileIsImmediatelyClaimable) {
  const std::string root = make_lease_root("empty");
  const LeaseDir leases(root, fast_config("w1"));
  ASSERT_TRUE(leases.init().is_ok());
  ASSERT_TRUE(make_dir(leases.job_dir("job")).is_ok());
  ASSERT_TRUE(write_file_atomic(leases.epoch_path("job", 1), "", "t").is_ok());
  const auto claim = leases.try_claim("job");
  ASSERT_TRUE(claim) << claim.status().to_string();
  EXPECT_EQ(claim->outcome, Outcome::Claimed);
  EXPECT_EQ(claim->epoch, 2);
}

TEST(Lease, RacingClaimsWinExactlyOnce) {
  const std::string root = make_lease_root("race");
  {
    const LeaseDir init(root, fast_config("w0"));
    ASSERT_TRUE(init.init().is_ok());
  }
  constexpr int kThreads = 8;
  std::atomic<int> wins{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const LeaseDir leases(root, fast_config("w" + std::to_string(t)));
      const auto claim = leases.try_claim("job");
      if (!claim) {
        errors.fetch_add(1);
        return;
      }
      if (claim->outcome == Outcome::Claimed) wins.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(wins.load(), 1);
}

TEST(Lease, StaleHeartbeatAllowsTakeoverAndOldHolderIsCancelled) {
  const std::string root = make_lease_root("stale");
  const LeaseDir a(root, fast_config("a"));
  ASSERT_TRUE(a.init().is_ok());
  const auto held = a.try_claim("job");
  ASSERT_TRUE(held);
  ASSERT_EQ(held->outcome, Outcome::Claimed);
  // Holder a stops heartbeating; past the TTL the lease is stale.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const LeaseDir b(root, fast_config("b"));
  const auto takeover = b.try_claim("job");
  ASSERT_TRUE(takeover) << takeover.status().to_string();
  EXPECT_EQ(takeover->outcome, Outcome::Claimed);
  EXPECT_EQ(takeover->epoch, 2);
  EXPECT_EQ(takeover->attempt, 2);
  // The usurped holder discovers the higher epoch at its next refresh.
  const Status late = a.heartbeat("job", *held);
  EXPECT_EQ(late.code(), StatusCode::kCancelled);
}

TEST(Lease, HeartbeatKeeperKeepsLeaseFreshAndTripsTokenOnTakeover) {
  const std::string root = make_lease_root("keeper");
  const LeaseDir a(root, fast_config("a"));
  ASSERT_TRUE(a.init().is_ok());
  const auto held = a.try_claim("job");
  ASSERT_TRUE(held);
  ASSERT_EQ(held->outcome, Outcome::Claimed);
  CancelToken job_token;
  HeartbeatKeeper keeper(a, "job", *held, &job_token);
  // With the keeper refreshing, the lease never goes stale: well past
  // the TTL another worker still sees Busy.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const LeaseDir b(root, fast_config("b"));
  const auto busy = b.try_claim("job");
  ASSERT_TRUE(busy);
  EXPECT_EQ(busy->outcome, Outcome::Busy);
  EXPECT_FALSE(keeper.lost());
  EXPECT_FALSE(job_token.expired());
  // Force a takeover by publishing a higher epoch; the keeper must
  // notice within a couple of refresh periods and trip the job token.
  LeaseRecord usurper;
  usurper.owner = "b";
  usurper.attempt = 2;
  usurper.heartbeat_ns = lease_now_ns();
  ASSERT_TRUE(write_file_exclusive(a.epoch_path("job", 2), usurper.to_json(),
                                   "b")
                  .is_ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!keeper.lost() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(keeper.lost());
  EXPECT_TRUE(job_token.expired());
}

TEST(Lease, FailedAttemptBacksOffThenRetriesWithPriorError) {
  const std::string root = make_lease_root("backoff");
  // A window long enough that the in-window claim below cannot race its
  // expiry, however loaded the machine.
  LeaseConfig config = fast_config("w1");
  config.backoff_base = std::chrono::milliseconds(500);
  const LeaseDir leases(root, config);
  ASSERT_TRUE(leases.init().is_ok());
  const auto first = leases.try_claim("job");
  ASSERT_TRUE(first);
  ASSERT_EQ(first->outcome, Outcome::Claimed);
  ASSERT_TRUE(leases.mark_failed("job", *first, "boom").is_ok());
  // Inside the backoff window the job is not claimable, and the claim
  // reports how long to wait.
  const auto backoff = leases.try_claim("job");
  ASSERT_TRUE(backoff);
  EXPECT_EQ(backoff->outcome, Outcome::Backoff);
  EXPECT_GT(backoff->wait_ns, 0u);
  // After the window: claimable at the next attempt, carrying the
  // previous holder's error. Poll, bounded, until the window closes.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto retry = leases.try_claim("job");
  while (retry && retry->outcome == Outcome::Backoff &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    retry = leases.try_claim("job");
  }
  ASSERT_TRUE(retry) << retry.status().to_string();
  EXPECT_EQ(retry->outcome, Outcome::Claimed);
  EXPECT_EQ(retry->attempt, 2);
  EXPECT_FALSE(retry->poison);
  EXPECT_EQ(retry->prior_error, "boom");
}

TEST(Lease, AttemptBudgetExhaustionYieldsPoisonClaim) {
  const std::string root = make_lease_root("poison");
  LeaseConfig config = fast_config("w1");
  config.max_attempts = 2;
  const LeaseDir leases(root, config);
  ASSERT_TRUE(leases.init().is_ok());
  for (int attempt = 1; attempt <= 2; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(90));
    const auto claim = leases.try_claim("job");
    ASSERT_TRUE(claim) << claim.status().to_string();
    ASSERT_EQ(claim->outcome, Outcome::Claimed) << "attempt " << attempt;
    ASSERT_EQ(claim->attempt, attempt);
    EXPECT_FALSE(claim->poison);
    ASSERT_TRUE(
        leases.mark_failed("job", *claim, "fail " + std::to_string(attempt))
            .is_ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(90));
  const auto poison = leases.try_claim("job");
  ASSERT_TRUE(poison) << poison.status().to_string();
  EXPECT_EQ(poison->outcome, Outcome::Claimed);
  EXPECT_EQ(poison->attempt, 3);
  EXPECT_TRUE(poison->poison);
  EXPECT_EQ(poison->prior_error, "fail 2");
}

TEST(Lease, RecordRoundTripsThroughJson) {
  LeaseRecord record;
  record.owner = "w42";
  record.attempt = 3;
  record.running = false;
  record.heartbeat_ns = 123456789;
  record.backoff_until_ns = 987654321;
  record.error = "cancelled: \"deadline\"";
  const auto parsed = LeaseRecord::parse(record.to_json());
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  EXPECT_EQ(parsed->owner, "w42");
  EXPECT_EQ(parsed->attempt, 3);
  EXPECT_FALSE(parsed->running);
  EXPECT_EQ(parsed->heartbeat_ns, 123456789u);
  EXPECT_EQ(parsed->backoff_until_ns, 987654321u);
  EXPECT_EQ(parsed->error, "cancelled: \"deadline\"");
}

// ---- Multi-process campaign layer ----

/// Trimmed search budgets so worker-run jobs stay unit-test sized.
void trim(CampaignJobSpec& job) {
  job.flow.atpg.random_batches = 4;
  job.flow.atpg.backtrack_limit = 1000;
  job.resyn.max_iterations_per_phase = 8;
  job.resyn.reanalyses_per_iteration = 8;
}

CampaignWorkerOptions fast_worker(const std::string& root,
                                  const std::string& owner) {
  CampaignWorkerOptions options;
  options.campaign_root = root;
  options.owner = owner;
  options.total_threads = 1;
  options.heartbeat = std::chrono::milliseconds(20);
  options.lease_ttl = std::chrono::milliseconds(60);
  options.backoff_base = std::chrono::milliseconds(10);
  return options;
}

TEST(CampaignRoot, InitIsIdempotentForIdenticalManifests) {
  CampaignManifest manifest;
  manifest.jobs.push_back({});
  manifest.jobs[0].name = "a";
  manifest.jobs[0].design = "sparc_tlu";
  const std::string root = make_lease_root("init");
  ASSERT_TRUE(init_campaign_root(manifest, root + "/camp").is_ok());
  // Same content: a coordinator restart reuses the root.
  EXPECT_TRUE(init_campaign_root(manifest, root + "/camp").is_ok());
  // Different content: refused, the root belongs to another sweep.
  manifest.jobs[0].design = "wb_conmax";
  const Status other = init_campaign_root(manifest, root + "/camp");
  EXPECT_EQ(other.code(), StatusCode::kAlreadyExists);
  // Round-trip through the stored manifest.
  const auto read_back = read_campaign_root(root + "/camp");
  ASSERT_TRUE(read_back) << read_back.status().to_string();
  ASSERT_EQ(read_back->jobs.size(), 1u);
  EXPECT_EQ(read_back->jobs[0].design, "sparc_tlu");
}

TEST(CampaignRoot, RejectsReservedJobNames) {
  CampaignManifest manifest;
  manifest.jobs.push_back({});
  manifest.jobs[0].name = "__merge__";
  manifest.jobs[0].design = "sparc_tlu";
  EXPECT_EQ(manifest.validate().code(), StatusCode::kInvalidArgument);
}

TEST(CampaignWorker, FailingJobIsPoisonedIntoTheMergedReport) {
  CampaignManifest manifest;
  manifest.jobs.push_back({});
  manifest.jobs[0].name = "doomed";
  manifest.jobs[0].design = "no_such_benchmark";
  const std::string root = make_lease_root("doomed") + "/camp";
  ASSERT_TRUE(init_campaign_root(manifest, root).is_ok());
  CampaignWorkerOptions options = fast_worker(root, "w1");
  options.max_attempts = 2;
  const auto stats = run_campaign_worker(options);
  ASSERT_TRUE(stats) << stats.status().to_string();
  EXPECT_EQ(stats->jobs_poisoned, 1);
  EXPECT_TRUE(stats->merged);
  const auto report_text = read_file(root + "/report.json");
  ASSERT_TRUE(report_text) << report_text.status().to_string();
  const auto doc = JsonValue::parse(*report_text);
  ASSERT_TRUE(doc) << doc.status().to_string();
  EXPECT_EQ(doc->find("failed")->as_number(), 1.0);
  const JsonValue& job = doc->find("jobs")->items()[0];
  EXPECT_FALSE(job.find("ok")->as_bool());
  EXPECT_TRUE(job.find("poisoned")->as_bool());
  // The tombstone records the exhausted budget and the last error.
  EXPECT_GE(job.find("attempts")->as_number(), 2.0);
  EXPECT_NE(job.find("status")->as_string().find("not_found"),
            std::string::npos);
  // Poisoned reports still canonicalize (the projection must not choke
  // on rows without embedded run reports).
  const auto canon = canonical_campaign_report(*report_text);
  ASSERT_TRUE(canon) << canon.status().to_string();
}

TEST(CampaignWorker, SecondWorkerOnDrainedRootHasNothingToDo) {
  CampaignManifest manifest;
  manifest.jobs.push_back({});
  manifest.jobs[0].name = "doomed";
  manifest.jobs[0].design = "no_such_benchmark";
  const std::string root = make_lease_root("drained") + "/camp";
  ASSERT_TRUE(init_campaign_root(manifest, root).is_ok());
  CampaignWorkerOptions options = fast_worker(root, "w1");
  options.max_attempts = 1;
  const auto first = run_campaign_worker(options);
  ASSERT_TRUE(first) << first.status().to_string();
  const auto second = run_campaign_worker(fast_worker(root, "w2"));
  ASSERT_TRUE(second) << second.status().to_string();
  EXPECT_EQ(second->jobs_run, 0);
  EXPECT_EQ(second->jobs_poisoned, 0);
  EXPECT_FALSE(second->merged);  // report already present
}

/// Forks a campaign worker as a child process (threads=1 so the job
/// runs on the inline path — no pool threads cross the fork). Returns
/// the child's wait status.
int fork_worker(const std::string& root, const std::string& owner) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Earlier tests already ran crash_point with no spec armed; pick up
    // the DFMRES_CRASH_AFTER the parent set just before forking.
    crash_point_rearm_from_env();
    const auto stats = run_campaign_worker(fast_worker(root, owner));
    ::_exit(stats ? 0 : 1);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  return wstatus;
}

TEST(CampaignWorkerHeavy, SigkilledWorkerResumesToIdenticalCanonicalReport) {
  CampaignManifest manifest;
  manifest.jobs.push_back({});
  CampaignJobSpec& spec = manifest.jobs[0];
  spec.name = "tlu";
  spec.design = "sparc_tlu";
  spec.resyn.q_max = 0;
  trim(spec);

  // Uninterrupted serial reference, same inner budget as the workers.
  CampaignOptions serial;
  serial.total_threads = 1;
  const auto reference = run_campaign(manifest, serial);
  ASSERT_TRUE(reference) << reference.status().to_string();
  const auto want = canonical_campaign_report(reference->report_json());
  ASSERT_TRUE(want) << want.status().to_string();

  const std::string root = make_lease_root("sigkill") + "/camp";
  ASSERT_TRUE(init_campaign_root(manifest, root).is_ok());

  // First worker: SIGKILL right after claiming the job — it dies
  // without publishing a shard and leaves a stale running lease behind.
  ASSERT_EQ(::setenv("DFMRES_CRASH_AFTER", "job.start:1", 1), 0);
  const int killed = fork_worker(root, "victim");
  ASSERT_EQ(::unsetenv("DFMRES_CRASH_AFTER"), 0);
  ASSERT_TRUE(WIFSIGNALED(killed)) << "worker survived the crash point";
  EXPECT_EQ(WTERMSIG(killed), SIGKILL);
  EXPECT_FALSE(path_exists(root + "/shards/tlu.json"));

  // Second worker: reclaims the stale lease (attempt 2), resumes from
  // the shared checkpoint dir, publishes the shard and merges.
  const int finished = fork_worker(root, "rescuer");
  ASSERT_TRUE(WIFEXITED(finished));
  ASSERT_EQ(WEXITSTATUS(finished), 0);

  const auto merged_text = read_file(root + "/report.json");
  ASSERT_TRUE(merged_text) << merged_text.status().to_string();
  // Provenance is honest in the full report...
  const auto doc = JsonValue::parse(*merged_text);
  ASSERT_TRUE(doc);
  const JsonValue& job = doc->find("jobs")->items()[0];
  EXPECT_EQ(job.find("worker")->as_string(), "rescuer");
  EXPECT_EQ(job.find("attempts")->as_number(), 2.0);
  // ...and stripped by the canonical projection, which must match the
  // uninterrupted run byte for byte.
  const auto got = canonical_campaign_report(*merged_text);
  ASSERT_TRUE(got) << got.status().to_string();
  EXPECT_EQ(*got, *want);
}

TEST(CampaignReport, CanonicalProjectionStripsSchedulingFields) {
  CampaignReportTotals totals;
  totals.jobs_total = 1;
  totals.completed = 1;
  totals.inner_threads = 7;
  totals.total_threads = 14;
  totals.runtime_seconds = 12.5;
  CampaignReportRow row;
  row.name = "a";
  row.design = "sparc_tlu";
  row.mode = "flow";
  row.ok = true;
  row.attempts = 4;
  row.worker = "w99";
  row.inner_threads = 7;
  row.runtime_seconds = 12.5;
  const std::string report =
      render_campaign_report(totals, {row}, "{\"counters\": {}}");
  const auto canon = canonical_campaign_report(report);
  ASSERT_TRUE(canon) << canon.status().to_string();
  // Substance survives; timing, provenance and metrics do not.
  EXPECT_NE(canon->find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(canon->find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(canon->find("runtime_seconds"), std::string::npos);
  EXPECT_EQ(canon->find("w99"), std::string::npos);
  EXPECT_EQ(canon->find("attempts"), std::string::npos);
  EXPECT_EQ(canon->find("inner_threads"), std::string::npos);
  EXPECT_EQ(canon->find("metrics"), std::string::npos);
  // Identical substance from a different schedule canonicalizes to the
  // same bytes.
  CampaignReportTotals other_totals = totals;
  other_totals.inner_threads = 1;
  other_totals.total_threads = 1;
  other_totals.runtime_seconds = 99.0;
  CampaignReportRow other_row = row;
  other_row.attempts = 1;
  other_row.worker = "";
  other_row.runtime_seconds = 99.0;
  const auto other_canon = canonical_campaign_report(
      render_campaign_report(other_totals, {other_row}, "{}"));
  ASSERT_TRUE(other_canon) << other_canon.status().to_string();
  EXPECT_EQ(*canon, *other_canon);
  // Non-campaign documents are rejected.
  EXPECT_FALSE(canonical_campaign_report("{\"schema\": \"nope\"}"));
}

}  // namespace
}  // namespace dfmres
