#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/circuits/benchmarks.hpp"
#include "src/circuits/builder.hpp"
#include "src/core/campaign.hpp"
#include "src/library/osu018.hpp"
#include "src/netlist/verilog.hpp"
#include "src/util/fmt.hpp"
#include "src/util/fsio.hpp"
#include "src/util/json.hpp"
#include "src/util/metrics.hpp"

namespace dfmres {
namespace {

using Mode = CampaignJobSpec::Mode;

/// Trimmed search budgets so a multi-job campaign stays unit-test sized.
void trim(CampaignJobSpec& job) {
  job.flow.atpg.random_batches = 4;
  job.flow.atpg.backtrack_limit = 1000;
  job.resyn.max_iterations_per_phase = 8;
  job.resyn.reanalyses_per_iteration = 8;
}

CampaignJobSpec resyn_job(const std::string& name, const std::string& design,
                          int q_max) {
  CampaignJobSpec job;
  job.name = name;
  job.design = design;
  job.mode = Mode::Resyn;
  job.resyn.q_max = q_max;
  trim(job);
  return job;
}

std::string accepted_trace(const ResynthesisReport& report) {
  std::string out;
  for (const IterationRecord& r : report.trace) {
    if (!r.accepted) continue;
    out += "q" + std::to_string(r.q) + ":" + r.banned_through + "/U" +
           std::to_string(r.undetectable) + "/S" + std::to_string(r.smax) +
           ";";
  }
  return out;
}

/// The same trace, read back from an embedded run report's convergence
/// series.
std::string accepted_trace(const JsonValue& run_report) {
  std::string out;
  const JsonValue* series =
      run_report.find("resynthesis")->find("convergence");
  for (const JsonValue& r : series->items()) {
    if (!r.find("accepted")->as_bool()) continue;
    const auto count = [&](const char* key) {
      return std::to_string(
          static_cast<std::uint64_t>(r.find(key)->as_number()));
    };
    out += "q" + count("q") + ":" + r.find("ban_through")->as_string() +
           "/U" + count("undetectable") + "/S" + count("smax") + ";";
  }
  return out;
}

/// A fresh campaign root under the test temp dir.
std::string fresh_root(const std::string& tag) {
  const std::string root = testing::TempDir() + "dfmres_campaign_" + tag +
                           "_" + std::to_string(::getpid());
  std::filesystem::remove_all(root);
  return root;
}

JsonValue parse_report(const std::string& text) {
  auto doc = JsonValue::parse(text);
  EXPECT_TRUE(doc) << doc.status().to_string();
  return doc ? std::move(*doc) : JsonValue();
}

std::string canonical(const std::string& report) {
  const auto canon = canonical_campaign_report(report);
  EXPECT_TRUE(canon) << canon.status().to_string();
  return canon ? *canon : std::string();
}

TEST(ParseDurationSpec, AcceptsSuffixes) {
  using std::chrono::nanoseconds;
  EXPECT_EQ(parse_duration_spec("500ms").value(), nanoseconds(500'000'000));
  EXPECT_EQ(parse_duration_spec("2s").value(), nanoseconds(2'000'000'000));
  EXPECT_EQ(parse_duration_spec("2").value(), nanoseconds(2'000'000'000));
  EXPECT_EQ(parse_duration_spec("1m").value(), nanoseconds(60'000'000'000));
  EXPECT_EQ(parse_duration_spec("1.5ms").value(), nanoseconds(1'500'000));
}

TEST(ParseDurationSpec, RejectsGarbage) {
  EXPECT_FALSE(parse_duration_spec(""));
  EXPECT_FALSE(parse_duration_spec("abc"));
  EXPECT_FALSE(parse_duration_spec("-3s"));
  EXPECT_FALSE(parse_duration_spec("0"));
  EXPECT_FALSE(parse_duration_spec("12x"));
  EXPECT_FALSE(parse_duration_spec("1e10s"));  // > 1e9 seconds
  EXPECT_EQ(parse_duration_spec("oops").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CampaignManifest, RoundTripsThroughJson) {
  CampaignManifest manifest;
  manifest.jobs.push_back(resyn_job("a", "sparc_tlu", 0));
  manifest.jobs.push_back(resyn_job("b", "wb_conmax", 2));
  manifest.jobs[0].mode = Mode::Flow;
  manifest.jobs[0].flow.utilization = 0.65;
  manifest.jobs[0].flow.warm_start = false;
  manifest.jobs[1].deadline = std::chrono::milliseconds(1500);
  manifest.jobs[1].resyn.p1 = 0.02;
  manifest.jobs[1].resyn.dedup_candidates = false;

  const auto parsed = CampaignManifest::from_json(manifest.to_json());
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  ASSERT_EQ(parsed->jobs.size(), 2u);
  EXPECT_EQ(parsed->jobs[0].name, "a");
  EXPECT_EQ(parsed->jobs[0].mode, Mode::Flow);
  EXPECT_DOUBLE_EQ(parsed->jobs[0].flow.utilization, 0.65);
  EXPECT_FALSE(parsed->jobs[0].flow.warm_start);
  EXPECT_EQ(parsed->jobs[1].design, "wb_conmax");
  EXPECT_EQ(parsed->jobs[1].resyn.q_max, 2);
  EXPECT_DOUBLE_EQ(parsed->jobs[1].resyn.p1, 0.02);
  EXPECT_FALSE(parsed->jobs[1].resyn.dedup_candidates);
  EXPECT_EQ(parsed->jobs[1].deadline, std::chrono::nanoseconds(1'500'000'000));
  EXPECT_EQ(parsed->jobs[1].flow.atpg.random_batches, 4);
  EXPECT_EQ(parsed->jobs[1].resyn.max_iterations_per_phase, 8);
  // Canonical form: a second round trip is textually identical.
  EXPECT_EQ(parsed->to_json(), manifest.to_json());
}

TEST(CampaignManifest, RejectsMalformedDocuments) {
  const auto code = [](const char* text) {
    const auto m = CampaignManifest::from_json(text);
    return m ? StatusCode::kOk : m.status().code();
  };
  const std::string head =
      "{\"schema\": \"dfmres-campaign-manifest-v1\", \"jobs\": [";
  // Syntax error (carries a line:column locator).
  const auto syntax = CampaignManifest::from_json("{\"schema\": }");
  ASSERT_FALSE(syntax);
  EXPECT_NE(syntax.status().message().find("json 1:"), std::string::npos);
  // Wrong / missing schema.
  EXPECT_EQ(code("{\"jobs\": []}"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("{\"schema\": \"nope\", \"jobs\": []}"),
            StatusCode::kInvalidArgument);
  // Unknown keys, at both levels.
  EXPECT_EQ(code("{\"schema\": \"dfmres-campaign-manifest-v1\", "
                 "\"jobs\": [], \"extra\": 1}"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      code((head + "{\"name\": \"a\", \"design\": \"sparc_tlu\", "
                   "\"typo\": 1}]}")
               .c_str()),
      StatusCode::kInvalidArgument);
  // Missing required keys.
  EXPECT_EQ(code((head + "{\"design\": \"sparc_tlu\"}]}").c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a\"}]}").c_str()),
            StatusCode::kInvalidArgument);
  // Bad enum / bad range / wrong type / bad duration.
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\", "
                         "\"mode\": \"other\"}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\", "
                         "\"q_max\": 101}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\", "
                         "\"q_max\": 2.5}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\", "
                         "\"warm_start\": 1}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\", "
                         "\"deadline\": \"soon\"}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  // Duplicate job names; names with path separators; empty manifests.
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\"}, "
                         "{\"name\": \"a\", \"design\": \"e\"}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a/b\", \"design\": \"d\"}]}").c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("{\"schema\": \"dfmres-campaign-manifest-v1\", "
                 "\"jobs\": []}"),
            StatusCode::kInvalidArgument);
}

TEST(CampaignManifest, Table2CoversEveryBenchmark) {
  const CampaignManifest manifest = table2_manifest();
  ASSERT_EQ(manifest.jobs.size(), benchmark_names().size());
  EXPECT_TRUE(manifest.validate().is_ok());
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    EXPECT_EQ(manifest.jobs[i].design, std::string(benchmark_names()[i]));
    EXPECT_EQ(manifest.jobs[i].mode, Mode::Resyn);
    EXPECT_EQ(manifest.jobs[i].resyn.q_max, 5);
  }
  const auto parsed = CampaignManifest::from_json(manifest.to_json());
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  EXPECT_EQ(parsed->jobs.size(), manifest.jobs.size());
}

TEST(CampaignManifest, ReadReportsMissingFile) {
  const auto m = CampaignManifest::read(testing::TempDir() +
                                        "dfmres_no_such_manifest.json");
  ASSERT_FALSE(m);
  EXPECT_EQ(m.status().code(), StatusCode::kNotFound);
}

TEST(Campaign, RejectsEmptyManifest) {
  const auto result =
      run_campaign(CampaignManifest{}, fresh_root("empty"), CampaignOptions{});
  ASSERT_FALSE(result);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

/// A cancelled campaign follows the lease rules: no job is claimed, no
/// shard or report is published, and the root stays resumable.
TEST(Campaign, SkipsEverythingWhenPreCancelled) {
  CampaignManifest manifest;
  manifest.jobs.push_back(resyn_job("a", "sparc_tlu", 0));
  manifest.jobs.push_back(resyn_job("b", "wb_conmax", 0));
  CancelToken token;
  token.cancel();
  CampaignOptions options;
  options.cancel = &token;
  options.max_parallel_jobs = 2;
  const std::string root = fresh_root("cancelled");
  const auto result = run_campaign(manifest, root, options);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  const auto shards = list_dir(root + "/shards");
  ASSERT_TRUE(shards) << shards.status().to_string();
  EXPECT_TRUE(shards->empty());
  EXPECT_FALSE(path_exists(root + "/report.json"));
}

/// Two flow jobs on two in-process lease workers sharing one root (the
/// TSan target): both complete, the header records the fan-out, and
/// the canonical report equals a one-worker run's.
TEST(Campaign, TwoInProcessWorkersMatchOneWorker) {
  CampaignManifest manifest;
  for (const char* name : {"tlu-a", "tlu-b"}) {
    manifest.jobs.push_back(resyn_job(name, "sparc_tlu", 0));
    manifest.jobs.back().mode = Mode::Flow;
  }
  manifest.jobs[1].flow.atpg.seed = 7;
  CampaignOptions options;
  options.total_threads = 2;
  options.max_parallel_jobs = 2;
  const auto two = run_campaign(manifest, fresh_root("two"), options);
  ASSERT_TRUE(two) << two.status().to_string();
  const JsonValue doc = parse_report(*two);
  EXPECT_EQ(doc.find("completed")->as_number(), 2.0);
  EXPECT_EQ(doc.find("jobs_in_flight")->as_number(), 2.0);
  EXPECT_EQ(doc.find("inner_threads")->as_number(), 1.0);
  const std::string owner_prefix = "w" + std::to_string(::getpid()) + ".";
  for (const JsonValue& job : doc.find("jobs")->items()) {
    EXPECT_TRUE(job.find("ok")->as_bool());
    EXPECT_EQ(job.find("worker")->as_string().rfind(owner_prefix, 0), 0u);
  }
  options.max_parallel_jobs = 1;
  const auto one = run_campaign(manifest, fresh_root("one"), options);
  ASSERT_TRUE(one) << one.status().to_string();
  EXPECT_EQ(canonical(*two), canonical(*one));
}

/// One failing job (unknown design) must not disturb its neighbors: it
/// is retried, then poisoned into the report with its last error. A
/// job whose deadline expires returns its best design, flagged.
TEST(CampaignHeavy, IsolatesFailingAndExpiringJobs) {
  CampaignManifest manifest;
  manifest.jobs.push_back(resyn_job("good", "sparc_tlu", 0));
  manifest.jobs.push_back(resyn_job("missing", "no_such_design", 0));
  manifest.jobs.push_back(resyn_job("rushed", "sparc_tlu", 5));
  manifest.jobs[2].deadline = std::chrono::milliseconds(1);
  CampaignOptions options;
  options.max_parallel_jobs = 3;
  const auto result = run_campaign(manifest, fresh_root("isolate"), options);
  ASSERT_TRUE(result) << result.status().to_string();
  const JsonValue doc = parse_report(*result);
  EXPECT_EQ(doc.find("failed")->as_number(), 1.0);
  EXPECT_EQ(doc.find("skipped")->as_number(), 0.0);
  EXPECT_EQ(doc.find("completed")->as_number() +
                doc.find("expired")->as_number(),
            2.0);
  const auto& jobs = doc.find("jobs")->items();
  ASSERT_EQ(jobs.size(), 3u);

  const JsonValue& good = jobs[0];
  EXPECT_TRUE(good.find("ok")->as_bool());
  const JsonValue* good_report = good.find("report");
  ASSERT_NE(good_report, nullptr);
  EXPECT_GT(good_report->find("final")->find("coverage")->as_number(), 0.9);

  const JsonValue& missing = jobs[1];
  EXPECT_FALSE(missing.find("ok")->as_bool());
  EXPECT_FALSE(missing.find("skipped")->as_bool());
  EXPECT_TRUE(missing.find("poisoned")->as_bool());
  EXPECT_NE(missing.find("status")->as_string().find("not_found"),
            std::string::npos)
      << missing.find("status")->as_string();
  EXPECT_EQ(missing.find("report"), nullptr);

  const JsonValue& rushed = jobs[2];
  EXPECT_EQ(rushed.find("status")->as_string(), "ok");
  EXPECT_NE(rushed.find("report"), nullptr);
  EXPECT_TRUE(rushed.find("deadline_expired")->as_bool());
}

/// The acceptance criterion of the scheduler: every job's results are
/// bit-identical to the same job run alone, at any --jobs level.
TEST(CampaignHeavy, JobsAreBitIdenticalToStandaloneRuns) {
  CampaignManifest manifest;
  manifest.jobs.push_back(resyn_job("tlu-q0", "sparc_tlu", 0));
  manifest.jobs.push_back(resyn_job("tlu-q2", "sparc_tlu", 2));
  manifest.jobs.push_back(resyn_job("wb-q2", "wb_conmax", 2));

  // Standalone reference runs (same options, no scheduler).
  struct Reference {
    std::size_t u, smax, faults, tests, detected;
    double coverage;
    std::string trace;
    std::uint64_t fingerprint;
  };
  std::vector<Reference> refs;
  for (const CampaignJobSpec& spec : manifest.jobs) {
    DesignFlow flow(osu018_library(), spec.flow);
    const FlowState original =
        flow.run_initial(build_benchmark(spec.design).value()).value();
    const std::uint64_t fingerprint =
        resynthesis_fingerprint(flow, original, spec.resyn);
    const ResynthesisResult result =
        resynthesize(flow, original, spec.resyn).value();
    refs.push_back({result.state.num_undetectable(), result.state.smax(),
                    result.state.num_faults(), result.state.atpg.tests.size(),
                    result.state.atpg.num_detected, result.state.coverage(),
                    accepted_trace(result.report), fingerprint});
  }

  std::vector<std::string> canons;
  for (const int jobs : {1, 4}) {
    CampaignOptions options;
    options.max_parallel_jobs = jobs;
    const auto result = run_campaign(
        manifest, fresh_root("ident" + std::to_string(jobs)), options);
    ASSERT_TRUE(result) << result.status().to_string();
    const JsonValue doc = parse_report(*result);
    const auto& entries = doc.find("jobs")->items();
    ASSERT_EQ(entries.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const JsonValue& job = entries[i];
      const std::string name = job.find("name")->as_string();
      ASSERT_TRUE(job.find("ok")->as_bool())
          << name << ": " << job.find("status")->as_string();
      const JsonValue& report = *job.find("report");
      const JsonValue& s = *report.find("final");
      const auto count = [&](const char* key) {
        return static_cast<std::size_t>(s.find(key)->as_number());
      };
      EXPECT_EQ(count("undetectable"), refs[i].u) << name;
      EXPECT_EQ(count("smax"), refs[i].smax) << name;
      EXPECT_EQ(count("faults"), refs[i].faults) << name;
      EXPECT_EQ(count("tests"), refs[i].tests) << name;
      EXPECT_EQ(count("detected"), refs[i].detected) << name;
      EXPECT_NEAR(s.find("coverage")->as_number(), refs[i].coverage, 1e-9)
          << name;
      EXPECT_EQ(accepted_trace(report), refs[i].trace) << name;
      EXPECT_EQ(report.find("fingerprint")->as_string(),
                strfmt("%016llx",
                       static_cast<unsigned long long>(refs[i].fingerprint)))
          << name;
    }
    canons.push_back(canonical(*result));
  }
  EXPECT_EQ(canons[0], canons[1]);
}

/// The campaign report parses as strict JSON and carries the schema,
/// per-job run reports and the merged metrics; it is the document the
/// root holds.
TEST(CampaignHeavy, ReportValidates) {
  CampaignManifest manifest;
  manifest.jobs.push_back(resyn_job("tlu", "sparc_tlu", 0));
  manifest.jobs[0].mode = Mode::Flow;
  const std::string root = fresh_root("validates");
  const auto result = run_campaign(manifest, root, CampaignOptions{});
  ASSERT_TRUE(result) << result.status().to_string();
  const auto on_disk = read_file(root + "/report.json");
  ASSERT_TRUE(on_disk) << on_disk.status().to_string();
  EXPECT_EQ(*on_disk, *result);

  const JsonValue doc = parse_report(*result);
  EXPECT_EQ(doc.find("schema")->as_string(), "dfmres-campaign-report-v1");
  EXPECT_EQ(doc.find("jobs_total")->as_number(), 1.0);
  EXPECT_EQ(doc.find("completed")->as_number(), 1.0);
  const JsonValue& jobs = *doc.find("jobs");
  ASSERT_TRUE(jobs.is_array());
  ASSERT_EQ(jobs.items().size(), 1u);
  const JsonValue& job = jobs.items()[0];
  EXPECT_EQ(job.find("name")->as_string(), "tlu");
  EXPECT_TRUE(job.find("ok")->as_bool());
  const JsonValue* report = job.find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->find("command")->as_string(), "flow");
  ASSERT_NE(report->find("final"), nullptr);
  EXPECT_GT(report->find("final")->find("coverage")->as_number(), 0.9);
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->is_object());

  // The merged metrics carry the job's shard.
  MetricsRegistry merged;
  ASSERT_TRUE(merged.merge_json(*metrics).is_ok());
  EXPECT_GT(merged.counter("atpg.patterns_simulated"), 0u);
}

/// A mapped .v design file runs through the campaign's flow mode.
TEST(CampaignHeavy, LoadsVerilogDesignFiles) {
  CampaignJobSpec spec = resyn_job("mapped", "sparc_tlu", 0);
  DesignFlow flow(osu018_library(), spec.flow);
  const FlowState standalone =
      flow.run_initial(build_benchmark("sparc_tlu").value()).value();

  const std::string path = testing::TempDir() + "dfmres_campaign_design.v";
  {
    std::ofstream out(path);
    write_verilog(standalone.netlist, out);
  }
  CampaignManifest manifest;
  spec.design = path;
  spec.mode = Mode::Flow;
  manifest.jobs.push_back(spec);
  const auto result =
      run_campaign(manifest, fresh_root("verilog"), CampaignOptions{});
  ASSERT_TRUE(result) << result.status().to_string();
  const JsonValue doc = parse_report(*result);
  const JsonValue& job = doc.find("jobs")->items()[0];
  ASSERT_TRUE(job.find("ok")->as_bool()) << job.find("status")->as_string();
  EXPECT_EQ(job.find("report")->find("final")->find("faults")->as_number(),
            static_cast<double>(standalone.num_faults()));
}

/// The consolidated API contract the deleted pre-campaign shims used to
/// forward to: a speculative ProbeSession of an unchanged design agrees
/// with a committed analyze() of the same design, and committing the
/// session folds its counters into the flow totals.
TEST(AnalysisApi, ProbeSessionMatchesCommittedAnalysis) {
  CircuitBuilder cb("shim");
  const auto a = cb.dff_bus(cb.input_bus("a", 4));
  const auto b = cb.dff_bus(cb.input_bus("b", 4));
  auto [sum, carry] = cb.ripple_add(a, b, cb.input("cin"));
  cb.output_bus(cb.dff_bus(sum));
  cb.output(carry);
  const Netlist design = cb.take();

  FlowOptions options;
  options.atpg.random_batches = 4;

  DesignFlow via_probe(osu018_library(), options);
  const FlowState base_probe = via_probe.run_initial(design).value();
  DesignFlow via_api(osu018_library(), options);
  const FlowState base_api = via_api.run_initial(design).value();

  // Committed re-analysis vs a speculative probe of the same netlist.
  const auto committed = via_api.analyze(AnalysisRequest::incremental(
      base_api.netlist, base_api.placement, /*generate_tests=*/false));
  ASSERT_TRUE(committed) << committed.status().to_string();
  ProbeSession probe = via_probe.probe();
  const auto probed = probe.reanalyze(base_probe.netlist,
                                      base_probe.placement,
                                      /*generate_tests=*/false);
  ASSERT_TRUE(probed) << probed.status().to_string();
  EXPECT_EQ(committed->num_undetectable(), probed->num_undetectable());
  EXPECT_EQ(committed->smax(), probed->smax());
  EXPECT_EQ(committed->coverage(), probed->coverage());

  // A hand-committed u_in probe agrees across independent flows and
  // folds its counters into the flow totals on commit.
  ProbeSession s_api = via_api.probe();
  const auto count_api = s_api.count_undetectable_internal(base_api.netlist);
  ASSERT_TRUE(count_api) << count_api.status().to_string();
  via_api.commit_probe(std::move(s_api));
  ProbeSession s_probe = via_probe.probe();
  const auto count_probe =
      s_probe.count_undetectable_internal(base_probe.netlist);
  ASSERT_TRUE(count_probe) << count_probe.status().to_string();
  EXPECT_EQ(*count_api, *count_probe);
  // (A probe of the unchanged committed design is fully cache-hit, so
  // its pattern count is legitimately zero — the fold must still hold.)
  const std::uint64_t probe_patterns = s_probe.counters().patterns_simulated;
  const std::uint64_t before = via_probe.atpg_totals().patterns_simulated;
  via_probe.commit_probe(std::move(s_probe));
  EXPECT_EQ(via_probe.atpg_totals().patterns_simulated,
            before + probe_patterns);
}

}  // namespace
}  // namespace dfmres
