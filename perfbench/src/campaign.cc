/**
 * @file
 * The `campaign` workload: explore::explore with random, pct:3 and
 * delay:2 x 10 runs per policy, shrinking and cross-validation on,
 * two jobs, over two fault-free benchmarks (CA-1011, ZK-1270) and
 * two fault-conditioned ones (EL-3891, KV-2501).  It is the only
 * workload that exercises explore, replay and the TaskPool fan-out,
 * and it drives the simulator under adversarial policies and prefix
 * replays instead of traced FIFO runs.
 */

#include <algorithm>
#include <cinttypes>
#include <map>
#include <memory>
#include <thread>

#include "apps/benchmark.hh"
#include "bench.hh"
#include "common/task_pool.hh"
#include "common/util.hh"
#include "explore/crossval.hh"
#include "explore/explorer.hh"
#include "explore/shrink.hh"
#include "replay/driver.hh"
#include "replay/policies.hh"
#include "replay/schedule_log.hh"
#include "runtime/sim.hh"
#include "spans.hh"

namespace perfbench {

using namespace dcatch;

namespace {

const char *const kBenchmarks[] = {"CA-1011", "ZK-1270", "EL-3891",
                                   "KV-2501"};
constexpr std::size_t kCampaigns = std::size(kBenchmarks);
constexpr int kJobs = 2;

/** Seed base of the timed campaigns, whose outputs expected.json
 *  pins.  The seed base decides how many runs fail and so how many
 *  shrink replays a campaign makes: across seed bases a campaign's
 *  wall time moves by more than half, so timed work uses one base. */
constexpr std::uint64_t kPinnedSeedBase = 1;

explore::ExploreOptions
campaignOptions(std::uint64_t seed_base)
{
    explore::ExploreOptions options;
    options.runsPerPolicy = 10;
    options.jobs = kJobs;
    options.seedBase = seed_base;
    return options;
}

/**
 * @p bench with a build step that first confines the calling thread
 * to one CPU: the thread running the campaign keeps its own, and the
 * pool's other worker moves to the next one.  Simulated threads are
 * created during build and inherit the mask, so each simulation hands
 * off between its threads on one CPU while the two jobs still run in
 * parallel.  Replays run on the thread that built the failing run.
 */
apps::Benchmark
onePerJob(const apps::Benchmark &bench, std::thread::id campaignThread)
{
    apps::Benchmark copy = bench;
    copy.build = [build = bench.build,
                  campaignThread](sim::Simulation &sim) {
        if (std::this_thread::get_id() != campaignThread)
            useCpus(1, 1);
        build(sim);
    };
    return copy;
}

/** Seed base of the held-out campaign of workload seed @p seed: each
 *  seed gets its own disjoint block of 30 run seeds, and the default
 *  seed's block is the pinned one. */
std::uint64_t
heldOutSeedBase(std::uint64_t seed)
{
    return kPinnedSeedBase + (seed - kDefaultSeed) * 30;
}

std::string
recordText(const explore::RunRecord &rec)
{
    return strprintf("%s %" PRIu64 " %s failed=%d sig=%s steps=%" PRIu64
                     " decisions=%" PRIu64 " branch=%" PRIu64
                     " diverge=%" PRIu64 " verified=%d crossval=%d "
                     "pair=%s tier=%s prefix=%" PRIu64
                     " replays=%" PRIu64 " minverified=%d minsig=%s\n",
                     rec.policy.c_str(), rec.seed, rec.status.c_str(),
                     rec.failed, rec.signature.c_str(), rec.steps,
                     rec.decisions, rec.branchPoints,
                     rec.divergentChoices, rec.replayVerified,
                     rec.crossValidated, rec.matchedPair.c_str(),
                     rec.matchTier.c_str(), rec.shrunkPrefix,
                     rec.shrinkReplays, rec.minimizedVerified,
                     rec.minimizedSignature.c_str());
}

std::string
campaignText(const explore::CampaignResult &result)
{
    std::string text =
        strprintf("%s monitored=%" PRIu64 " final=%zu\n",
                  result.benchmarkId.c_str(), result.monitoredSteps,
                  result.finalReportCount);
    for (const explore::RunRecord &rec : result.runs)
        text += recordText(rec);
    return text;
}

/** Cross-path checks that hold for every seed. */
void
checkCampaign(const explore::CampaignResult &result, Report &report)
{
    const std::string &id = result.benchmarkId;
    report.check(result.allBundlesVerified(),
                 id + ": a failing run's bundle did not replay "
                      "identically");
    report.check(result.allMinimizedVerified(),
                 id + ": a minimized bundle did not replay identically");
    report.check(result.allFailuresCrossValidated(),
                 id + ": a failure matched no detector candidate");
    for (const explore::RunRecord &rec : result.runs)
        if (rec.failed)
            report.check(rec.minimizedSignature == rec.signature,
                         id + ": shrinking changed a failure signature");
}

/**
 * explore::explore rebuilt from public calls (same stage order and
 * per-run steps), with spans around each layer call.  The
 * cross-validation pipeline runs through tracedPipeline, i.e. at one
 * job; its outputs do not depend on the job count.
 */
explore::CampaignResult
tracedCampaign(const apps::Benchmark &bench,
               const std::vector<explore::PolicySpec> &policies,
               const explore::ExploreOptions &options, Spans &spans)
{
    explore::CampaignResult result;
    result.benchmarkId = bench.id;
    Spans::Scope root(spans, "explore", "campaign");

    PipelineResult monitored = tracedPipeline(bench, spans, false, false);
    std::map<std::string, std::size_t> monitored_order;
    {
        Spans::Scope s(spans, "explore", "crossval");
        monitored_order = explore::siteFirstOccurrence(
            monitored.monitoredTrace);
    }
    result.monitoredSteps = monitored.monitoredRun.steps;
    result.finalReportCount = monitored.afterLp.size();
    const std::uint64_t horizon = result.monitoredSteps;

    const std::size_t per = static_cast<std::size_t>(options.runsPerPolicy);
    const std::size_t total = policies.size() * per;
    std::vector<explore::RunRecord> records(total);
    std::unique_ptr<TaskPool> pool;
    {
        Spans::Scope s(spans, "common", "pool");
        pool = std::make_unique<TaskPool>(
            TaskPool::resolveJobs(options.jobs));
    }
    {
        Spans::Scope fan(spans, "common", "parallel_for");
        const int fan_id = fan.id();
        pool->parallelFor(total, [&](std::size_t idx) {
            Spans::Scope task(spans, "explore", "task", fan_id);
            const explore::PolicySpec &spec = policies[idx / per];
            explore::RunRecord &rec = records[idx];
            rec.policy = spec.text();
            rec.seed = options.seedBase + idx;

            sim::SimConfig config = bench.config;
            config.policy = sim::PolicyKind::Fifo;
            config.seed = rec.seed;
            config.maxSteps = std::min<std::uint64_t>(
                config.maxSteps,
                horizon * options.hangFactor + options.hangSlack);

            sim::Simulation sim(config);
            replay::ScheduleLog log;
            sim.setSchedulerPolicy(std::make_unique<replay::RecordingPolicy>(
                explore::makePolicy(spec, rec.seed, horizon), log,
                [&sim](int tid) { return sim.threadName(tid); }));
            bench.build(sim);
            sim::RunResult run;
            {
                Spans::Scope s(spans, "runtime", "adversarial_run");
                run = sim.run();
            }
            spans.count("runtime.runs", 1);
            spans.count("runtime.steps", static_cast<double>(run.steps));
            spans.count("explore.runs", 1);

            rec.status = sim::runStatusName(run.status);
            rec.steps = run.steps;
            rec.decisions = log.size();
            rec.signature = explore::failureSignature(run);
            rec.failed = explore::isExploreFailure(run);
            for (std::size_t i = 0; i < log.size(); ++i) {
                const replay::Decision &decision = log.at(i);
                if (decision.runnable.size() < 2)
                    continue;
                ++rec.branchPoints;
                if (decision.chosen !=
                    decision.runnable[i % decision.runnable.size()])
                    ++rec.divergentChoices;
            }
            if (!rec.failed)
                return;
            spans.count("explore.failures", 1);

            log.header = replay::headerFromConfig(config);
            log.header.benchmarkId = bench.id;
            log.header.label = strprintf("explore %s seed %llu",
                                         rec.policy.c_str(),
                                         (unsigned long long)rec.seed);
            for (const sim::FailureEvent &failure : run.failures)
                log.header.expectedFailureKinds.push_back(
                    sim::failureKindName(failure.kind));
            log.header.traceChecksum = sim.tracer().store().contentDigest();
            log.header.traceRecords = sim.tracer().store().totalRecords();

            {
                Spans::Scope s(spans, "explore", "crossval");
                explore::CrossValMatch match = explore::crossValidate(
                    monitored.afterLp, monitored.afterTa, monitored_order,
                    explore::siteFirstOccurrence(sim.tracer().store()));
                rec.crossValidated = match.matched;
                rec.matchedPair = match.pairKey;
                rec.matchTier = match.tier;
            }
            {
                Spans::Scope s(spans, "replay", "verify");
                rec.replayVerified = replay::replayLog(log).identical();
            }
            explore::ShrinkOptions so;
            so.maxReplays = options.shrinkBudget;
            explore::ShrinkResult shrunk;
            {
                Spans::Scope s(spans, "explore", "shrink");
                shrunk = explore::shrinkSchedule(bench, log, rec.signature, so);
            }
            spans.count("explore.shrink_replays",
                        static_cast<double>(shrunk.replaysUsed));
            rec.shrunkPrefix = shrunk.divergencePrefix;
            rec.shrinkReplays = shrunk.replaysUsed;
            rec.minimizedSignature = shrunk.signature;
            {
                Spans::Scope s(spans, "replay", "verify");
                rec.minimizedVerified =
                    replay::replayLog(shrunk.minimized).identical();
            }
        });
    }
    result.runs = std::move(records);
    return result;
}

} // namespace

void
runCampaign(const Options &options, Report &report)
{
    std::vector<apps::Benchmark> benches;
    std::vector<explore::PolicySpec> policies;
    const explore::ExploreOptions explore_options =
        campaignOptions(kPinnedSeedBase);

    useCpus(1); // this thread's simulations; see onePerJob for the pool's
    // Set-up: resolve the benchmarks and policies and run each
    // benchmark's FIFO execution once (lazy statics, allocator).
    report.metric("setup_s", timedSetup([&] {
        benches.clear();
        for (const char *id : kBenchmarks)
            benches.push_back(
                onePerJob(apps::benchmark(id), std::this_thread::get_id()));
        policies = explore::parsePolicyList("random,pct:3,delay:2");
        for (const apps::Benchmark &bench : benches) {
            sim::Simulation sim(bench.config);
            bench.build(sim);
            sim.run();
        }
    }), "s");

    std::vector<std::string> texts(kCampaigns);
    std::vector<std::vector<double>> seconds(kCampaigns);
    std::vector<double> pass_sec;
    double started = nowSec();
    // Whole passes until the budget is spent; the seed rotates the
    // order within a pass.
    for (std::size_t pass = 0;
         pass == 0 ||
         (!options.trace && nowSec() - started < options.seconds);
         ++pass) {
        double pass_start = nowSec();
        for (std::size_t k = 0; k < kCampaigns; ++k) {
            std::size_t i = (k + options.seed + pass) % kCampaigns;
            double start = nowSec();
            explore::CampaignResult result =
                explore::explore(benches[i], policies, explore_options);
            seconds[i].push_back(nowSec() - start);
            report.attempt();
            checkCampaign(result, report);
            std::string text = campaignText(result);
            if (pass > 0) {
                report.check(text == texts[i],
                             result.benchmarkId +
                                 ": campaign changed between passes");
                continue;
            }
            texts[i] = text;
            std::string key = "campaign." + result.benchmarkId + ".";
            report.output(key + "failures",
                          std::to_string(result.failures()));
            std::string sigs;
            for (const std::string &sig : result.distinctSignatures())
                sigs += (sigs.empty() ? "" : "|") + sig;
            report.output(key + "signatures", sigs.empty() ? "-" : sigs);
        }
        pass_sec.push_back(nowSec() - pass_start);
    }

    // Held-out check, untimed: on any other seed, one campaign (the
    // seed picks the benchmark) at the seed's own seed base.  Its
    // outputs are not pinned, so only the cross-path checks apply.
    if (options.seed != kDefaultSeed) {
        const apps::Benchmark &bench = benches[options.seed % kCampaigns];
        explore::CampaignResult result =
            explore::explore(bench, policies,
                             campaignOptions(heldOutSeedBase(options.seed)));
        report.attempt();
        checkCampaign(result, report);
        report.output("heldout." + bench.id + ".failures",
                      std::to_string(result.failures()));
    }

    if (!options.trace) {
        // A verdict is one whole campaign: its wall time is how long
        // the user waits for that benchmark's failures and bundles.
        std::vector<double> medians, samples_ms;
        for (const std::vector<double> &list : seconds) {
            medians.push_back(median(list));
            for (double sec : list)
                samples_ms.push_back(sec * 1e3);
        }
        report.metric("verdict_s", geomean(medians), "s");
        report.metric("suite_s", median(pass_sec), "s");
        latencyMetrics(samples_ms, report);
        return;
    }

    Spans spans(true);
    double traced_start = nowSec();
    for (std::size_t i = 0; i < kCampaigns; ++i) {
        report.attempt();
        explore::CampaignResult result = tracedCampaign(
            benches[i], policies, explore_options, spans);
        report.check(campaignText(result) == texts[i],
                     result.benchmarkId + ": traced rebuild differs "
                                          "from explore::explore");
    }
    double traced_sec = nowSec() - traced_start;

    double coverage_min = 1.0;
    std::vector<int> roots = spans.roots();
    for (std::size_t i = 0; i < kCampaigns; ++i) {
        double cov = spans.coverage(roots.at(i));
        report.output(std::string("coverage.") + kBenchmarks[i],
                      strprintf("%.4f", cov));
        coverage_min = std::min(coverage_min, cov);
    }
    report.check(coverage_min >= kMinCoverage,
                 strprintf("layer spans cover only %.3f of a campaign",
                           coverage_min));

    pipelineLayerMetrics(spans, report);
    double runs = spans.countOf("explore.runs");
    double fan_sec = spans.sumSec("common", "parallel_for");
    report.metric("dcatch.glue_ms",
                  spans.selfSumSec("dcatch", "pipeline") * 1e3, "ms");
    report.metric("explore.run_ms",
                  runs > 0 ? spans.sumSec("runtime", "adversarial_run") *
                                 1e3 / runs
                           : 0,
                  "ms");
    report.metric("explore.failure_ratio",
                  runs > 0 ? spans.countOf("explore.failures") / runs : 0,
                  "ratio");
    report.metric("explore.shrink_ms",
                  spans.sumSec("explore", "shrink") * 1e3, "ms");
    report.metric("explore.shrink_replays",
                  spans.countOf("explore.shrink_replays"), "count");
    report.metric("explore.crossval_ms",
                  (spans.sumSec("explore", "crossval") +
                   spans.sumSec("dcatch", "pipeline")) *
                      1e3,
                  "ms");
    report.metric("replay.verify_ms",
                  spans.sumSec("replay", "verify") * 1e3, "ms");
    report.metric("common.pool_busy_ratio",
                  fan_sec > 0 ? spans.sumSec("explore", "task") /
                                    (kJobs * fan_sec)
                              : 0,
                  "ratio");
    report.metric("bench.traced_overhead_ratio",
                  traced_sec / pass_sec.front(), "ratio");
    report.metric("bench.coverage_min", coverage_min, "ratio");
    shareMetrics(spans, report);
}

} // namespace perfbench
