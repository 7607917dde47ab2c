/**
 * @file
 * The `batch` workload: dcatch::runPipeline with triggering over all
 * nine registered benchmarks, FIFO monitored runs, one job — the
 * user path behind the paper's Table 4/6.  It also holds the traced
 * rebuild of runPipeline, which the campaign's cross-validation
 * stage reuses.
 */

#include <algorithm>
#include <cinttypes>
#include <memory>
#include <optional>

#include "apps/benchmark.hh"
#include "bench.hh"
#include "common/task_pool.hh"
#include "common/util.hh"
#include "dcatch/pipeline.hh"
#include "detect/race_detect.hh"
#include "hb/graph.hh"
#include "hb/pull.hh"
#include "prune/impact.hh"
#include "runtime/sim.hh"
#include "spans.hh"
#include "trigger/harness.hh"

namespace perfbench {

using namespace dcatch;

dcatch::PipelineResult
tracedPipeline(const apps::Benchmark &bench, Spans &spans,
               bool measureBase, bool runTrigger)
{
    // The stage order of runPipeline at jobs=1 (no overlap pre-pass,
    // serial wave 1), with every call into a layer in its own span.
    PipelineResult result;
    Spans::Scope root(spans, "dcatch", "pipeline");
    std::optional<TaskPool> pool;
    {
        Spans::Scope s(spans, "common", "pool");
        pool.emplace(TaskPool::resolveJobs(1));
    }

    if (measureBase) {
        sim::Simulation base(bench.config);
        trace::TracerConfig off;
        off.traceMemory = false;
        off.traceOps = false;
        off.traceLocks = false;
        base.setTracerConfig(off);
        bench.build(base);
        sim::RunResult run;
        {
            Spans::Scope s(spans, "runtime", "base_run");
            run = base.run();
        }
        spans.count("runtime.runs", 1);
        spans.count("runtime.steps", static_cast<double>(run.steps));
    }

    {
        sim::Simulation traced(bench.config);
        trace::TracerConfig tc;
        tc.selectiveMemory = true;
        traced.setTracerConfig(tc);
        bench.build(traced);
        {
            Spans::Scope s(spans, "runtime", "traced_run");
            result.monitoredRun = traced.run();
        }
        spans.count("runtime.runs", 1);
        spans.count("runtime.steps",
                    static_cast<double>(result.monitoredRun.steps));
        Spans::Scope s(spans, "trace", "store");
        result.monitoredTrace = traced.tracer().store();
    }
    spans.count("trace.records",
                static_cast<double>(result.monitoredTrace.totalRecords()));
    spans.count("trace.bytes",
                static_cast<double>(result.monitoredTrace.serializedBytes()));
    model::ProgramModel model = bench.buildModel();

    hb::HbGraph::Options graph_options;
    graph_options.pool = &*pool;
    std::unique_ptr<hb::HbGraph> graph;
    {
        Spans::Scope s(spans, "hb", "build");
        graph = std::make_unique<hb::HbGraph>(result.monitoredTrace,
                                              graph_options);
    }
    spans.count("hb.vertices", static_cast<double>(graph->size()));
    if (graph->oom()) {
        result.analysisOom = true;
        return result;
    }

    detect::RaceDetector detector;
    {
        Spans::Scope s(spans, "detect", "detect");
        result.afterTa = detector.detect(*graph, &*pool);
    }
    prune::StaticPruner pruner(model, prune::FailureSpec());
    {
        Spans::Scope s(spans, "prune", "prune");
        result.afterSp = pruner.prune(result.afterTa);
    }
    hb::PullResult pull;
    {
        Spans::Scope s(spans, "hb", "pull");
        hb::PullAnalyzer analyzer(model, bench.build, bench.config);
        pull = analyzer.analyze(*graph, result.afterSp);
    }
    if (!pull.edges.empty()) {
        Spans::Scope s(spans, "hb", "add_edges");
        graph->addEdges(pull.edges);
    }
    std::vector<detect::Candidate> redetected;
    {
        Spans::Scope s(spans, "detect", "detect");
        redetected = detector.detect(*graph, &*pool);
    }
    {
        Spans::Scope s(spans, "prune", "prune");
        redetected = pruner.prune(redetected);
    }
    {
        Spans::Scope s(spans, "hb", "pull_apply");
        result.afterLp = hb::applyPullResult(*graph, redetected, pull);
    }
    spans.count("detect.candidates_ta",
                static_cast<double>(result.afterTa.size()));
    spans.count("prune.after_sp", static_cast<double>(result.afterSp.size()));
    spans.count("hb.after_lp", static_cast<double>(result.afterLp.size()));

    if (runTrigger) {
        Spans::Scope s(spans, "trigger", "testall");
        trigger::TriggerHarness harness(bench.build, bench.config);
        result.triggered = harness.testAll(result.afterLp,
                                           result.monitoredTrace, &*pool);
    }
    for (const trigger::TriggerReport &report : result.triggered) {
        spans.count("trigger.order_runs",
                    static_cast<double>(report.runs.size()));
        spans.count("trigger.reports", 1);
        spans.count("trigger.harmful",
                    report.cls == trigger::TriggerClass::Harmful);
    }
    return result;
}

std::string
pipelineText(const dcatch::PipelineResult &result)
{
    std::string text = strprintf(
        "status=%s steps=%" PRIu64 " trace=%016" PRIx64
        " records=%zu bytes=%zu oom=%d\n",
        sim::runStatusName(result.monitoredRun.status),
        result.monitoredRun.steps, result.monitoredTrace.contentDigest(),
        result.monitoredTrace.totalRecords(),
        result.monitoredTrace.serializedBytes(), result.analysisOom);
    text += candidatesText("ta", result.afterTa);
    text += candidatesText("sp", result.afterSp);
    text += candidatesText("lp", result.afterLp);
    for (const trigger::TriggerReport &report : result.triggered) {
        text += strprintf("trigger %s %s %s\n",
                          report.candidate.callstackKey().c_str(),
                          trigger::triggerClassName(report.cls),
                          report.failingOrder.c_str());
        for (const trigger::OrderRun &run : report.runs)
            text += strprintf("  %s enforced=%d exercised=%d %s "
                              "steps=%" PRIu64 "\n",
                              run.order.c_str(), run.enforced,
                              run.exercised,
                              sim::runStatusName(run.result.status),
                              run.result.steps);
    }
    return text;
}

void
pipelineLayerMetrics(const Spans &spans, Report &report)
{
    double run_sec = spans.sumSec("runtime", "base_run") +
                     spans.sumSec("runtime", "traced_run") +
                     spans.sumSec("runtime", "adversarial_run");
    double steps = spans.countOf("runtime.steps");
    double ta = spans.countOf("detect.candidates_ta");
    double sp = spans.countOf("prune.after_sp");
    double lp = spans.countOf("hb.after_lp");
    double order_runs = spans.countOf("trigger.order_runs");
    double testall_ms = spans.sumSec("trigger", "testall") * 1e3;
    double reports = spans.countOf("trigger.reports");
    double base_sec = spans.sumSec("runtime", "base_run");

    report.metric("runtime.runs", spans.countOf("runtime.runs"), "count");
    report.metric("runtime.steps", steps, "count");
    report.metric("runtime.us_per_step",
                  steps > 0 ? run_sec * 1e6 / steps : 0, "us");
    report.metric("runtime.base_ms", base_sec * 1e3, "ms");
    report.metric("trace.records", spans.countOf("trace.records"),
                  "count");
    report.metric("trace.bytes", spans.countOf("trace.bytes"), "count");
    report.metric("trace.overhead_ratio",
                  base_sec > 0
                      ? spans.sumSec("runtime", "traced_run") / base_sec
                      : 0,
                  "ratio");
    report.metric("hb.build_ms", spans.sumSec("hb", "build") * 1e3, "ms");
    report.metric("hb.vertices", spans.countOf("hb.vertices"), "count");
    report.metric("hb.pull_ms", spans.sumSec("hb", "pull") * 1e3, "ms");
    report.metric("hb.pull_kept_ratio", sp > 0 ? lp / sp : 0, "ratio");
    report.metric("detect.detect_ms",
                  spans.sumSec("detect", "detect") * 1e3, "ms");
    report.metric("detect.candidates_ta", ta, "count");
    report.metric("prune.prune_ms", spans.sumSec("prune", "prune") * 1e3,
                  "ms");
    report.metric("prune.kept_ratio", ta > 0 ? sp / ta : 0, "ratio");
    report.metric("trigger.testall_ms", testall_ms, "ms");
    report.metric("trigger.order_runs", order_runs, "count");
    report.metric("trigger.ms_per_order_run",
                  order_runs > 0 ? testall_ms / order_runs : 0, "ms");
    report.metric("trigger.harmful_ratio",
                  reports > 0 ? spans.countOf("trigger.harmful") / reports
                              : 0,
                  "ratio");
}

namespace {

struct Row
{
    std::string text; ///< full pipeline output (determinism check)
    std::vector<double> seconds;
};

/** Oracle outputs of one benchmark (compared with expected.json). */
void
printRow(const apps::Benchmark &bench, const PipelineResult &result,
         Report &report)
{
    Classification cls = classify(bench, result);
    std::string key = "batch." + bench.id + ".";
    report.output(key + "final", std::to_string(result.afterLp.size()));
    report.output(key + "bug_s", std::to_string(cls.bugStatic));
    report.output(key + "benign_s", std::to_string(cls.benignStatic));
    report.output(key + "serial_s", std::to_string(cls.serialStatic));
    report.output(key + "bug_c", std::to_string(cls.bugCallstack));
    report.output(key + "benign_c", std::to_string(cls.benignCallstack));
    report.output(key + "serial_c", std::to_string(cls.serialCallstack));
    report.output(key + "known", cls.knownBugDetected ? "1" : "0");
}

PipelineOptions
userOptions()
{
    PipelineOptions options;
    options.runTrigger = true;
    options.jobs = 1;
    return options;
}

} // namespace

void
runBatch(const Options &options, Report &report)
{
    const std::vector<apps::Benchmark> &benches = apps::allBenchmarks();
    const std::size_t n = benches.size();
    useCpus(1); // jobs=1: one simulation, one thread running at a time

    // Set-up: load every program model and run each benchmark's
    // monitored execution once, so thread creation, allocator growth
    // and lazy statics are paid before timing.
    report.metric("setup_s", timedSetup([&] {
        for (const apps::Benchmark &bench : benches) {
            model::ProgramModel model = bench.buildModel();
            sim::Simulation sim(bench.config);
            bench.build(sim);
            sim.run();
        }
    }), "s");

    std::vector<Row> rows(n);
    std::vector<double> pass_sec;
    double started = nowSec();
    // Whole passes (so every benchmark has as many samples) until the
    // budget is spent; the seed rotates the order within a pass.
    for (std::size_t pass = 0;
         pass == 0 ||
         (!options.trace && nowSec() - started < options.seconds);
         ++pass) {
        double pass_start = nowSec();
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t i = (k + options.seed + pass) % n;
            const apps::Benchmark &bench = benches[i];
            double start = nowSec();
            PipelineResult result = runPipeline(bench, userOptions());
            rows[i].seconds.push_back(nowSec() - start);
            report.attempt();
            std::string text = pipelineText(result);
            if (pass == 0) {
                rows[i].text = text;
                printRow(bench, result, report);
            } else {
                report.check(text == rows[i].text,
                             bench.id + ": pipeline output changed "
                                        "between passes");
            }
        }
        pass_sec.push_back(nowSec() - pass_start);
    }

    if (!options.trace) {
        // A verdict is one runPipeline call: its wall time is how long
        // the user waits for that benchmark's Table 4 row.
        std::vector<double> medians, samples_ms;
        for (const Row &row : rows) {
            medians.push_back(median(row.seconds));
            for (double sec : row.seconds)
                samples_ms.push_back(sec * 1e3);
        }
        report.metric("verdict_s", geomean(medians), "s");
        report.metric("suite_s", median(pass_sec), "s");
        latencyMetrics(samples_ms, report);
        return;
    }

    // Traced rebuild of the same pass, from public calls.
    Spans spans(true);
    double traced_start = nowSec();
    double coverage_min = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
        const apps::Benchmark &bench = benches[i];
        report.attempt();
        PipelineResult result =
            tracedPipeline(bench, spans, true, true);
        report.check(pipelineText(result) == rows[i].text,
                     bench.id + ": traced rebuild differs from "
                                "runPipeline");
    }
    double traced_sec = nowSec() - traced_start;
    // Every root span is one benchmark's rebuilt pipeline.
    std::vector<int> roots = spans.roots();
    for (std::size_t i = 0; i < n; ++i) {
        double cov = spans.coverage(roots.at(i));
        report.output("coverage." + benches[i].id, strprintf("%.4f", cov));
        coverage_min = std::min(coverage_min, cov);
    }
    report.check(coverage_min >= kMinCoverage,
                 strprintf("layer spans cover only %.3f of a batch row",
                           coverage_min));

    pipelineLayerMetrics(spans, report);
    report.metric("dcatch.glue_ms",
                  spans.selfSumSec("dcatch", "pipeline") * 1e3, "ms");
    report.metric("bench.traced_overhead_ratio",
                  traced_sec / pass_sec.front(), "ratio");
    report.metric("bench.coverage_min", coverage_min, "ratio");
    shareMetrics(spans, report);
}

} // namespace perfbench
