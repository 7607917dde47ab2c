/**
 * @file
 * The `stream` workload: a closed loop against an in-process
 * serve::ServeCore with two shards.  One generator thread drives two
 * clients; each client streams one run at a time, split across two
 * producer connections, and waits for that run's Report before
 * sending the next.  The clients cycle through the nine monitored
 * traces plus two scaled ones (MR-3274 at 128 jobs, HB-4539 at 32
 * regions), all generated during set-up, so trace parsing,
 * incremental HB, detection and serve do all the work and no
 * simulation runs while measuring.
 */

#include <cinttypes>
#include <stdexcept>
#include <memory>
#include <random>
#include <thread>

#include "apps/benchmark.hh"
#include "apps/hbase/mini_hbase.hh"
#include "apps/mapreduce/mini_mr.hh"
#include "bench.hh"
#include "common/util.hh"
#include "detect/race_detect.hh"
#include "hb/graph.hh"
#include "runtime/sim.hh"
#include "serve/service.hh"
#include "serve/session.hh"
#include "serve/wire.hh"
#include "spans.hh"
#include "trace/record.hh"
#include "trace/trace_store.hh"

namespace perfbench {

using namespace dcatch;
using namespace dcatch::serve;

namespace {

constexpr int kClients = 2;
constexpr int kProducers = 2;
// Records per Records frame: the default of the repository's client,
// `dcatch_feed --batch`, which is also the daemon's ingest batch.
constexpr std::size_t kLinesPerFrame = 256;
constexpr std::chrono::seconds kReportTimeout{60};

/** One trace the clients stream, with its batch answer. */
struct Input
{
    std::string name;
    trace::TraceStore store;
    std::vector<trace::Record> merged;
    std::vector<std::string> lines; ///< Record::appendLine, no '\n'
    std::string body; ///< canonical report without its header line
    std::size_t candidates = 0;
};

/** One frame of a run, in delivery order. */
struct Step
{
    int producer = 0;
    Frame frame;
    std::string bytes; ///< encodeFrame(frame); empty for Hello
};

/** A client's delivery plan for one trace (run id filled per run). */
using Plan = std::vector<Step>;

std::string
reportHeader(const std::string &run_id, const Input &input)
{
    return strprintf("dcatch-report run=%s records=%zu candidates=%zu\n",
                     run_id.c_str(), input.merged.size(),
                     input.candidates);
}

Input
makeInput(std::string name, const std::function<void(sim::Simulation &)>
                                &build, const sim::SimConfig &config)
{
    Input input;
    input.name = std::move(name);
    sim::Simulation sim(config);
    build(sim);
    sim.run();
    input.store = sim.tracer().store();
    input.merged = input.store.mergedRecords();
    for (const trace::Record &rec : input.merged) {
        std::string line;
        rec.appendLine(input.store.symbols(), line);
        input.lines.push_back(std::move(line));
    }
    hb::HbGraph graph(input.store, hb::HbGraph::Options());
    if (graph.oom())
        throw std::runtime_error(input.name + ": batch analysis OOM");
    std::vector<detect::Candidate> candidates =
        detect::RaceDetector().detect(graph);
    input.candidates = candidates.size();
    std::string full = canonicalReport(input.name, input.merged.size(),
                                       candidates);
    input.body = full.substr(reportHeader(input.name, input).size());
    return input;
}

std::vector<Input>
makeInputs()
{
    std::vector<Input> inputs;
    for (const apps::Benchmark &bench : apps::allBenchmarks())
        inputs.push_back(makeInput(bench.id, bench.build, bench.config));
    sim::SimConfig scaled;
    scaled.maxSteps = 100'000'000;
    inputs.push_back(makeInput(
        "MR-3274x128",
        [](sim::Simulation &sim) {
            apps::mr::install(sim, apps::mr::Workload::Hang3274, 128);
        },
        scaled));
    inputs.push_back(makeInput(
        "HB-4539x32",
        [](sim::Simulation &sim) {
            apps::hb::install(sim, apps::hb::Workload::SplitAlter4539, 32);
        },
        scaled));
    return inputs;
}

/**
 * The seeded delivery plan of one run: each record goes to a random
 * producer (keeping sequence order within a producer), records are
 * framed kLinesPerFrame at a time, and the two producers' frames
 * interleave in a random order; a producer's End follows its last
 * Records frame.  Producer 0 carries the queue/thread metadata.
 */
Plan
makePlan(const Input &input, std::uint64_t seed, int client,
         std::size_t index)
{
    std::seed_seq seq{seed, static_cast<std::uint64_t>(client),
                      static_cast<std::uint64_t>(index)};
    std::mt19937_64 rng(seq);
    auto add = [](Plan &plan, int producer, FrameType type,
                  std::string payload) {
        Step step;
        step.producer = producer;
        step.frame = Frame{type, std::move(payload)};
        step.bytes = encodeFrame(type, step.frame.payload);
        plan.push_back(std::move(step));
    };

    Plan plan;
    for (int p = 0; p < kProducers; ++p)
        plan.push_back(Step{p, Frame{FrameType::Hello, ""}, ""});
    for (const auto &[id, queue] : input.store.queues())
        add(plan, 0, FrameType::QueueMeta,
            strprintf("%d %d %s", queue.node, queue.singleConsumer ? 1 : 0,
                      id.c_str()));
    for (const auto &[tid, thread] : input.store.threads())
        add(plan, 0, FrameType::ThreadMeta,
            strprintf("%d %d %d %s", thread.thread, thread.node,
                      thread.handlerThread ? 1 : 0, thread.name.c_str()));

    std::vector<Plan> frames(kProducers);
    std::vector<std::string> pending(kProducers);
    std::vector<std::size_t> count(kProducers, 0);
    for (const std::string &line : input.lines) {
        std::size_t p = rng() % kProducers;
        pending[p] += line;
        pending[p] += '\n';
        if (++count[p] == kLinesPerFrame) {
            add(frames[p], static_cast<int>(p), FrameType::Records,
                std::move(pending[p]));
            pending[p].clear();
            count[p] = 0;
        }
    }
    for (std::size_t p = 0; p < kProducers; ++p) {
        if (!pending[p].empty())
            add(frames[p], static_cast<int>(p), FrameType::Records,
                std::move(pending[p]));
        add(frames[p], static_cast<int>(p), FrameType::End, "");
    }
    std::vector<std::size_t> next(kProducers, 0);
    for (;;) {
        std::vector<std::size_t> open;
        for (std::size_t p = 0; p < kProducers; ++p)
            if (next[p] < frames[p].size())
                open.push_back(p);
        if (open.empty())
            break;
        std::size_t p = open[rng() % open.size()];
        plan.push_back(std::move(frames[p][next[p]++]));
    }
    return plan;
}

/** Everything the generator measured over its cycles. */
struct LoopStats
{
    std::vector<std::vector<double>> verdictSec; ///< per input
    std::vector<double> reportMs;                ///< End -> Report
    std::vector<double> cycleSec;
    std::size_t records = 0;
};

/** A client of the closed loop. */
struct Client
{
    int id = 0;
    std::size_t done = 0;      ///< runs finished this cycle
    std::size_t step = 0;      ///< next step of the current plan
    bool waiting = false;      ///< all frames sent, awaiting Report
    ConnId conns[kProducers] = {};
    std::string runId;
    Clock::time_point first, ended;
};

/**
 * One cycle: both clients stream every input once, each starting at
 * its own offset.  With @p spans enabled, deliver() calls are
 * recorded as serve spans under @p parent, and the time each client
 * waited for its Report is summed into the serve.wait_sec count
 * (the two clients' waits overlap, so they are not spans).
 */
void
runCycle(ServeCore &core, const std::vector<Input> &inputs,
         const std::vector<std::vector<Plan>> &plans, std::uint64_t &serial,
         LoopStats &stats, Report &report, Spans &spans, int parent)
{
    const std::size_t n = inputs.size();
    Client clients[kClients];
    for (int c = 0; c < kClients; ++c)
        clients[c].id = c;
    auto input_of = [&](const Client &client) {
        return (client.done + static_cast<std::size_t>(client.id) * n /
                                  kClients) %
               n;
    };

    Clock::time_point cycle_start = Clock::now();
    std::size_t finished = 0;
    while (finished < static_cast<std::size_t>(kClients)) {
        bool all_waiting = true;
        for (Client &client : clients) {
            if (client.done == n)
                continue;
            std::size_t in = input_of(client);
            const Input &input = inputs[in];
            const Plan &plan = plans[static_cast<std::size_t>(client.id)][in];
            if (!client.waiting) {
                all_waiting = false;
                if (client.step == 0) {
                    for (ConnId &conn : client.conns)
                        conn = core.connect();
                    client.runId = strprintf("%s#%" PRIu64,
                                             input.name.c_str(), serial++);
                    client.first = Clock::now();
                }
                const Step &step = plan[client.step++];
                std::string hello;
                const std::string *bytes = &step.bytes;
                if (step.frame.type == FrameType::Hello) {
                    hello = encodeFrame(
                        FrameType::Hello,
                        encodeHello({client.runId, kProducers}));
                    bytes = &hello;
                }
                bool ok;
                {
                    Spans::Scope s(spans, "serve", "deliver", parent);
                    ok = core.deliver(
                        client.conns[step.producer], bytes->data(),
                        bytes->size());
                }
                report.check(ok, client.runId + ": deliver refused");
                if (client.step == plan.size()) {
                    client.ended = Clock::now();
                    client.waiting = true;
                }
                continue;
            }
            std::string got;
            bool have = false;
            for (ConnId conn : client.conns)
                for (Frame &frame : core.poll(conn)) {
                    if (frame.type == FrameType::Error)
                        report.fail(client.runId + ": " + frame.payload);
                    if (frame.type == FrameType::Report && !have) {
                        got = std::move(frame.payload);
                        have = true;
                    }
                }
            if (!have) {
                if (Clock::now() - client.ended > kReportTimeout)
                    throw std::runtime_error(client.runId +
                                             ": no Report within 60 s");
                continue;
            }
            Clock::time_point now = Clock::now();
            spans.count("serve.wait_sec",
                        std::chrono::duration<double>(now - client.ended)
                            .count());
            std::string header = reportHeader(client.runId, input);
            bool match =
                got.size() == header.size() + input.body.size() &&
                got.compare(0, header.size(), header) == 0 &&
                got.compare(header.size(), std::string::npos,
                            input.body) == 0;
            report.attempt();
            report.check(match, client.runId +
                                    ": Report differs from the batch "
                                    "canonical report");
            stats.verdictSec[in].push_back(
                std::chrono::duration<double>(now - client.first).count());
            stats.reportMs.push_back(
                std::chrono::duration<double, std::milli>(now -
                                                          client.ended)
                    .count());
            stats.records += input.merged.size();
            for (ConnId conn : client.conns)
                core.disconnect(conn);
            client.waiting = false;
            client.step = 0;
            if (++client.done == n)
                ++finished;
        }
        if (all_waiting)
            std::this_thread::yield();
    }
    stats.cycleSec.push_back(
        std::chrono::duration<double>(Clock::now() - cycle_start).count());
}

/**
 * Single-threaded Session::handle over every input's plan (client
 * 0's), plus the layer calls the session makes per record rebuilt
 * from public APIs: Record::scanLine, streaming HbGraph append and
 * finishStream, and RaceDetector::detect.  Every path's report must
 * equal the batch one.
 */
void
probeLayers(const std::vector<Input> &inputs, const std::vector<Plan> &plans,
            Report &report, Spans &spans)
{
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const Input &input = inputs[i];
        const std::string run_id = input.name;
        const std::string expected = reportHeader(run_id, input) + input.body;

        Session session(run_id, SessionOptions());
        std::string got;
        Session::Emit emit = [&](ConnId, FrameType type,
                                 const std::string &payload) {
            if (type == FrameType::Report && got.empty())
                got = payload;
            if (type == FrameType::Error)
                report.fail(run_id + ": session error: " + payload);
        };
        const Plan &plan = plans[i];
        for (std::size_t k = 0; k < plan.size(); ++k) {
            const Step &step = plan[k];
            Frame frame = step.frame;
            if (frame.type == FrameType::Hello)
                frame.payload = encodeHello({run_id, kProducers});
            ConnId conn = static_cast<ConnId>(step.producer + 1);
            const char *op = frame.type == FrameType::Records
                                 ? "session_records"
                             : k + 1 == plan.size() ? "finalize"
                                                    : "session_other";
            Spans::Scope s(spans, "serve", op);
            session.handle(conn, frame, emit);
        }
        report.attempt();
        report.check(got == expected,
                     run_id + ": Session::handle report differs from batch");
        report.check(!session.stats().quarantined,
                     run_id + ": session quarantined");

        {
            Spans::Scope s(spans, "trace", "scan");
            for (const std::string &line : input.lines) {
                trace::Record rec;
                std::string_view site, id, callstack;
                if (!trace::Record::scanLine(line, rec, site, id,
                                             callstack))
                    report.fail(run_id + ": scanLine rejected " + line);
            }
        }

        std::unique_ptr<hb::HbGraph> graph =
            hb::HbGraph::streaming(input.store, hb::HbGraph::Options());
        {
            Spans::Scope s(spans, "hb", "append");
            for (const trace::Record &rec : input.merged)
                graph->append(rec);
            graph->finishStream();
        }
        spans.count("hb.vertices", static_cast<double>(graph->size()));
        std::vector<detect::Candidate> candidates;
        {
            Spans::Scope s(spans, "detect", "detect");
            candidates = detect::RaceDetector().detect(*graph);
        }
        spans.count("detect.candidates_ta",
                    static_cast<double>(candidates.size()));
        report.attempt();
        report.check(canonicalReport(run_id, input.merged.size(),
                                     candidates) == expected,
                     run_id + ": streaming HB + detect differs from batch");
    }
}

ServeOptions
serveOptions()
{
    ServeOptions options;
    options.jobs = 2;
    return options;
}

} // namespace

void
runStream(const Options &options, Report &report)
{
    std::vector<Input> inputs;
    std::vector<std::vector<Plan>> plans;
    useCpus(1); // set-up simulates one trace at a time
    report.metric("setup_s", timedSetup([&] {
        inputs = makeInputs();
        plans.assign(kClients, {});
        for (int c = 0; c < kClients; ++c)
            for (std::size_t i = 0; i < inputs.size(); ++i)
                plans[static_cast<std::size_t>(c)].push_back(
                    makePlan(inputs[i], options.seed, c, i));
    }), "s");

    const std::size_t n = inputs.size();
    std::size_t bytes_per_cycle = 0, records_per_cycle = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Input &input = inputs[i];
        report.output("stream." + input.name + ".digest",
                      digest(reportHeader(input.name, input) + input.body));
        for (const std::vector<Plan> &client : plans)
            for (const Step &step : client[i])
                bytes_per_cycle += step.bytes.size();
        records_per_cycle += kClients * input.merged.size();
    }

    // The generator (this thread) and one worker per shard.
    useCpus(serveOptions().jobs + 1);
    Spans off(false);
    LoopStats stats;
    stats.verdictSec.resize(n);
    std::uint64_t serial = 0;
    ServeStats serve_stats;
    {
        ServeCore core(serveOptions());
        double started = nowSec();
        do {
            runCycle(core, inputs, plans, serial, stats, report, off, -1);
        } while (!options.trace && nowSec() - started < options.seconds);
        core.drain();
        serve_stats = core.stats();
    }
    report.check(serve_stats.sessionsQuarantined == 0,
                 "serve quarantined a session");

    if (!options.trace) {
        std::vector<double> medians;
        for (const std::vector<double> &list : stats.verdictSec)
            medians.push_back(median(list));
        double total = 0;
        for (double sec : stats.cycleSec)
            total += sec;
        // A verdict is one run's Report, timed from its first frame.
        report.metric("verdict_s", geomean(medians), "s");
        report.metric("suite_s", median(stats.cycleSec), "s");
        latencyMetrics(stats.reportMs, report);
        report.output("ingest_rec_per_s",
                      strprintf("%.1f", static_cast<double>(stats.records) /
                                            total));
        return;
    }

    // Traced: the same cycle on a fresh daemon with serve spans, then
    // the single-threaded layer probes in their own recorder, so the
    // layer shares describe the probes and not the generator's waits.
    Spans spans(true), probes(true);
    LoopStats traced;
    traced.verdictSec.resize(n);
    double traced_sec = 0;
    {
        ServeCore core(serveOptions());
        {
            Spans::Scope cycle(spans, "bench", "cycle");
            runCycle(core, inputs, plans, serial, traced, report, spans,
                     cycle.id());
        }
        traced_sec = spans.durSec(spans.roots().front());
        core.drain();
        serve_stats = core.stats();
    }
    probeLayers(inputs, plans.front(), report, probes);

    double records = 0;
    for (const Input &input : inputs)
        records += static_cast<double>(input.merged.size());
    double runs = static_cast<double>(kClients * n);
    double frames = static_cast<double>(spans.calls("serve", "deliver"));
    report.check(serve_stats.sessionsQuarantined == 0,
                 "serve quarantined a session");
    report.metric("trace.records", static_cast<double>(records_per_cycle),
                  "count");
    report.metric("trace.bytes", static_cast<double>(bytes_per_cycle),
                  "count");
    report.metric("trace.scan_ns_per_rec",
                  probes.sumSec("trace", "scan") * 1e9 / records, "ns");
    report.metric("hb.append_us_per_rec",
                  probes.sumSec("hb", "append") * 1e6 / records, "us");
    report.metric("hb.vertices", probes.countOf("hb.vertices"), "count");
    report.metric("detect.detect_ms",
                  probes.sumSec("detect", "detect") * 1e3, "ms");
    report.metric("detect.candidates_ta",
                  probes.countOf("detect.candidates_ta"), "count");
    report.metric("serve.deliver_us_per_frame",
                  spans.sumSec("serve", "deliver") * 1e6 / frames, "us");
    report.metric("serve.wait_ms",
                  spans.countOf("serve.wait_sec") * 1e3 / runs, "ms");
    report.metric("serve.session_us_per_rec",
                  probes.sumSec("serve", "session_records") * 1e6 / records,
                  "us");
    report.metric("serve.finalize_ms",
                  probes.sumSec("serve", "finalize") * 1e3 /
                      static_cast<double>(n),
                  "ms");
    report.metric("serve.epochs",
                  static_cast<double>(serve_stats.epochsClosed), "count");
    report.metric("serve.evicted",
                  static_cast<double>(serve_stats.evictedAccesses), "count");
    report.metric("serve.max_index_kib",
                  static_cast<double>(serve_stats.maxOnlineIndexBytes) /
                      1024.0,
                  "KiB");
    report.metric("serve.max_pending_kib",
                  static_cast<double>(serve_stats.maxPendingBytes) / 1024.0,
                  "KiB");
    report.metric("serve.quarantined",
                  static_cast<double>(serve_stats.sessionsQuarantined),
                  "count");
    report.check(traced.reportMs.size() == kClients * n,
                 "traced cycle lost a Report");
    report.metric("bench.traced_overhead_ratio",
                  traced_sec / stats.cycleSec.front(), "ratio");
    shareMetrics(probes, report);
}

} // namespace perfbench
