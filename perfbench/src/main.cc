/**
 * @file
 * perfbench: the end-to-end benchmark program.
 *
 *   perfbench --workload batch|campaign|stream --seed N --seconds S
 *             --trace 0|1
 *
 * With --trace 0 it measures the workload untraced for S seconds and
 * prints the end-to-end metrics; with --trace 1 it runs one untraced
 * pass and one traced rebuild of the same work from public calls,
 * checks that both produce identical outputs, and prints the
 * per-layer metrics.  Output is the line protocol of bench.hh;
 * run.py turns it into the benchmark's JSON result.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.hh"
#include "common/util.hh"
#include "serve/session.hh"
#include "spans.hh"

namespace perfbench {

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    lines_.push_back("metric " + name + " " + buf + " " + unit);
}

void
Report::output(const std::string &key, const std::string &value)
{
    lines_.push_back("output " + key + " " + value);
}

void
Report::fail(const std::string &why)
{
    lines_.push_back("fail " + why);
}

bool
Report::check(bool ok, const std::string &why)
{
    if (!ok)
        fail(why);
    return ok;
}

void
Report::print() const
{
    for (const std::string &line : lines_)
        std::printf("%s\n", line.c_str());
    std::printf("attempted %zu\n", attempted_);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
latencyMetrics(const std::vector<double> &samplesMs, Report &report)
{
    constexpr std::size_t kBeyond = 10;
    const std::size_t n = samplesMs.size();
    report.metric("report_ms_p50", median(samplesMs), "ms");
    report.output("report_ms.samples", std::to_string(n));
    // Highest whole percentile p <= 90 with kBeyond samples above it.
    int pct = n > kBeyond
                  ? static_cast<int>(std::floor(
                        100.0 * static_cast<double>(n - kBeyond) /
                        static_cast<double>(n)))
                  : 0;
    pct = std::min(pct, 90);
    if (pct < 50) {
        report.output("report_ms.tail", "none");
        return;
    }
    double value = quantile(samplesMs, pct / 100.0);
    std::size_t beyond = static_cast<std::size_t>(
        std::count_if(samplesMs.begin(), samplesMs.end(),
                      [value](double ms) { return ms > value; }));
    report.output("report_ms.tail",
                  dcatch::strprintf("p%d %.4f ms (%zu beyond)", pct, value,
                                    beyond));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MB
}

std::string
digest(const std::string &text)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

void
useCpus(int count, int skip)
{
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) != 0)
            CPU_ZERO(&set);
        return set;
    }();
    cpu_set_t set;
    CPU_ZERO(&set);
    int taken = 0;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < count; --cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        if (skip > 0) {
            --skip;
            continue;
        }
        CPU_SET(cpu, &set);
        ++taken;
    }
    if (taken > 0 && sched_setaffinity(0, sizeof set, &set) != 0)
        std::fprintf(stderr, "perfbench: cannot restrict to %d CPUs\n",
                     count);
}

double
timedSetup(const std::function<void()> &setup)
{
    setup(); // warm-up: page faults, allocator growth, lazy statics
    std::vector<double> times;
    double spent = 0;
    while (times.size() < kSetupRepeats || spent < kSetupMinSec) {
        double start = nowSec();
        setup();
        times.push_back(nowSec() - start);
        spent += times.back();
    }
    return median(times);
}

std::string
candidatesText(const std::string &label,
               const std::vector<dcatch::detect::Candidate> &list)
{
    return dcatch::serve::canonicalReport(label, 0, list);
}

void
shareMetrics(const Spans &spans, Report &report)
{
    static const char *const kLayers[] = {
        "runtime", "trace",   "hb",     "detect", "prune", "trigger",
        "dcatch",  "explore", "replay", "serve",  "common"};
    std::map<std::string, double> self = spans.layerSelfSec();
    double total = 0;
    for (const auto &[layer, sec] : self)
        total += sec;
    for (const char *layer : kLayers)
        report.metric(std::string(layer) + ".share",
                      total > 0 ? self[layer] / total : 0, "ratio");
}

} // namespace perfbench

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload batch|campaign|stream "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
}

/** Strict non-negative integer parse. */
bool
parseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 19)
        return false;
    for (char c : text)
        if (c < '0' || c > '9')
            return false;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    std::uint64_t seconds = 0, trace = 0;
    bool have_seconds = false, have_trace = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            have_seed = parseUint(value, options.seed);
        else if (arg == "--seconds")
            have_seconds = parseUint(value, seconds) && seconds >= 1 &&
                           seconds <= 3600;
        else if (arg == "--trace")
            have_trace = parseUint(value, trace) && trace <= 1;
        else
            return usage();
    }
    if (!have_seed || !have_seconds || !have_trace)
        return usage();
    options.seconds = static_cast<double>(seconds);
    options.trace = trace == 1;

    Report report;
    try {
        if (options.workload == "batch")
            runBatch(options, report);
        else if (options.workload == "campaign")
            runCampaign(options, report);
        else if (options.workload == "stream")
            runStream(options, report);
        else
            return usage();
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }
    if (!options.trace)
        report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.print();
    return 0;
}
