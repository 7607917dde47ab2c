/**
 * @file
 * Shared pieces of the end-to-end benchmark: options, the line
 * protocol the program prints for run.py, and small statistics
 * helpers.  Each workload lives in its own file (batch.cc,
 * campaign.cc, stream.cc) and exposes one entry point.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dcatch/pipeline.hh"
#include "detect/report.hh"

namespace perfbench {

/** Command-line options of one invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** The seed whose campaign outputs expected.json pins. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** Least share of a batch row or campaign the layer spans must
 *  cover in the traced run. */
inline constexpr double kMinCoverage = 0.9;

/** Timed set-ups per invocation: at least kSetupRepeats, and more
 *  until kSetupMinSec is spent; setup_s is their median. */
inline constexpr std::size_t kSetupRepeats = 5;
inline constexpr double kSetupMinSec = 2.0;

/**
 * Collects what one invocation prints.  Lines go to stdout as
 *
 *     metric <name> <value> <unit>
 *     output <key> <value>      (compared with expected.json)
 *     fail <message>            (one failed operation)
 *     attempted <n>
 *
 * and run.py turns them into the final JSON line.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    void output(const std::string &key, const std::string &value);
    void attempt(std::size_t n = 1) { attempted_ += n; }
    void fail(const std::string &why);
    /** fail(@p why) unless @p ok; returns @p ok. */
    bool check(bool ok, const std::string &why);
    void print() const;

  private:
    std::vector<std::string> lines_;
    std::size_t attempted_ = 0;
};

double median(std::vector<double> values);
/** Linear-interpolated quantile, @p q in [0, 1]. */
double quantile(std::vector<double> values, double q);
double geomean(const std::vector<double> &values);

/**
 * Print the report_ms_p50 metric over @p samplesMs, and as outputs
 * the sample count and the tail: the highest percentile, at most
 * p90, with at least ten samples beyond it ("none" when fewer than
 * twenty samples leave no such percentile above the median).
 */
void latencyMetrics(const std::vector<double> &samplesMs, Report &report);
/** Peak resident set size of this process in MB. */
double peakRssMb();
/** 64-bit FNV-1a of @p text as 16 hex digits. */
std::string digest(const std::string &text);

/**
 * Restrict the calling thread, and every thread it creates from now
 * on, to @p count CPUs: the highest-numbered of those the process was
 * allowed when it first called this, after skipping @p skip of them
 * (all that are left when there are fewer; none left changes
 * nothing).  Each simulation runs on one CPU, so the kernel does not
 * spread the simulator's thread hand-offs over idle CPUs; on a shared
 * host that spreading makes wall times drift by 2x between runs.
 */
void useCpus(int count, int skip = 0);

/** Run @p setup once untimed, then timed as kSetupRepeats and
 *  kSetupMinSec ask; the median wall time (s) of the timed runs. */
double timedSetup(const std::function<void()> &setup);

/** Canonical text of a candidate list (serve::canonicalReport
 *  lines), used to compare the outputs of two paths. */
std::string candidatesText(const std::string &label,
                           const std::vector<dcatch::detect::Candidate> &list);

class Spans;

/**
 * dcatch::runPipeline rebuilt from public calls in its own stage
 * order (jobs=1), one span per layer call.  Its outputs must equal
 * runPipeline's; pipelineText() is the comparison key.
 */
dcatch::PipelineResult tracedPipeline(const dcatch::apps::Benchmark &bench,
                                      Spans &spans, bool measureBase,
                                      bool runTrigger);
std::string pipelineText(const dcatch::PipelineResult &result);
/** runtime/trace/hb/detect/prune/trigger metrics of traced
 *  pipelines. */
void pipelineLayerMetrics(const Spans &spans, Report &report);
/** <layer>.share: each layer's self time over the self time of all
 *  spans (pool workers count separately, so shares sum to 1). */
void shareMetrics(const Spans &spans, Report &report);

void runBatch(const Options &options, Report &report);
void runCampaign(const Options &options, Report &report);
void runStream(const Options &options, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
