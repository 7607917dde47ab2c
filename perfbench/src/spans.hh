/**
 * @file
 * Layer-boundary spans for the traced run.
 *
 * The benchmark wraps each call it makes into a module's public API
 * in a Scope naming the module (the "layer") and the operation.
 * Spans stay in memory and are analysed after the run: a span's self
 * time is its duration minus the union of its children's intervals,
 * so a layer's busy time is the sum of its spans' self times, and a
 * root span's coverage is the share of its tree's time that leaf
 * spans (single layer calls) account for.  Nothing inside the
 * library is instrumented.
 *
 * A disabled recorder makes Scope a no-op (no clock reads), which is
 * how the untraced measurement runs.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds on the monotonic clock (for untraced wall times). */
inline double
nowSec()
{
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

class Spans
{
  public:
    struct Span
    {
        const char *layer = "";
        const char *op = "";
        int parent = -1;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    /** Parent argument meaning "the innermost open scope of this
     *  thread". */
    static constexpr int kInherit = -2;

    explicit Spans(bool enabled) : enabled_(enabled) {}

    Spans(const Spans &) = delete;
    Spans &operator=(const Spans &) = delete;

    bool enabled() const { return enabled_; }

    /** RAII span; records nothing when the recorder is disabled. */
    class Scope
    {
      public:
        Scope(Spans &spans, const char *layer, const char *op,
              int parent = kInherit);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Span index (-1 when disabled); pass it as the explicit
         *  parent of spans opened on other threads. */
        int id() const { return id_; }

      private:
        Spans &spans_;
        int id_ = -1;
        int saved_ = -1;
    };

    /** Add @p value to the named count (no-op when disabled). */
    void count(const std::string &name, double value);

    /// @{ @name Analysis (call after every Scope has closed)
    double countOf(const std::string &name) const;
    /** Total duration (s) of every span with this layer and op. */
    double sumSec(const char *layer, const char *op) const;
    /** Number of spans with this layer and op. */
    std::size_t calls(const char *layer, const char *op) const;
    /** Duration (s) of one span. */
    double durSec(int id) const;
    /** Self time (s) summed over every span with this layer and op. */
    double selfSumSec(const char *layer, const char *op) const;
    /** Ids of the spans without a parent, in opening order. */
    std::vector<int> roots() const;
    /** Share of the time in the tree under span @p id that leaf spans
     *  (single layer calls) account for.  The self time of every span
     *  with children -- the root, a rebuilt pipeline, a fan-out, a
     *  pool task -- is glue and counts as uncovered.  Times are summed
     *  per span, so spans that ran in parallel count in full. */
    double coverage(int id) const;
    /** Self time per layer, summed over all spans (s). */
    std::map<std::string, double> layerSelfSec() const;
    /// @}

  private:
    std::int64_t nowNs() const;
    std::vector<std::vector<int>> children() const;

    bool enabled_;
    mutable std::mutex mutex_; ///< guards spans_ and counts_
    std::vector<Span> spans_;
    std::map<std::string, double> counts_;
    Clock::time_point origin_ = Clock::now();
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
