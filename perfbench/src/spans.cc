#include "spans.hh"

#include <algorithm>
#include <cstring>
#include <utility>

namespace perfbench {

namespace {

/** Innermost open span of this thread (index into one recorder). */
thread_local int tlCurrent = -1;

bool
same(const char *a, const char *b)
{
    return std::strcmp(a, b) == 0;
}

} // namespace

std::int64_t
Spans::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

Spans::Scope::Scope(Spans &spans, const char *layer, const char *op,
                    int parent)
    : spans_(spans)
{
    if (!spans_.enabled_)
        return;
    Span span;
    span.layer = layer;
    span.op = op;
    span.parent = parent == kInherit ? tlCurrent : parent;
    {
        std::lock_guard<std::mutex> lock(spans_.mutex_);
        id_ = static_cast<int>(spans_.spans_.size());
        spans_.spans_.push_back(span);
    }
    saved_ = tlCurrent;
    tlCurrent = id_;
    // Start last, so the bookkeeping above is not inside the span.
    std::int64_t start = spans_.nowNs();
    std::lock_guard<std::mutex> lock(spans_.mutex_);
    spans_.spans_[static_cast<std::size_t>(id_)].startNs = start;
}

Spans::Scope::~Scope()
{
    if (id_ < 0)
        return;
    std::int64_t end = spans_.nowNs();
    tlCurrent = saved_;
    std::lock_guard<std::mutex> lock(spans_.mutex_);
    spans_.spans_[static_cast<std::size_t>(id_)].endNs = end;
}

void
Spans::count(const std::string &name, double value)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    counts_[name] += value;
}

double
Spans::countOf(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
}

double
Spans::sumSec(const char *layer, const char *op) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::int64_t total = 0;
    for (const Span &span : spans_)
        if (same(span.layer, layer) && same(span.op, op))
            total += span.endNs - span.startNs;
    return static_cast<double>(total) * 1e-9;
}

std::size_t
Spans::calls(const char *layer, const char *op) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const Span &span : spans_)
        n += same(span.layer, layer) && same(span.op, op);
    return n;
}

double
Spans::durSec(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Span &span = spans_.at(static_cast<std::size_t>(id));
    return static_cast<double>(span.endNs - span.startNs) * 1e-9;
}

std::vector<std::vector<int>>
Spans::children() const
{
    std::vector<std::vector<int>> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            out[static_cast<std::size_t>(spans_[i].parent)].push_back(
                static_cast<int>(i));
    return out;
}

namespace {

/** Self time of span @p id in ns: its duration minus the union of
 *  its children's intervals (children may overlap when they ran on
 *  pool workers). */
std::int64_t
selfNs(const std::vector<Spans::Span> &spans,
       const std::vector<std::vector<int>> &kids, int id)
{
    const Spans::Span &span = spans[static_cast<std::size_t>(id)];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (int child : kids[static_cast<std::size_t>(id)]) {
        const Spans::Span &c = spans[static_cast<std::size_t>(child)];
        std::int64_t lo = std::max(c.startNs, span.startNs);
        std::int64_t hi = std::min(c.endNs, span.endNs);
        if (hi > lo)
            cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = span.startNs;
    for (const auto &[lo, hi] : cover) {
        std::int64_t from = std::max(lo, reach);
        if (hi > from)
            covered += hi - from;
        reach = std::max(reach, hi);
    }
    return (span.endNs - span.startNs) - covered;
}

} // namespace

double
Spans::selfSumSec(const char *layer, const char *op) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<int>> kids = children();
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (same(spans_[i].layer, layer) && same(spans_[i].op, op))
            total += selfNs(spans_, kids, static_cast<int>(i));
    return static_cast<double>(total) * 1e-9;
}

std::vector<int>
Spans::roots() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<int> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent < 0)
            out.push_back(static_cast<int>(i));
    return out;
}

double
Spans::coverage(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<int>> kids = children();
    std::int64_t total = 0, wrapper = 0;
    std::vector<int> todo{id};
    while (!todo.empty()) {
        int span = todo.back();
        todo.pop_back();
        const std::vector<int> &mine = kids[static_cast<std::size_t>(span)];
        std::int64_t self = selfNs(spans_, kids, span);
        total += self;
        if (!mine.empty())
            wrapper += self;
        todo.insert(todo.end(), mine.begin(), mine.end());
    }
    return total > 0 ? 1.0 - static_cast<double>(wrapper) /
                                 static_cast<double>(total)
                     : 0.0;
}

std::map<std::string, double>
Spans::layerSelfSec() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<int>> kids = children();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].layer] +=
            static_cast<double>(
                selfNs(spans_, kids, static_cast<int>(i))) *
            1e-9;
    return out;
}

} // namespace perfbench
