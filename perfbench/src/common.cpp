#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#include "obs/export.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace perfbench {

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median_of(const std::vector<double>& samples)
{
    return buckwild::percentile_of(samples, 50.0);
}

Timing
summarize(const std::vector<double>& samples)
{
    Timing t;
    t.n = samples.size();
    t.median = median_of(samples);
    t.tail = t.median;
    for (const double p : {99.0, 95.0, 90.0, 75.0}) {
        if (static_cast<double>(t.n) * (1.0 - p / 100.0) >= 10.0) {
            t.tail = buckwild::percentile_of(samples, p);
            t.tail_pct = p;
            break;
        }
    }
    return t;
}

namespace {

std::string
number(double value)
{
    if (!std::isfinite(value)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
}

std::string
quoted(const std::string& text)
{
    std::string out(1, '"');
    out += buckwild::obs::json_escape(text);
    out += '"';
    return out;
}

} // namespace

void
Report::check(bool ok, const std::string& what)
{
    ++attempted_;
    if (ok) return;
    ++failed_;
    // Keep the details line short when something fails en masse.
    if (failures_.size() < 20) failures_.push_back(what);
}

void
Report::metric(const std::string& name, double value,
               const std::string& unit)
{
    metrics_[name] = {value, unit};
}

void
Report::detail(const std::string& key, double value)
{
    details_[key] = number(value);
}

void
Report::detail(const std::string& key, const std::string& value)
{
    details_[key] = quoted(value);
}

void
Report::detail(const std::string& key, const Timing& timing)
{
    std::ostringstream out;
    out << "{\"median_ms\":" << number(timing.median * 1e3)
        << ",\"tail_ms\":" << number(timing.tail * 1e3)
        << ",\"tail_pct\":" << number(timing.tail_pct)
        << ",\"samples\":" << timing.n << "}";
    details_[key] = out.str();
}

std::string
Report::details_json() const
{
    std::ostringstream out;
    out << "{\"perfbench\":{";
    bool first = true;
    for (const auto& [key, json] : details_) {
        out << (first ? "" : ",") << quoted(key) << ":" << json;
        first = false;
    }
    out << (first ? "" : ",") << "\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i)
        out << (i ? "," : "") << quoted(failures_[i]);
    out << "]}}";
    return out.str();
}

std::string
Report::result_json() const
{
    std::ostringstream out;
    out << "{\"correct\":" << (correct() ? "true" : "false")
        << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
        << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, v] : metrics_) {
        out << (first ? "" : ",") << quoted(name) << ":{\"value\":"
            << number(v.value) << ",\"unit\":" << quoted(v.unit) << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

namespace {

constexpr std::size_t kMaxSpans = 100'000;
constexpr std::size_t kRingEvents = 16'384;

struct KeptSpans
{
    std::vector<buckwild::obs::TraceEvent> events;
    std::uint64_t dropped = 0;
};

KeptSpans&
kept_spans()
{
    static KeptSpans spans;
    return spans;
}

} // namespace

void
start_tracing()
{
    buckwild::obs::Tracer::global().set_ring_capacity(kRingEvents);
    buckwild::obs::Tracer::global().set_enabled(true);
}

void
stop_tracing()
{
    buckwild::obs::Tracer::global().set_enabled(false);
    keep_spans();
}

void
keep_spans()
{
    buckwild::obs::Tracer& tracer = buckwild::obs::Tracer::global();
    KeptSpans& kept = kept_spans();
    kept.dropped += tracer.dropped();
    for (const auto& event : tracer.flush()) {
        if (kept.events.size() < kMaxSpans)
            kept.events.push_back(event);
        else
            ++kept.dropped;
    }
}

bool
write_spans(const std::string& path, Report& report)
{
    keep_spans();
    const KeptSpans& kept = kept_spans();
    report.detail("trace.spans_kept", static_cast<double>(kept.events.size()));
    report.detail("trace.spans_dropped", static_cast<double>(kept.dropped));
    report.detail("trace.file", path);
    std::ofstream out(path);
    if (!out) return false;
    buckwild::obs::write_chrome_trace(out, kept.events);
    return static_cast<bool>(out);
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
logistic_loss(double margin, double label)
{
    const double z = -label * margin;
    return z > 0.0 ? z + std::log1p(std::exp(-z)) : std::log1p(std::exp(z));
}

bool
all_finite(const std::vector<float>& values)
{
    return std::all_of(values.begin(), values.end(),
                       [](float v) { return std::isfinite(v); });
}

double
median_seconds_per_call(const std::function<void()>& body,
                        double min_seconds)
{
    // Size a batch to about a millisecond so clock reads stay negligible.
    std::size_t batch = 1;
    for (;;) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < batch; ++i) body();
        if (seconds_since(start) >= 1e-3 || batch >= (1u << 20)) break;
        batch *= 2;
    }
    std::vector<double> per_call;
    const auto start = Clock::now();
    while (per_call.size() < 3 || seconds_since(start) < min_seconds) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < batch; ++i) body();
        per_call.push_back(seconds_since(t0) / static_cast<double>(batch));
    }
    return median_of(per_call);
}

void
run_window(double seconds, const std::function<void()>& op)
{
    const auto start = Clock::now();
    for (int ops = 0; ops < 3 || seconds_since(start) < seconds; ++ops) op();
}

double
median_setup(std::size_t times, const std::function<void()>& teardown,
             const std::function<void()>& setup)
{
    std::vector<double> samples;
    for (std::size_t i = 0; i < times; ++i) {
        teardown();
        const auto t0 = Clock::now();
        setup();
        samples.push_back(seconds_since(t0));
    }
    return median_of(samples);
}

} // namespace perfbench
