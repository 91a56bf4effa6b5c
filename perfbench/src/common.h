/**
 * @file
 * Shared pieces of the repository benchmark: run options, the report a
 * run prints, sample summaries, and the small timing helpers every
 * workload uses.
 *
 * Every number is taken from outside the library: the benchmark times
 * its own calls into public functions and reads the public result
 * structs. Spans around those calls (obs::ScopedSpan, category "bench")
 * record only while the tracer is on, i.e. in the traced run.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

/// Command-line options of one run.
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0; ///< length of the measured window
    bool trace = false;    ///< traced run: per-layer metrics
    bool tiny = false;     ///< self-check sizes (seconds, not minutes)
    /// gate-mixed open-loop rates, requests/s (fixed, never probed).
    double steady_rps = 0.0;
    double overload_rps = 0.0;
    bool probe = false; ///< gate-mixed: print closed-loop capacity only
    std::string rev;       ///< source revision, recorded in the result
    std::string trace_out; ///< traced run: Chrome trace destination
};

/// Median and tail of a sample set. The tail is the highest of p99,
/// p95, p90 and p75 that still has at least ten samples beyond it (the
/// median when there are fewer than forty samples).
struct Timing
{
    double median = 0.0;
    double tail = 0.0;
    double tail_pct = 50.0;
    std::size_t n = 0;
};

Timing summarize(const std::vector<double>& samples);

/// Median of a sample (0 when empty).
double median_of(const std::vector<double>& samples);

/// What one run reports: operation and check counts, failures, the
/// metrics, and free-form details printed on the line before the
/// result.
class Report
{
  public:
    /// Counts one attempted operation or check; a false `ok` counts it
    /// as failed and keeps `what` for the details.
    void check(bool ok, const std::string& what);

    void metric(const std::string& name, double value,
                const std::string& unit);
    void detail(const std::string& key, double value);
    void detail(const std::string& key, const std::string& value);
    /// Records a timing summary under `key` (median, tail, percentile
    /// and sample count), in milliseconds.
    void detail(const std::string& key, const Timing& timing);

    bool correct() const { return failed_ == 0; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /// The details line: {"perfbench": {...}}.
    std::string details_json() const;
    /// The result line: {"correct", "attempted", "failed", "metrics"}.
    std::string result_json() const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::map<std::string, Value> metrics_;
    std::map<std::string, std::string> details_; ///< key -> JSON value
};

/// Turns the tracer on (with per-thread rings small enough that the
/// short-lived threads of many operations do not pile up memory).
void start_tracing();
void stop_tracing();

/// Moves the tracer's buffered events into the run's kept spans, up to
/// a cap (the rest are counted, not kept). Workloads call it after each
/// traced operation; spans stay in memory until write_spans().
void keep_spans();

/// Writes the kept spans as Chrome trace JSON; false when the file
/// cannot be written. Records the kept and dropped counts as details.
bool write_spans(const std::string& path, Report& report);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Logistic loss log(1 + exp(-y z)), overflow-safe.
double logistic_loss(double margin, double label);

/// True when every element is finite.
bool all_finite(const std::vector<float>& values);

/// Calls `body` repeatedly for at least `min_seconds` and returns the
/// median seconds per call over batches of about a millisecond.
double median_seconds_per_call(const std::function<void()>& body,
                               double min_seconds);

/// A thread that is joined on destruction and hands back the message of
/// an exception its body threw.
class JoinedThread
{
  public:
    template <typename F>
    explicit JoinedThread(F body)
        : thread_([this, body] {
              try {
                  body();
              } catch (const std::exception& e) {
                  error_ = e.what();
              }
          })
    {}
    ~JoinedThread() { join(); }
    JoinedThread(const JoinedThread&) = delete;
    JoinedThread& operator=(const JoinedThread&) = delete;

    /// Joins; returns the body's exception message ("" on success).
    const std::string&
    join()
    {
        if (thread_.joinable()) thread_.join();
        return error_;
    }

  private:
    std::string error_;
    std::thread thread_;
};

/// Runs `op` back to back until `seconds` have elapsed (and at least
/// three times).
void run_window(double seconds, const std::function<void()>& op);

/// Set-ups per untraced run; setup_s is their median.
inline constexpr std::size_t kSetups = 5;

/// Runs `teardown` (untimed) then `setup`, `times` times; returns the
/// median wall seconds of `setup`.
double median_setup(std::size_t times, const std::function<void()>& teardown,
                    const std::function<void()>& setup);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
