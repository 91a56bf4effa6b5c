/**
 * @file
 * hogwild-dense: the paper's headline path. core::Trainer::fit on a
 * dense logistic problem at D8M8 with shared-XORSHIFT rounding and two
 * Hogwild! threads; the simd dense dot/AXPY kernels and lowp rounding do
 * almost all the work, and nothing in ps, net or gate runs.
 *
 * One operation is one fixed-budget fit (quantizing the dataset, then
 * the epochs): its wall time is the time to a trained model, and its
 * final loss the statistical half of the result.
 */

#include "core/trainer.h"
#include "dmgc/perf_model.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

using namespace buckwild;

namespace {

struct Sizes
{
    std::size_t dim;
    /// 16x dim: not separable, and enough examples that the mean loss
    /// repeats across seeds within a few percent.
    std::size_t examples;
    std::size_t epochs;
};

Sizes
sizes(const Options& options)
{
    if (options.tiny) return {256, 2048, 2};
    return {1024, 16384, 3};
}

constexpr std::size_t kThreads = 2;
/// The default 0.2 overshoots at this dimension (|x|^2 ~ dim / 3);
/// much smaller steps vanish under the 8-bit model's quantum.
constexpr float kStepSize = 0.02f;
/// D8M8 settles near 0.80 on these problems.
constexpr double kAccuracyFloor = 0.7;

core::TrainerConfig
trainer_config(const Sizes& s, std::uint64_t seed)
{
    core::TrainerConfig cfg;
    cfg.signature = dmgc::Signature::dense_fixed(8, 8);
    cfg.rounding = core::RoundingStrategy::kSharedXorshift;
    cfg.threads = kThreads;
    cfg.epochs = s.epochs;
    cfg.step_size = kStepSize;
    cfg.seed = seed;
    cfg.record_loss_trace = false;
    return cfg;
}

/// Per-fit results collected over a window.
struct FitSamples
{
    std::vector<double> wall; ///< seconds per fit, quantization included
    std::vector<double> gnps;
    std::vector<double> loss;
    std::vector<double> accuracy;
    std::vector<double> epoch_seconds;
};

} // namespace

int
run_hogwild(const Options& options, Report& report)
{
    const Sizes s = sizes(options);
    dataset::DenseProblem problem;
    const double setup_s = median_setup(
        options.trace ? 1 : kSetups, [&] { problem = {}; },
        [&] {
            obs::ScopedSpan span("bench", "dataset.generate");
            problem = dataset::generate_logistic_dense(s.dim, s.examples,
                                                       options.seed);
        });
    const core::TrainerConfig cfg = trainer_config(s, options.seed);

    FitSamples samples;
    const auto fit = [&] {
        const auto t0 = Clock::now();
        core::Trainer trainer(cfg);
        core::TrainingMetrics m;
        {
            obs::ScopedSpan span("bench", "core.fit");
            m = trainer.fit(problem);
        }
        samples.wall.push_back(seconds_since(t0));
        if (options.trace) keep_spans();
        samples.gnps.push_back(m.gnps());
        samples.loss.push_back(m.final_loss);
        samples.accuracy.push_back(m.accuracy);
        samples.epoch_seconds.push_back(m.train_seconds /
                                        static_cast<double>(m.epochs));
        report.check(all_finite(trainer.model()), "hogwild: model not finite");
        report.check(m.accuracy >= kAccuracyFloor,
                     "hogwild: accuracy " + std::to_string(m.accuracy) +
                         " below floor");
    };
    fit(); // warm-up: kernel resolution, page faults
    samples = {};

    report.detail("shape", "dim " + std::to_string(s.dim) + ", examples " +
                               std::to_string(s.examples) + ", epochs " +
                               std::to_string(s.epochs) + ", D8M8, " +
                               std::to_string(kThreads) + " threads");
    if (!options.trace) {
        run_window(options.seconds, fit);
        report.detail("fit", summarize(samples.wall));
        report.detail("accuracy", median_of(samples.accuracy));
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("gnps", median_of(samples.gnps), "GNPS");
        // Examples per second: each example is one SGD update.
        report.metric("goodput_per_s",
                      median_of(samples.gnps) * 1e9 /
                          static_cast<double>(s.dim),
                      "1/s");
        report.metric("loss", median_of(samples.loss), "nats");
        return 0;
    }

    // Traced run: half the window untraced, half traced; the GNPS ratio
    // is the tracing overhead.
    run_window(options.seconds / 2, fit);
    const double untraced = median_of(samples.gnps);
    LayerValues layer;
    layer["core.epoch_ms"] = median_of(samples.epoch_seconds) * 1e3;
    layer["core.gnps_over_model"] =
        untraced / dmgc::PerfModel::paper_model().predict_gnps(
                       cfg.signature, kThreads, s.dim);
    samples = {};
    start_tracing();
    run_window(options.seconds / 2, fit);
    stop_tracing();
    layer["obs.trace_overhead_pct"] =
        (untraced / median_of(samples.gnps) - 1.0) * 100.0;
    layer["dataset.generate_s"] = setup_s;

    Shape shape;
    shape.dim = s.dim;
    shape.signature = cfg.signature;
    shape.codec = ps::Codec::qsgd(4);
    shape.dense = &problem;
    shape.seed = options.seed;
    run_ladder(shape, options, std::move(layer), report);
    return 0;
}

} // namespace perfbench
