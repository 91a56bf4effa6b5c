/**
 * @file
 * perfbench — the repository benchmark.
 *
 *     perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--steady-rps R --overload-rps R] [--rev TEXT]
 *               [--trace-out FILE] [--tiny] [--probe]
 *
 * Workloads: hogwild-dense, ps-qsgd, ps-sparse-tcp, gate-mixed. The
 * inputs are generated from --seed; --seconds is the measured window.
 * With --trace 0 the run reports the end-to-end metrics; with --trace 1
 * it reports the per-layer metrics (and writes its spans to
 * --trace-out). The last stdout line is the result:
 *
 *     {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 *
 * and the line before it the details (host fingerprint, timing sample
 * counts and percentiles, gate phase counts, failures). The exit code
 * is 0 only for a correct run. perfbench/run.py builds this program
 * and is the command BENCHMARK.json names.
 */
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "simd/cpu.h"
#include "simd/registry.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload hogwild-dense|ps-qsgd|"
                 "ps-sparse-tcp|gate-mixed --seed N --seconds S --trace 0|1\n"
                 "       [--steady-rps R --overload-rps R] [--rev TEXT]\n"
                 "       [--trace-out FILE] [--tiny] [--probe]\n");
    return 2;
}

bool
parse(int argc, char** argv, Options& o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (flag == "--probe") {
            o.probe = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") o.workload = value;
            else if (flag == "--seed") o.seed = std::stoull(value);
            else if (flag == "--seconds") o.seconds = std::stod(value);
            else if (flag == "--trace") o.trace = value == "1";
            else if (flag == "--steady-rps") o.steady_rps = std::stod(value);
            else if (flag == "--overload-rps") o.overload_rps = std::stod(value);
            else if (flag == "--rev") o.rev = value;
            else if (flag == "--trace-out") o.trace_out = value;
            else return false;
        } catch (const std::exception&) {
            return false;
        }
    }
    return !o.workload.empty() && o.seconds > 0;
}

/// Host and build fingerprint: numbers compare only within one tier.
void
fingerprint(const Options& o, Report& report)
{
    namespace simd = buckwild::simd;
    const simd::CpuFeatures& cpu = simd::host_cpu();
    std::string features;
    for (const auto& [name, on] :
         {std::pair{"avx2", cpu.avx2}, std::pair{"fma", cpu.fma},
          std::pair{"avx512f", cpu.avx512f}, std::pair{"avx512bw", cpu.avx512bw}})
        if (on) {
            if (!features.empty()) features += ',';
            features += name;
        }
    report.detail("host.cpu_features", features);
    report.detail("host.kernel_tier", simd::to_string(simd::best_impl()));
    report.detail("host.nproc",
                  static_cast<double>(std::thread::hardware_concurrency()));
    report.detail("build.rev", o.rev.empty() ? "unknown" : o.rev);
    report.detail("build.obs", BUCKWILD_OBS_ENABLED ? "on" : "off");
    report.detail("run.workload", o.workload);
    report.detail("run.seed", static_cast<double>(o.seed));
    report.detail("run.seconds", o.seconds);
    report.detail("run.trace", o.trace ? 1.0 : 0.0);
}

} // namespace

int
main(int argc, char** argv)
{
    Options options;
    if (!parse(argc, argv, options)) return usage();

    Report report;
    fingerprint(options, report);
    int rc = 0;
    try {
        if (options.workload == "hogwild-dense")
            rc = run_hogwild(options, report);
        else if (options.workload == "ps-qsgd")
            rc = run_ps_qsgd(options, report);
        else if (options.workload == "ps-sparse-tcp")
            rc = run_ps_sparse_tcp(options, report);
        else if (options.workload == "gate-mixed")
            rc = run_gate_mixed(options, report);
        else
            return usage();
    } catch (const std::exception& e) {
        report.check(false, std::string("run aborted: ") + e.what());
    }
    if (rc != 0) return rc;
    if (options.trace && !options.trace_out.empty() &&
        !write_spans(options.trace_out, report))
        report.check(false, "could not write " + options.trace_out);

    std::printf("%s\n%s\n", report.details_json().c_str(),
                report.result_json().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
