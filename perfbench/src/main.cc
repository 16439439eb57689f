/**
 * @file
 * gridbench: runs one benchmark workload (a set of the paper's golden
 * experiment grids) and prints one JSON line of measurements.
 *
 *   gridbench setup --workload W --seed N
 *       Build the grid's JobSpecs and hand them to runner::runBatch
 *       with every job marked already done, so the runner starts and
 *       stops its pool but runs nothing; print the CLOCK_MONOTONIC
 *       time at which that returned. The caller subtracts its spawn
 *       time to get the set-up time of a fresh process.
 *
 *   gridbench run --workload W --seed N --seconds T
 *                 --golden-dir D --out-dir O
 *       Untraced: whole passes over the grid through runner::runBatch
 *       until T seconds and at least 100 experiments have run, every
 *       result checked by the golden oracle.
 *
 *   gridbench trace (same options)
 *       One untraced pass, then traced passes (at least two, until T
 *       seconds) that run each experiment stage by stage; prints the
 *       per-layer split and fails unless the staged run is faithful.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "grid.h"
#include "runner/batch.h"
#include "staged.h"

namespace perfbench
{
namespace
{

using cdpc::ExperimentResult;
using cdpc::WeightedTotals;
using cdpc::verify::GoldenJob;

/** Experiments a run needs so p90 has at least ten samples above it. */
constexpr std::size_t kMinExperiments = 100;
/** Errors echoed in the output; the count covers all of them. */
constexpr std::size_t kMaxErrors = 8;

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = kGoldenSeed;
    double seconds = 10;
    std::string goldenDir = "tests/golden";
    std::string outDir = ".";
};

Args
parseArgs(int argc, char **argv)
{
    cdpc::fatalIf(argc < 2, "usage: gridbench setup|run|trace "
                            "--workload W [--seed N] [--seconds T] "
                            "[--golden-dir D] [--out-dir O]");
    Args a;
    a.mode = argv[1];
    cdpc::fatalIf(a.mode != "setup" && a.mode != "run" &&
                      a.mode != "trace",
                  "unknown mode '", a.mode, "'");
    for (int i = 2; i < argc; i++) {
        const std::string flag = argv[i];
        cdpc::fatalIf(i + 1 >= argc, flag, " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            char *end = nullptr;
            a.seed = std::strtoull(value.c_str(), &end, 10);
            cdpc::fatalIf(value.empty() || *end, "bad --seed ", value);
        } else if (flag == "--seconds") {
            a.seconds = std::atof(value.c_str());
            cdpc::fatalIf(!(a.seconds > 0), "bad --seconds ", value);
        } else if (flag == "--golden-dir") {
            a.goldenDir = value;
        } else if (flag == "--out-dir") {
            a.outDir = value;
        } else {
            cdpc::fatal("unknown option ", flag);
        }
    }
    cdpc::fatalIf(a.workload.empty(), "--workload is required");
    return a;
}

double
monotonicSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/**
 * Harrell-Davis estimate of the @p q quantile: a Beta-weighted mean of
 * every order statistic. Experiment times cluster by application, and
 * on fig6-dm the median falls in the gap between two clusters, where
 * a single order statistic is the noisy extreme of one cluster.
 */
double
hdQuantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const double a = q * (n + 1);
    const double b = (1 - q) * (n + 1);
    const double log_beta =
        std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
    // Midpoint rule over each order statistic's [i/n, (i+1)/n] slice.
    constexpr int kSteps = 16;
    double sum = 0;
    double weights = 0;
    for (std::size_t i = 0; i < v.size(); i++) {
        double w = 0;
        for (int k = 0; k < kSteps; k++) {
            const double x =
                (static_cast<double>(i) + (k + 0.5) / kSteps) / n;
            w += std::exp((a - 1) * std::log(x) +
                          (b - 1) * std::log1p(-x) - log_beta);
        }
        sum += w * v[i];
        weights += w;
    }
    return sum / weights;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Experiments attempted and the ones whose output was wrong. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &why)
    {
        failed++;
        if (errors.size() < kMaxErrors)
            errors.push_back(why);
    }
};

std::vector<cdpc::runner::JobSpec>
jobSpecs(const std::vector<GoldenJob> &jobs)
{
    std::vector<cdpc::runner::JobSpec> specs;
    for (const GoldenJob &job : jobs) {
        cdpc::runner::JobSpec spec =
            cdpc::runner::makeJob(job.workload, job.config);
        spec.name = job.label;
        spec.trace = false;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** One untraced pass over the grid through the real entry path. */
struct UntracedPass
{
    double seconds = 0;
    std::vector<cdpc::runner::JobResult> results;
};

UntracedPass
runUntraced(const GridWorkload &w, const std::vector<GoldenJob> &jobs,
            Oracle &oracle, Tally &tally)
{
    cdpc::runner::BatchOptions opts;
    opts.jobs = w.workers;
    std::vector<cdpc::runner::JobSpec> specs = jobSpecs(jobs);
    const std::int64_t start = nowNs();
    UntracedPass pass;
    pass.results = cdpc::runner::runBatch(std::move(specs), opts);
    pass.seconds = secondsSince(start);

    for (std::size_t i = 0; i < jobs.size(); i++) {
        const cdpc::runner::JobResult &r = pass.results[i];
        tally.attempted++;
        if (!r.ok()) {
            tally.fail(jobs[i].label + ": " +
                       cdpc::runner::jobOutcomeName(r.outcome) + ": " +
                       r.error);
            continue;
        }
        const std::string why = oracle.check(
            jobs[i], cdpc::verify::goldenRecord(jobs[i].label,
                                                *r.result));
        if (!why.empty())
            tally.fail(why);
    }
    return pass;
}

/**
 * Guards the oracle itself: a tampered copy of the first cell's
 * committed record must be caught against that cell's result.
 */
void
oracleSelfTest(const std::vector<GoldenJob> &jobs,
               const UntracedPass &pass, const Oracle &oracle,
               Tally &tally)
{
    if (!pass.results.front().ok())
        return;
    const std::string why = oracle.selfTest(
        jobs.front(), cdpc::verify::goldenRecord(
                          jobs.front().label,
                          *pass.results.front().result));
    if (!why.empty())
        tally.fail("oracle self-test: " + why);
}

void
printResult(const std::string &mode, const Tally &tally,
            const std::vector<std::pair<std::string, double>> &metrics,
            const std::map<std::string, std::string> &info)
{
    std::ostringstream os;
    os << "{\"mode\": " << jsonString(mode)
       << ", \"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"errors\": [";
    for (std::size_t i = 0; i < tally.errors.size(); i++)
        os << (i ? ", " : "") << jsonString(tally.errors[i]);
    os << "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); i++)
        os << (i ? ", " : "") << jsonString(metrics[i].first) << ": "
           << jsonNumber(metrics[i].second);
    os << "}, \"info\": {\"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE);
    for (const auto &[key, value] : info)
        os << ", " << jsonString(key) << ": " << value;
    os << "}}";
    std::printf("%s\n", os.str().c_str());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int
runSetup(const Args &a)
{
    const GridWorkload &w = gridWorkload(a.workload);
    std::vector<cdpc::runner::JobSpec> specs =
        jobSpecs(gridJobs(w, a.seed));
    cdpc::runner::BatchControl control;
    control.skip.assign(specs.size(), true);
    cdpc::runner::BatchOptions opts;
    opts.jobs = w.workers;
    opts.control = &control;
    cdpc::runner::runBatch(std::move(specs), opts);
    std::printf("handoff %.9f\n", monotonicSeconds());
    return 0;
}

int
runUntracedMode(const Args &a)
{
    const GridWorkload &w = gridWorkload(a.workload);
    const std::vector<GoldenJob> jobs = gridJobs(w, a.seed);
    Oracle oracle(w, a.goldenDir, a.seed);
    Tally tally;
    std::vector<double> passSeconds;
    std::vector<double> expMs;
    const std::int64_t start = nowNs();
    while (passSeconds.size() < 2 || expMs.size() < kMinExperiments ||
           secondsSince(start) < a.seconds) {
        UntracedPass pass = runUntraced(w, jobs, oracle, tally);
        if (passSeconds.empty())
            oracleSelfTest(jobs, pass, oracle, tally);
        passSeconds.push_back(pass.seconds);
        for (const cdpc::runner::JobResult &r : pass.results)
            expMs.push_back(r.hostSeconds * 1e3);
    }
    const std::string times_path =
        a.outDir + "/experiments-" + w.name + ".tsv";
    {
        std::ofstream out(times_path, std::ios::trunc);
        out << "pass\tlabel\thost_ms\n";
        for (std::size_t i = 0; i < expMs.size(); i++)
            out << i / jobs.size() << '\t' << jobs[i % jobs.size()].label
                << '\t' << expMs[i] << '\n';
        cdpc::fatalIf(!out.flush(), "short write to ", times_path);
    }
    std::string pass_list = "[";
    for (std::size_t i = 0; i < passSeconds.size(); i++)
        pass_list += (i ? ", " : "") + jsonNumber(passSeconds[i]);
    pass_list += "]";

    printResult("run", tally,
                {{"grid_s", median(passSeconds)},
                 {"exp_p50_ms", hdQuantile(expMs, 0.5)},
                 {"exp_p90_ms", hdQuantile(expMs, 0.9)},
                 {"peak_rss_mb", peakRssMb()}},
                {{"passes", std::to_string(passSeconds.size())},
                 {"pass_seconds", pass_list},
                 {"experiment_times", jsonString(times_path)},
                 {"experiments", std::to_string(jobs.size())},
                 {"samples", std::to_string(expMs.size())},
                 {"workers", std::to_string(w.workers)},
                 {"wrong_frac",
                  jsonNumber(static_cast<double>(tally.failed) /
                             static_cast<double>(tally.attempted))}});
    return tally.failed == 0 ? 0 : 1;
}

/** One traced pass: its wall time and every experiment's stages. */
struct TracedPass
{
    double seconds = 0;
    std::vector<StagedResult> results;
    /** Non-empty where the staged run threw; its result is unset. */
    std::vector<std::string> errors;
};

TracedPass
runTraced(const GridWorkload &w, const std::vector<GoldenJob> &jobs,
          Tally &tally)
{
    TracedPass pass;
    pass.results.resize(jobs.size());
    pass.errors.resize(jobs.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            try {
                pass.results[i] = runStaged(
                    jobs[i].workload, jobs[i].config, static_cast<int>(i));
            } catch (const std::exception &e) {
                pass.errors[i] = e.what();
            }
        }
    };
    const std::int64_t start = nowNs();
    {
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < w.workers; t++)
            threads.emplace_back(worker);
    }
    pass.seconds = secondsSince(start);
    for (std::size_t i = 0; i < jobs.size(); i++) {
        tally.attempted++;
        if (!pass.errors[i].empty())
            tally.fail(jobs[i].label + ": staged run: " + pass.errors[i]);
    }
    return pass;
}

/** Faithfulness of traced pass @p pass against the untraced run. */
void
checkTraced(const std::vector<GoldenJob> &jobs, const UntracedPass &base,
            const TracedPass &pass, const TracedPass &first,
            Tally &tally)
{
    for (std::size_t i = 0; i < jobs.size(); i++) {
        const std::string &label = jobs[i].label;
        const StagedResult &s = pass.results[i];
        const cdpc::runner::JobResult &b = base.results[i];
        // Failed runs were already counted where they failed.
        if (!b.ok() || !pass.errors[i].empty() ||
            !first.errors[i].empty())
            continue;
        if (std::memcmp(&s.totals, &b.result->totals,
                        sizeof(WeightedTotals)) != 0) {
            ExperimentResult staged = *b.result;
            staged.totals = s.totals;
            const std::string diff = firstDiff(
                cdpc::verify::goldenRecord(label, *b.result),
                cdpc::verify::goldenRecord(label, staged));
            tally.fail(label + ": staged totals differ from "
                               "runWorkload's" +
                       (diff.empty() ? "" : " (" + diff + ")"));
        } else if (s.counts.replayL2Misses != s.counts.l2Misses) {
            tally.fail(label + ": replay L2 misses " +
                       std::to_string(s.counts.replayL2Misses) +
                       " != simulated " +
                       std::to_string(s.counts.l2Misses));
        } else if (!(s.counts == first.results[i].counts)) {
            tally.fail(label + ": traced counts differ between passes");
        }
    }
}

std::vector<std::pair<std::string, double>>
layerMetrics(const std::vector<TracedPass> &passes,
             const UntracedPass &base, unsigned workers)
{
    // Times: the median over passes of each pass's sum. Counts are
    // identical across passes (checked), so the first pass's are used.
    std::vector<double> stage_s[kNumStages];
    std::vector<double> pass_s;
    for (const TracedPass &p : passes) {
        double sum[kNumStages] = {};
        for (const StagedResult &r : p.results)
            for (int s = 0; s < kNumStages; s++)
                sum[s] += r.stageSeconds[s];
        for (int s = 0; s < kNumStages; s++)
            stage_s[s].push_back(sum[s]);
        pass_s.push_back(p.seconds);
    }
    double t[kNumStages];
    for (int s = 0; s < kNumStages; s++)
        t[s] = median(stage_s[s]);

    LayerCounts c;
    for (const StagedResult &r : passes.front().results) {
        const LayerCounts &x = r.counts;
        c.lines += x.lines;
        c.l1Hits += x.l1Hits;
        c.l1Misses += x.l1Misses;
        c.l2Hits += x.l2Hits;
        c.l2Misses += x.l2Misses;
        c.refs += x.refs;
        c.tlbMisses += x.tlbMisses;
        c.conflictMisses += x.conflictMisses;
        c.capacityMisses += x.capacityMisses;
        c.coherenceMisses += x.coherenceMisses;
        c.prefetchIssued += x.prefetchIssued;
        c.prefetchUseful += x.prefetchUseful;
        c.busTxns += x.busTxns;
        c.busQueueingCycles += x.busQueueingCycles;
        c.translations += x.translations;
        c.pageFaults += x.pageFaults;
        c.hintHonored += x.hintHonored;
        c.hintExpressed += x.hintExpressed;
        c.cdpcHints += x.cdpcHints;
        c.touchPages += x.touchPages;
    }
    auto ratio = [](std::uint64_t num, std::uint64_t den, double none) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : none;
    };
    const double lines = static_cast<double>(c.lines);

    double job_s = 0;
    std::uint64_t retries = 0;
    for (const cdpc::runner::JobResult &r : base.results) {
        job_s += r.hostSeconds;
        retries += r.attempts - 1;
    }

    return {
        {"machine.simulate_s", t[kSimulate]},
        {"machine.ns_per_line", t[kSimulate] * 1e9 / lines},
        {"machine.self_ns_per_line",
         (t[kSimulate] - t[kReplay]) * 1e9 / lines},
        {"machine.lines", lines},
        {"mem.access_ns", t[kReplay] * 1e9 / lines},
        {"mem.l1_hit_ratio", ratio(c.l1Hits, c.l1Hits + c.l1Misses, 0)},
        {"mem.l2_hit_ratio", ratio(c.l2Hits, c.l2Hits + c.l2Misses, 0)},
        {"mem.tlb_miss_ratio", ratio(c.tlbMisses, c.refs, 0)},
        {"mem.conflict_misses", static_cast<double>(c.conflictMisses)},
        {"mem.capacity_misses", static_cast<double>(c.capacityMisses)},
        {"mem.coherence_misses",
         static_cast<double>(c.coherenceMisses)},
        {"mem.prefetch_issued", static_cast<double>(c.prefetchIssued)},
        {"mem.prefetch_useful_ratio",
         ratio(c.prefetchUseful, c.prefetchIssued, 0)},
        {"mem.bus_txns", static_cast<double>(c.busTxns)},
        {"mem.bus_queueing_cycles",
         static_cast<double>(c.busQueueingCycles)},
        {"vm.translations", static_cast<double>(c.translations)},
        {"vm.page_faults", static_cast<double>(c.pageFaults)},
        {"vm.hint_honored_ratio",
         ratio(c.hintHonored, c.hintExpressed, 1)},
        {"workloads.build_ms", t[kBuild] * 1e3},
        {"compiler.compile_ms", t[kCompile] * 1e3},
        {"cdpc.plan_ms", t[kPlan] * 1e3},
        {"cdpc.hints", static_cast<double>(c.cdpcHints)},
        {"cdpc.touch_pages", static_cast<double>(c.touchPages)},
        {"harness.os_setup_ms", t[kOsSetup] * 1e3},
        {"runner.busy_share", job_s / (base.seconds * workers)},
        {"runner.retries", static_cast<double>(retries)},
        {"trace.overhead", median(pass_s) / base.seconds},
    };
}

/** Write every span, one JSON object a line, after the run. */
void
writeSpans(const std::string &path, const std::vector<GoldenJob> &jobs,
           const std::vector<TracedPass> &passes)
{
    std::ofstream out(path, std::ios::trunc);
    cdpc::fatalIf(!out, "cannot write spans to ", path);
    for (std::size_t p = 0; p < passes.size(); p++)
        for (const StagedResult &r : passes[p].results)
            for (const Span &s : r.spans)
                out << "{\"pass\": " << p
                    << ", \"experiment\": " << s.experiment
                    << ", \"label\": "
                    << jsonString(jobs[s.experiment].label)
                    << ", \"span\": " << jsonString(stageName(s.stage))
                    << ", \"start_ns\": " << s.startNs
                    << ", \"end_ns\": " << s.endNs << "}\n";
    cdpc::fatalIf(!out.flush(), "short write to ", path);
}

int
runTracedMode(const Args &a)
{
    const GridWorkload &w = gridWorkload(a.workload);
    const std::vector<GoldenJob> jobs = gridJobs(w, a.seed);
    Oracle oracle(w, a.goldenDir, a.seed);
    Tally tally;
    const std::int64_t start = nowNs();
    const UntracedPass base = runUntraced(w, jobs, oracle, tally);
    oracleSelfTest(jobs, base, oracle, tally);

    std::vector<TracedPass> passes;
    while (passes.size() < 2 || secondsSince(start) < a.seconds) {
        passes.push_back(runTraced(w, jobs, tally));
        checkTraced(jobs, base, passes.back(), passes.front(), tally);
        if (tally.failed)
            break;
    }
    const std::string spans_path =
        a.outDir + "/spans-" + w.name + ".jsonl";
    writeSpans(spans_path, jobs, passes);

    const std::map<std::string, std::string> info = {
        {"traced_passes", std::to_string(passes.size())},
        {"experiments", std::to_string(jobs.size())},
        {"workers", std::to_string(w.workers)},
        {"spans", jsonString(spans_path)},
    };
    printResult("trace", tally,
                tally.failed ? std::vector<std::pair<std::string, double>>{}
                             : layerMetrics(passes, base, w.workers),
                info);
    return tally.failed == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        const perfbench::Args a = perfbench::parseArgs(argc, argv);
        if (a.mode == "setup")
            return perfbench::runSetup(a);
        if (a.mode == "run")
            return perfbench::runUntracedMode(a);
        return perfbench::runTracedMode(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gridbench: %s\n", e.what());
        return 2;
    }
}
