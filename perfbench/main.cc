/**
 * @file
 * Benchmark driver: runs one named workload through the public CA-RAM
 * API on both clocks (host wall-clock and the paper's modeled memory
 * cycles), checks every answer against an independent oracle, and
 * prints the result as one JSON object on its last line of output.
 *
 * Usage:
 *   perfbench_driver --workload <ip_lpm|engine_uniform|engine_churn_zipf>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *                    [--trace-out <file>]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
 * traced run and reports the per-layer metrics derived from its spans.
 * Exit status is 0 only when every answer matched its oracle.
 */

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/logging.h"
#include "core/subsystem.h"
#include "engine/parallel_search_engine.h"

extern char **environ;

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

/** Every end-to-end metric, in output order. */
const Metric kEndToEnd[] = {
    {"throughput_mops", 0, "Mops"}, {"p50_us", 0, "us"},
    {"p99_us", 0, "us"},            {"update_p99_us", 0, "us"},
    {"modeled_msps", 0, "Msps"},    {"setup_s", 0, "s"},
    {"peak_rss_mb", 0, "MB"},
};

/** Every per-layer metric, in output order.  A layer a workload does
 *  not exercise reports 0 (e.g. the engine layers on ip_lpm). */
const Metric kLayers[] = {
    {"hash.candidate_homes_ns", 0, "ns"},
    {"core.match.search_rows_ns", 0, "ns"},
    {"core.slice.search_ns", 0, "ns"},
    {"core.database.search_ns", 0, "ns"},
    {"core.database.search_batch_ns_per_key", 0, "ns"},
    {"core.slice.amal", 0, "count"},
    {"core.database.insert_ns", 0, "ns"},
    {"core.database.erase_ns", 0, "ns"},
    {"core.subsystem.process_ns", 0, "ns"},
    {"engine.vs_serial", 0, "x"},
    {"engine.handoff_ns", 0, "ns"},
    {"engine.submit_wait_ns", 0, "ns"},
    {"engine.modeled_speedup", 0, "x"},
    {"engine.wall_msps_reported", 0, "Msps"},
    {"engine.cache.hit_frac", 0, "frac"},
    {"engine.cache.invalidations", 0, "count"},
    {"core.prefilter.skip_frac", 0, "frac"},
    {"engine.writer.row_fetches_per_mutation", 0, "rows/op"},
    {"engine.writer.rows_combined", 0, "count"},
    {"engine.writer.staged_runs", 0, "count"},
    {"engine.maintenance.steps", 0, "count"},
    {"ip.map_s", 0, "s"},
    {"engine.bulk_load_s", 0, "s"},
    {"engine.bulk_load.row_fetches", 0, "count"},
    {"mem.storage_bytes_per_record", 0, "B"},
    {"baseline.lpm_trie.lookup_ns", 0, "ns"},
    {"baseline.chained_hash.find_ns", 0, "ns"},
    {"core.database.search_vs_lpm_trie", 0, "x"},
    {"core.database.search_vs_chained_hash", 0, "x"},
    {"bench.trace_overhead_frac", 0, "frac"},
    {"bench.modeled_sched_dependent", 0, "count"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver --workload <ip_lpm|"
                 "engine_uniform|engine_churn_zipf> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n";
    std::exit(2);
}

uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used, 10);
    } catch (const std::exception &) {
        usage(flag + " needs a whole number, got '" + text + "'");
    }
    if (used != text.size())
        usage(flag + " needs a whole number, got '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = parseUint(flag, value);
        } else if (flag == "--seconds") {
            const uint64_t s = parseUint(flag, value);
            if (s < 1 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            opt.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            opt.trace = value == "1";
        } else if (flag == "--trace-out") {
            opt.traceOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return opt;
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                std::string m = line.substr(colon + 1);
                m.erase(0, m.find_first_not_of(' '));
                return m;
            }
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * The engine settings the benchmark's one knob resolves to, read from
 * an engine built (not started) over a one-port subsystem.
 */
std::string
resolvedSettings(unsigned nproc, bool &threads_ok)
{
    caram::core::CaRamSubsystem sys;
    sys.addDatabase(portDbConfig("probe"));
    const caram::engine::EngineConfig cfg = benchEngineConfig();
    caram::engine::ParallelSearchEngine engine(sys, cfg);
    const unsigned lanes = engine.resolvedWriterLanes();
    const unsigned planner = engine.resolvedMaintenance() ? 1 : 0;
    const unsigned threads = 1 + cfg.workers + lanes + planner;
    threads_ok = threads <= nproc;
    std::ostringstream os;
    os << "{\"workers\": " << cfg.workers
       << ", \"resolvedResultCacheEntries\": "
       << engine.resolvedResultCacheEntries()
       << ", \"resolvedPrefilter\": "
       << (engine.resolvedPrefilter() ? "true" : "false")
       << ", \"resolvedWriterLanes\": " << lanes
       << ", \"concurrentMutationActive\": "
       << (engine.concurrentMutationActive() ? "true" : "false")
       << ", \"resolvedMaintenance\": "
       << (engine.resolvedMaintenance() ? "true" : "false")
       << ", \"engine_threads_incl_producer\": " << threads
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"cpu_model\": " << jsonString(cpuModel())
       << ", \"nproc\": " << nproc << "}";
    return os.str();
}

/** Lay @p got over @p canon: every canonical name, in canonical order. */
std::vector<Metric>
complete(const Metric *canon, std::size_t n, const std::vector<Metric> &got)
{
    std::vector<Metric> out(canon, canon + n);
    std::set<std::string> known;
    for (const Metric &c : out)
        known.insert(c.name);
    for (const Metric &m : got) {
        if (!known.count(m.name)) {
            std::cerr << "perfbench_driver: internal error: unlisted "
                         "metric "
                      << m.name << "\n";
            std::exit(3);
        }
        for (Metric &c : out) {
            if (c.name == m.name)
                c.value = m.value;
        }
    }
    return out;
}

int
run(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (opt.workload != "ip_lpm" && opt.workload != "engine_uniform" &&
        opt.workload != "engine_churn_zipf")
        usage("unknown workload '" + opt.workload + "'");

    // Configuration hygiene: the benchmark sets exactly one knob
    // (EngineConfig::workers); an environment override would silently
    // change what is measured.
    for (char **e = environ; *e; ++e) {
        if (std::string(*e).rfind("CARAM_", 0) == 0) {
            std::cerr << "perfbench_driver: refusing to run with "
                      << std::string(*e).substr(
                             0, std::string(*e).find('='))
                      << " set; unset every CARAM_* variable\n";
            return 2;
        }
    }
    caram::setQuiet(true);

    const unsigned nproc = onlineCpus();
    bool threads_ok = false;
    const std::string settings = resolvedSettings(nproc, threads_ok);
    std::cout << "perfbench workload=" << opt.workload
              << " seed=" << opt.seed << " seconds=" << opt.seconds
              << " trace=" << (opt.trace ? 1 : 0) << "\n"
              << "config " << settings << "\n";
    if (!threads_ok) {
        std::cerr << "perfbench_driver: producer + workers + writer lanes "
                     "+ planner threads exceed nproc="
                  << nproc << "\n";
        return 2;
    }

    Tracer tracer(opt.trace ? Tracer::kDefaultCapacity : 0);
    Result r;
    if (opt.workload == "ip_lpm")
        r = runIpLpm(opt, tracer);
    else
        r = runEngine(opt, tracer, opt.workload == "engine_churn_zipf");

    for (const std::string &n : r.notes)
        std::cout << "note " << n << "\n";
    for (const std::string &n : r.schedulingDependent)
        std::cout << "scheduling-dependent modeled count: " << n << "\n";
    if (opt.trace && !opt.traceOut.empty()) {
        if (!tracer.write(opt.traceOut)) {
            std::cerr << "perfbench_driver: cannot write "
                      << opt.traceOut << "\n";
            return 1;
        }
        std::cout << "spans " << tracer.retained() << " written to "
                  << opt.traceOut << "\n";
    }

    const std::vector<Metric> e2e = complete(
        kEndToEnd, std::size(kEndToEnd), r.endToEnd);
    const std::vector<Metric> layers =
        complete(kLayers, std::size(kLayers), r.layers);
    const double failed_frac = r.attempted
        ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
        : 1.0;
    // The set the --trace flag selects, for reading and then as JSON.
    for (const Metric &m : opt.trace ? layers : e2e)
        std::cout << "metric " << m.name << " = " << number(m.value)
                  << " " << m.unit << "\n";
    std::cout << "metric failed_frac = " << number(failed_frac)
              << " frac (" << r.failed << " of " << r.attempted
              << " ops)\n";

    const bool correct = r.failed == 0 && r.attempted > 0;
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": "
       << r.failed << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : opt.trace ? layers : e2e) {
        js << (first ? "" : ", ") << jsonString(m.name)
           << ": {\"value\": " << number(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
        first = false;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
