/**
 * @file
 * Shared helpers for the gated extension benches (bench/ext_*.cc,
 * bench/micro_match_path.cc): wall-clock timing, the ad-hoc parser for
 * our own JSON output format, whole-file reads for --baseline
 * comparison, and the PASS/FAIL gate emitter.
 *
 * The gate emitter is the contract with scripts/ci_bench_smoke.sh:
 * every deterministic gate prints exactly one line starting "PASS: "
 * or "FAIL: ", wall-clock gates print "info: " / "info (below
 * target): " unless CARAM_BENCH_WALL=1 promotes them, and the smoke
 * script scrapes those prefixes into its per-metric summary table.
 * Keep the prefixes stable.
 */

#ifndef CARAM_BENCH_BENCH_COMMON_H
#define CARAM_BENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

namespace caram::bench {

/** Seconds elapsed since @p t0. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
               .count() /
           1e9;
}

/** Whole file as a string; empty when unreadable. */
inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * Ad-hoc field lookup in our own flat JSON output format: the value
 * following the first `"name": ` occurrence.  Returns -1.0 when the
 * field is absent (every gated metric is positive).
 */
inline double
baselineField(const std::string &json, const std::string &name)
{
    const std::string field = "\"" + name + "\": ";
    const auto at = json.find(field);
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(json.c_str() + at + field.size(), nullptr);
}

/**
 * Per-entry variant for array-of-objects baselines: find the object
 * tagged `"name": "<entry>"`, then read @p field_name from it.
 */
inline double
baselineField(const std::string &json, const std::string &entry,
              const std::string &field_name)
{
    const std::string tag = "\"name\": \"" + entry + "\"";
    const auto at = json.find(tag);
    if (at == std::string::npos)
        return -1.0;
    const std::string field = "\"" + field_name + "\":";
    const auto f = json.find(field, at);
    if (f == std::string::npos)
        return -1.0;
    return std::strtod(json.c_str() + f + field.size(), nullptr);
}

/**
 * Gate collector.  gate() lines always enforce; wallGate() lines are
 * informational unless CARAM_BENCH_WALL=1 (wall clocks on shared CI
 * hosts mostly measure the scheduler, the modeled gates are the
 * deterministic contract).  rc() is the process exit code.
 */
class Gates
{
public:
    Gates() : wall_(std::getenv("CARAM_BENCH_WALL") != nullptr) {}

    void
    gate(bool pass, const std::string &line)
    {
        std::cout << (pass ? "PASS: " : "FAIL: ") << line << "\n";
        if (!pass)
            rc_ = 1;
    }

    void
    wallGate(bool pass, const std::string &line)
    {
        if (wall_)
            gate(pass, line);
        else
            std::cout << (pass ? "info: " : "info (below target): ")
                      << line << "\n";
    }

    /** A gate this host cannot run (never fails). */
    void
    skip(const std::string &line)
    {
        std::cout << "SKIP: " << line << "\n";
    }

    /** An info-only line in the same stream (never gates). */
    void
    info(const std::string &line)
    {
        std::cout << "info: " << line << "\n";
    }

    bool wallGatesEnabled() const { return wall_; }
    int rc() const { return rc_; }

private:
    bool wall_;
    int rc_ = 0;
};

} // namespace caram::bench

#endif // CARAM_BENCH_BENCH_COMMON_H
