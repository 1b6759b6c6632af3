/**
 * @file
 * temp_perfbench: runs one benchmark workload against the public
 * api/serve surface and prints its metrics. perfbench/run.py builds and
 * drives this binary; see perfbench/README.md.
 *
 *   temp_perfbench --workload zoo_cold --seed 1 --seconds 20 --trace 0
 *                  [--limit-ms 2000] [--threads 4] [--trace-path F]
 *                  [--offered-rps R]
 *
 * The last stdout line is `PERFBENCH_RESULT <json>` with every metric
 * (value, unit, sample count, clock), the attempt/failure counts, the
 * output-check failures and the plan digest. Exit code 0 means the run
 * completed (run.py gates correctness on the JSON); 2 means bad usage.
 */
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: temp_perfbench --workload "
                 "<zoo_cold|serve_zipf|fault_storm> --seed N --seconds S "
                 "--trace 0|1 [--limit-ms MS] [--threads N] "
                 "[--trace-path FILE] [--offered-rps R]\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        if (arg == "--workload")
            config.workload = value;
        else if (arg == "--seed")
            config.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            config.seconds = std::atof(value);
        else if (arg == "--trace")
            config.trace = std::atoi(value) != 0;
        else if (arg == "--limit-ms")
            config.limit_ms = std::atof(value);
        else if (arg == "--threads")
            config.threads = std::atoi(value);
        else if (arg == "--trace-path")
            config.trace_path = value;
        else if (arg == "--offered-rps")
            config.offered_rps = std::atof(value);
        else
            return usage();
    }
    if (config.seconds <= 0.0 || config.threads < 1 || config.limit_ms <= 0 ||
        config.offered_rps < 0.0)
        return usage();

    perfbench::Tracer::instance().enable(config.trace);
    perfbench::Result result;
    if (config.workload == "zoo_cold")
        perfbench::runZooCold(config, result);
    else if (config.workload == "serve_zipf")
        perfbench::runServeZipf(config, result);
    else if (config.workload == "fault_storm")
        perfbench::runFaultStorm(config, result);
    else
        return usage();
    if (!config.trace)
        result.set("peak_rss_mb", perfbench::peakRssMb(), "MB", 1);
    result.info["compiler"] = TEMP_PERFBENCH_COMPILER;
    result.info["build_type"] = TEMP_PERFBENCH_BUILD_TYPE;
    result.info["vector_capable"] = TEMP_PERFBENCH_VECTOR;
    result.info["threads"] = std::to_string(config.threads);
    if (config.trace && !config.trace_path.empty() &&
        !perfbench::Tracer::instance().write(config.trace_path))
        result.check(false, "cannot write spans to " + config.trace_path);

    std::printf("workload %s seed %" PRIu64 " (%s run)\n",
                config.workload.c_str(), config.seed,
                config.trace ? "traced" : "untraced");
    for (const auto &[key, value] : result.info)
        std::printf("  %-28s %s\n", key.c_str(), value.c_str());
    for (const auto &[name, m] : result.metrics)
        std::printf("  %-28s %14.6g %-12s n=%-6ld %s\n", name.c_str(),
                    m.value, m.unit.c_str(), m.samples, m.clock.c_str());
    std::printf("  %-28s %ld of %ld\n", "failed", result.failed,
                result.attempted);
    std::printf("  %-28s %016" PRIx64 "\n", "plan_digest",
                result.plan_digest);
    for (const std::string &failure : result.check_failures)
        std::printf("  CHECK FAILED: %s\n", failure.c_str());

    std::string json = "{\"attempted\":" + std::to_string(result.attempted) +
                       ",\"failed\":" + std::to_string(result.failed) +
                       ",\"check_failures\":[";
    for (std::size_t i = 0; i < result.check_failures.size(); ++i)
        json += (i ? "," : "") + jsonString(result.check_failures[i]);
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, result.plan_digest);
    json += "],\"plan_digest\":\"" + std::string(digest) + "\",\"info\":{";
    bool first = true;
    for (const auto &[key, value] : result.info) {
        json += (first ? "" : ",") + jsonString(key) + ":" + jsonString(value);
        first = false;
    }
    json += "},\"metrics\":{";
    first = true;
    for (const auto &[name, m] : result.metrics) {
        char number[64];
        std::snprintf(number, sizeof number, "%.17g", m.value);
        json += (first ? "" : ",") + jsonString(name) + ":{\"value\":" +
                number + ",\"unit\":" + jsonString(m.unit) +
                ",\"samples\":" + std::to_string(m.samples) +
                ",\"clock\":" + jsonString(m.clock) + "}";
        first = false;
    }
    json += "}}";
    std::printf("PERFBENCH_RESULT %s\n", json.c_str());
    std::fflush(stdout);
    return 0;
}
