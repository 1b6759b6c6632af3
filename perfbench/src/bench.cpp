#include "bench.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double
Samples::quantile(double q) const
{
    if (values.empty())
        return 0.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void
ClientLog::add(const ClientLog &log)
{
    attempted += log.attempted;
    failed += log.failed;
    failures.insert(failures.end(), log.failures.begin(), log.failures.end());
    latency_ms.values.insert(latency_ms.values.end(),
                             log.latency_ms.values.begin(),
                             log.latency_ms.values.end());
    within_limit += log.within_limit;
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

long
Tracer::open(const char *name)
{
    Record &record = records_.emplace_back();
    record.name = name;
    record.id = static_cast<long>(records_.size());
    record.parent = stack_.empty() ? 0 : stack_.back();
    record.request = request_;
    stack_.push_back(record.id);
    // Read the clock last so the bookkeeping stays outside the span.
    record.start_s = now();
    return record.id;
}

double
Tracer::close(long id)
{
    const double end_s = now();
    Record &record = records_[static_cast<std::size_t>(id - 1)];
    record.end_s = end_s;
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
    return end_s - record.start_s;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const double origin = records_.empty() ? 0.0 : records_[0].start_s;
    for (const Record &r : records_)
        std::fprintf(out,
                     "{\"name\":\"%s\",\"id\":%ld,\"parent\":%ld,"
                     "\"request\":%ld,\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                     r.name.c_str(), r.id, r.parent, r.request,
                     (r.start_s - origin) * 1e6,
                     (r.end_s - r.start_s) * 1e6);
    return std::fclose(out) == 0;
}

std::uint64_t
fnv1a(std::uint64_t hash, const std::string &bytes)
{
    for (unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 1099511628211ull;
    }
    return hash;
}

std::uint64_t
foldPlan(std::uint64_t hash,
         const std::vector<temp::parallel::ParallelSpec> &specs,
         double step_time_s)
{
    for (const temp::parallel::ParallelSpec &spec : specs)
        hash = fnv1a(hash, spec.str() + ";");
    std::string bits(sizeof step_time_s, '\0');
    std::memcpy(bits.data(), &step_time_s, sizeof step_time_s);
    return fnv1a(hash, bits);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

temp::core::FrameworkOptions
solveOptions(std::uint64_t solver_seed, int eval_threads)
{
    temp::core::FrameworkOptions options;
    options.solver.engine = temp::solver::SearchEngineKind::Genetic;
    options.solver.seed = solver_seed;
    options.eval_threads = eval_threads;
    return options;
}

temp::api::ServiceOptions
inlineService()
{
    temp::api::ServiceOptions options;
    options.request_threads = 1;
    return options;
}

void
reportNoServeLayer(Result &result)
{
    result.set("serve.queue_wait_ms_p50", 0.0, "ms", 0);
    result.set("serve.queue_wait_ms_p99", 0.0, "ms", 0);
    result.set("serve.coalesce_ratio", 0.0, "ratio", 0, "count");
    result.set("serve.executed", 0.0, "count", 0, "count");
    result.set("serve.shed", 0.0, "count", 0, "count");
}

void
reportNoScenarioLayer(Result &result)
{
    result.set("core.degraded_context_builds", 0.0, "count", 0, "count");
    result.set("scenario.recovery_step_sims", 0.0, "count", 0, "count");
    result.set("scenario.context_reuse_ratio", 0.0, "ratio", 0, "count");
    result.set("scenario.fallback_events", 0.0, "count", 0, "count");
}

}  // namespace perfbench
