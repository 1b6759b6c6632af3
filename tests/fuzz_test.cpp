/**
 * @file
 * Bounded mutation fuzzing of the decoders of untrusted bytes: the
 * wire-request parser (api::parseRequest), the TEMPSNP snapshot decoder
 * (persist::decodeSnapshot) and the refine-checkpoint decoder
 * (solver::decodeRefineCheckpoint).
 *
 * Each decoder is fed seeded mutations of valid encodings: byte flips,
 * truncations, splices of another valid input, and inflated length or
 * number fields. Binary inputs are also resealed (their checksums
 * recomputed after the mutation) half of the time, so mutations reach
 * the structure decoders instead of stopping at the checksum. The
 * contract per input:
 *
 *  - the decoder returns false, or a value that re-encodes and decodes
 *    to itself (a valid value, not a half-parsed one);
 *  - it never crashes (the ASan+UBSan CI job runs this suite);
 *  - no single allocation it makes exceeds kAllocPerInputByte bytes per
 *    input byte plus kAllocSlack. The slack covers the request
 *    parser's documented caps (a FaultMap of up to 65,536 dies); every
 *    count a binary decoder sizes a container from is bounded by the
 *    bytes left to read.
 *
 * Fixed seed and iteration count: the suite is deterministic and takes
 * under a second in a default build.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "api/request_io.hpp"
#include "api/request_key.hpp"
#include "common/hash.hpp"
#include "model/model_zoo.hpp"
#include "persist/codec.hpp"
#include "persist/snapshot.hpp"
#include "solver/search_engine.hpp"

namespace {

/// Largest single allocation since the last reset (this thread).
thread_local std::size_t t_largest_alloc = 0;

}  // namespace

// Counting replacements of the global allocation functions: the bound
// check needs the size of every request a decoder makes.
void *
operator new(std::size_t size)
{
    t_largest_alloc = std::max(t_largest_alloc, size);
    if (void *p = std::malloc(size > 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace temp {
namespace {

constexpr std::uint64_t kSeed = 0x5eed'f022;
constexpr int kIterations = 10000;
constexpr std::size_t kAllocPerInputByte = 16;
constexpr std::size_t kAllocSlack = 1 << 20;

/// Runs fn and returns the largest single allocation it made.
template <typename Fn>
std::size_t
largestAllocationOf(Fn &&fn)
{
    t_largest_alloc = 0;
    fn();
    return t_largest_alloc;
}

/// Seeded mutator over byte strings.
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

    std::string mutate(std::string bytes, const std::vector<std::string> &pool,
                       bool text)
    {
        const int rounds = 1 + static_cast<int>(below(3));
        for (int i = 0; i < rounds && !bytes.empty(); ++i) {
            switch (below(4)) {
            case 0:  // flip bits of a few bytes
                for (std::size_t n = 1 + below(4); n > 0; --n)
                    bytes[below(bytes.size())] ^=
                        static_cast<char>(1 + below(255));
                break;
            case 1:  // truncate
                bytes.resize(below(bytes.size()));
                break;
            case 2: {  // splice a slice of another valid input in
                const std::string &other = pool[below(pool.size())];
                const std::size_t from = below(other.size());
                const std::size_t len = below(other.size() - from + 1);
                const std::size_t at = below(bytes.size() + 1);
                const std::size_t cut = below(bytes.size() - at + 1);
                bytes.replace(at, cut, other, from, len);
                break;
            }
            default:
                text ? inflateNumber(bytes) : inflateLength(bytes);
                break;
            }
        }
        return bytes;
    }

  private:
    /// Overwrites 4 or 8 bytes with a huge little-endian count.
    void inflateLength(std::string &bytes)
    {
        static constexpr std::uint64_t kHuge[] = {
            0xffffffffull, 0x7fffffffull, 0x80000000ull, 0x10000ull,
            0xffffffffffffffffull, 0x8000000000000000ull};
        const std::uint64_t value = kHuge[below(std::size(kHuge))];
        const std::size_t width = below(2) == 0 ? 4 : 8;
        if (bytes.size() < width)
            return;
        const std::size_t at = below(bytes.size() - width + 1);
        for (std::size_t i = 0; i < width; ++i)
            bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }

    /// Replaces a number lexeme with an extreme one.
    void inflateNumber(std::string &text)
    {
        static const char *const kExtreme[] = {
            "2147483648", "-2147483649", "4294967297", "1e308",
            "1e999",      "-1e999",      "65537",      "99999999999999999999",
            "-1",         "0",           "1e-320",     "18446744073709551616"};
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < text.size(); ++i)
            if ((text[i] >= '0' && text[i] <= '9') &&
                (i == 0 || !(text[i - 1] >= '0' && text[i - 1] <= '9')))
                starts.push_back(i);
        if (starts.empty())
            return;
        const std::size_t at = starts[below(starts.size())];
        std::size_t end = at;
        while (end < text.size() &&
               std::string_view("0123456789.eE+-").find(text[end]) !=
                   std::string_view::npos)
            ++end;
        text.replace(at, end - at, kExtreme[below(std::size(kExtreme))]);
    }

    std::mt19937_64 rng_;
};

void
putU64(std::string &bytes, std::size_t at, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

/**
 * Recomputes every snapshot section checksum the framing still
 * locates (header, then per block: key string and three sections of
 * tag, size, checksum, payload). Stops where the framing runs off the
 * input.
 */
void
resealSnapshot(std::string &bytes)
{
    persist::ByteReader r(bytes);
    r.skip(8 + 4 + 8);
    const std::uint32_t blocks = r.u32();
    for (std::uint32_t b = 0; b < blocks && r.ok(); ++b) {
        (void)r.str();
        for (int section = 0; section < 3 && r.ok(); ++section) {
            (void)r.u32();
            const std::uint64_t size = r.u64();
            const std::size_t checksum_at = r.pos();
            (void)r.u64();
            if (!r.ok() || size > r.remaining())
                return;
            const char *payload = r.skip(size);
            putU64(bytes, checksum_at,
                   common::fnv1a(common::kFnvOffset, payload, size));
        }
    }
}

/// Recomputes a checkpoint's body size and checksum (header: magic,
/// version, checksum, size; then the body).
void
resealCheckpoint(std::string &bytes)
{
    constexpr std::size_t kHeader = 4 + 4 + 8 + 4;
    if (bytes.size() < kHeader)
        return;
    const std::size_t size = bytes.size() - kHeader;
    putU64(bytes, 8,
           common::fnv1a(common::kFnvOffset, bytes.data() + kHeader, size));
    for (int i = 0; i < 4; ++i)
        bytes[16 + i] = static_cast<char>((size >> (8 * i)) & 0xff);
}

std::vector<std::string>
validRequests()
{
    api::OptimizeRequest optimize;
    optimize.model = model::modelByName("GPT-3 6.7B");
    optimize.options.solver.ga_population = 8;
    optimize.options.solver.seed = 18446744073709551615ull;

    api::StrategyRequest strategy;
    strategy.model = model::modelByName("Llama2 7B");
    strategy.spec.dp = 2;
    strategy.spec.tp = 4;
    strategy.spec.tatp = 2;

    api::FaultRequest faults;
    faults.model = model::modelByName("GPT-3 6.7B");
    hw::FaultMap map(32, 0);
    map.failLink(3);
    map.setCoreFaultFraction(2, 0.25);
    faults.faults = map;

    api::MultiWaferRequest pod;
    pod.model = model::modelByName("GPT-3 6.7B");
    pod.pod.wafer_count = 4;
    pod.pp = 4;
    pod.microbatches = 16;

    api::ScenarioRequest scenario;
    scenario.model = model::modelByName("GPT-3 6.7B");
    scenario::Event storm;
    storm.kind = scenario::Event::Kind::SetFaults;
    storm.link_fault_rate = 0.05;
    storm.fault_seed = 7;
    storm.kill_dies = {3, 17};
    scenario::Event swap;
    swap.kind = scenario::Event::Kind::ModelSwitch;
    swap.at_s = 2.5;
    swap.model = model::modelByName("Llama2 7B");
    scenario.events = {storm, swap, scenario::Event{}};

    return {api::toJson(optimize, "team-a"), api::toJson(strategy),
            api::toJson(faults, "ops"), api::toJson(pod),
            api::toJson(api::CacheStatsRequest{}, "observer"),
            api::toJson(scenario)};
}

std::vector<std::string>
validSnapshots()
{
    persist::MemoBlock block;
    block.framework_key = "wafer{4x8}|opts{fuzz}";
    cost::OpCostBreakdown breakdown;
    breakdown.fwd_time = 1.5;
    breakdown.schedule_lowerings = 3;
    block.breakdowns.emplace_back("eval-key-1", breakdown);
    breakdown.feasible = false;
    block.breakdowns.emplace_back("eval-key-2", breakdown);
    sim::PerfReport report;
    report.step_time = 0.125;
    report.grad_accum = 4;
    report.strategy_desc = "(dp=8,tp=1,sp=1,tatp=4)";
    block.step_reports.emplace_back("step-key-1", report);
    report.oom = true;
    report.feasible = false;
    block.step_reports.emplace_back("step-key-2", report);

    persist::Snapshot one;
    one.blocks.push_back(block);
    persist::Snapshot two = one;
    block.framework_key = "wafer{8x8}|opts{fuzz}";
    block.breakdowns.clear();
    two.blocks.push_back(block);
    return {persist::encodeSnapshot(one), persist::encodeSnapshot(two),
            persist::encodeSnapshot(persist::Snapshot{})};
}

std::vector<std::string>
validCheckpoints()
{
    solver::RefineCheckpoint ga;
    ga.engine = "genetic";
    ga.steps_done = 3;
    ga.fitness_queries = 41;
    ga.best = {0, 2, 1, 4, 3};
    ga.best_fitness = 0.279;
    ga.population = {{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {1, 1, 1, 1, 1}};
    ga.scores = {0.3, 0.31, 0.5};
    ga.rng_state = "5489 12 77 901";

    solver::RefineCheckpoint annealing;
    annealing.engine = "annealing";
    annealing.best = {2, 2, 0};
    annealing.current = {2, 1, 0};
    annealing.current_fitness = 0.4;
    annealing.temperature = 0.05;
    annealing.rng_state = "1 2 3";
    return {solver::encodeRefineCheckpoint(ga),
            solver::encodeRefineCheckpoint(annealing)};
}

void
expectBoundedAllocation(std::size_t largest, const std::string &input)
{
    EXPECT_LE(largest, kAllocPerInputByte * input.size() + kAllocSlack)
        << "input of " << input.size() << " bytes";
}

TEST(Fuzz, ParseRequestSurvivesMutations)
{
    const std::vector<std::string> pool = validRequests();
    Mutator mutator(kSeed);
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string input =
            mutator.mutate(pool[i % pool.size()], pool, true);
        api::ParsedRequest parsed;
        std::string error;
        bool ok = false;
        expectBoundedAllocation(largestAllocationOf([&] {
                                    ok = api::parseRequest(input, &parsed,
                                                           &error);
                                }),
                                input);
        if (!ok) {
            EXPECT_FALSE(error.empty()) << input;
            continue;
        }
        ++accepted;
        // A valid value: it renders back to a document that parses to
        // the same request.
        const std::string wire = api::toJson(parsed.request, parsed.tenant);
        api::ParsedRequest again;
        ASSERT_TRUE(api::parseRequest(wire, &again, &error))
            << error << "\nfrom input: " << input;
        EXPECT_EQ(api::requestKey(again.request),
                  api::requestKey(parsed.request));
        EXPECT_EQ(api::toJson(again.request, again.tenant), wire);
    }
    // Some mutations keep the document valid (flips inside strings or
    // numbers), so both outcomes are exercised.
    RecordProperty("accepted", accepted);
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kIterations);
}

TEST(Fuzz, DecodeSnapshotSurvivesMutations)
{
    const std::vector<std::string> pool = validSnapshots();
    Mutator mutator(kSeed + 1);
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        std::string input =
            mutator.mutate(pool[i % pool.size()], pool, false);
        if (mutator.below(2) == 0)
            resealSnapshot(input);
        persist::Snapshot decoded;
        std::string error;
        bool ok = false;
        expectBoundedAllocation(largestAllocationOf([&] {
                                    ok = persist::decodeSnapshot(
                                        input, &decoded, &error);
                                }),
                                input);
        if (!ok) {
            EXPECT_TRUE(decoded.blocks.empty());
            EXPECT_FALSE(error.empty());
            continue;
        }
        ++accepted;
        const std::string bytes = persist::encodeSnapshot(decoded);
        persist::Snapshot again;
        ASSERT_TRUE(persist::decodeSnapshot(bytes, &again, &error))
            << error;
        EXPECT_EQ(persist::encodeSnapshot(again), bytes);
    }
    RecordProperty("accepted", accepted);
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kIterations);
}

TEST(Fuzz, DecodeRefineCheckpointSurvivesMutations)
{
    const std::vector<std::string> pool = validCheckpoints();
    Mutator mutator(kSeed + 2);
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        std::string input =
            mutator.mutate(pool[i % pool.size()], pool, false);
        if (mutator.below(2) == 0)
            resealCheckpoint(input);
        solver::RefineCheckpoint decoded;
        std::string error;
        bool ok = false;
        expectBoundedAllocation(largestAllocationOf([&] {
                                    ok = solver::decodeRefineCheckpoint(
                                        input, &decoded, &error);
                                }),
                                input);
        if (!ok) {
            EXPECT_TRUE(decoded.engine.empty());
            EXPECT_TRUE(decoded.population.empty());
            EXPECT_FALSE(error.empty());
            continue;
        }
        ++accepted;
        EXPECT_EQ(decoded.population.size(), decoded.scores.size());
        const std::string bytes = solver::encodeRefineCheckpoint(decoded);
        solver::RefineCheckpoint again;
        ASSERT_TRUE(solver::decodeRefineCheckpoint(bytes, &again, &error))
            << error;
        EXPECT_EQ(solver::encodeRefineCheckpoint(again), bytes);
    }
    RecordProperty("accepted", accepted);
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kIterations);
}

}  // namespace
}  // namespace temp
