/**
 * @file
 * Tests for the persistent memo tier (src/persist): the snapshot byte
 * format's validation contract (truncation, bit flips, version and
 * contract-fingerprint mismatches all cold-start, never corrupt), and
 * the TempService warm-start path — a snapshot-warmed fresh service
 * answers a repeat request with zero new matrix measurements and
 * bit-identical results, including under finite byte budgets.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/request_key.hpp"
#include "api/service.hpp"
#include "persist/codec.hpp"
#include "persist/snapshot.hpp"

namespace temp::persist {
namespace {

/// A fast solver configuration for test-sized searches.
core::FrameworkOptions
fastOptions()
{
    core::FrameworkOptions options;
    options.solver.ga_population = 8;
    options.solver.ga_generations = 4;
    options.eval_threads = 2;
    return options;
}

api::OptimizeRequest
testRequest()
{
    return {model::modelByName("GPT-3 6.7B"),
            hw::WaferConfig::paperDefault(), fastOptions()};
}

/// A unique path under the gtest temp dir; removed on destruction.
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + "persist_test_" + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/// A small synthetic snapshot exercising every section kind.
Snapshot
syntheticSnapshot()
{
    MemoBlock block;
    block.framework_key = "wafer{4x8}|opts{test}";

    cost::OpCostBreakdown breakdown;
    breakdown.fwd_time = 1.5;
    breakdown.bwd_time = 3.0;
    breakdown.step_comm_time = 0.25;
    block.breakdowns.emplace_back("eval-key-1", breakdown);
    breakdown.feasible = false;
    block.breakdowns.emplace_back("eval-key-2", breakdown);

    sim::PerfReport report;
    report.step_time = 0.125;
    report.oom = true;
    report.grad_accum = 4;
    report.strategy_desc = "(dp=8,tp=1,sp=1,tatp=4)";
    block.step_reports.emplace_back("step-key-1", report);

    Snapshot snapshot;
    snapshot.blocks.push_back(std::move(block));
    return snapshot;
}

TEST(SnapshotCodec, EncodeDecodeRoundTripsByteStable)
{
    const Snapshot snapshot = syntheticSnapshot();
    const std::string bytes = encodeSnapshot(snapshot);

    Snapshot decoded;
    std::string error;
    ASSERT_TRUE(decodeSnapshot(bytes, &decoded, &error)) << error;
    ASSERT_EQ(decoded.blocks.size(), 1u);
    const MemoBlock &block = decoded.blocks[0];
    EXPECT_EQ(block.framework_key, snapshot.blocks[0].framework_key);
    ASSERT_EQ(block.breakdowns.size(), 2u);
    EXPECT_EQ(block.breakdowns[0].first, "eval-key-1");
    EXPECT_DOUBLE_EQ(block.breakdowns[0].second.bwd_time, 3.0);
    EXPECT_FALSE(block.breakdowns[1].second.feasible);
    ASSERT_EQ(block.step_reports.size(), 1u);
    EXPECT_TRUE(block.step_reports[0].second.oom);
    EXPECT_EQ(block.step_reports[0].second.grad_accum, 4);
    EXPECT_EQ(block.step_reports[0].second.strategy_desc,
              "(dp=8,tp=1,sp=1,tatp=4)");

    // Decode then re-encode is the identity on the byte image: the
    // format has one canonical serialization.
    EXPECT_EQ(encodeSnapshot(decoded), bytes);
}

TEST(SnapshotCodec, EveryHeaderFieldIsValidated)
{
    const std::string bytes = encodeSnapshot(syntheticSnapshot());

    struct Case
    {
        const char *what;
        std::size_t offset;
    };
    // Layout: magic [0,8), version [8,12), fingerprint [12,20).
    for (const Case c : {Case{"magic", 0}, Case{"version", 8},
                         Case{"fingerprint", 12}}) {
        std::string corrupt = bytes;
        corrupt[c.offset] = static_cast<char>(corrupt[c.offset] ^ 0x01);
        Snapshot out;
        std::string error;
        EXPECT_FALSE(decodeSnapshot(corrupt, &out, &error))
            << c.what << " flip was accepted";
        EXPECT_FALSE(error.empty()) << c.what;
        EXPECT_TRUE(out.blocks.empty()) << c.what;
    }
}

TEST(SnapshotCodec, PayloadBitFlipsFailTheChecksum)
{
    const std::string bytes = encodeSnapshot(syntheticSnapshot());
    // Flip one bit in each quarter of the body past the header: every
    // section is covered by its FNV checksum (or the structural
    // bounds checks around it).
    for (const std::size_t at :
         {std::size_t{24}, bytes.size() / 2, (3 * bytes.size()) / 4,
          bytes.size() - 1}) {
        std::string corrupt = bytes;
        corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
        Snapshot out;
        std::string error;
        EXPECT_FALSE(decodeSnapshot(corrupt, &out, &error))
            << "flip at " << at << " was accepted";
        EXPECT_TRUE(out.blocks.empty());
    }
}

TEST(SnapshotCodec, TruncationAtAnyPrefixIsRejected)
{
    const std::string bytes = encodeSnapshot(syntheticSnapshot());
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{12},
          std::size_t{21}, bytes.size() / 2, bytes.size() - 1}) {
        Snapshot out;
        std::string error;
        EXPECT_FALSE(
            decodeSnapshot(bytes.substr(0, keep), &out, &error))
            << "prefix of " << keep << " bytes was accepted";
        EXPECT_TRUE(out.blocks.empty());
    }
    // Trailing garbage is no better than missing bytes.
    Snapshot out;
    std::string error;
    EXPECT_FALSE(decodeSnapshot(bytes + "x", &out, &error));
}

TEST(SnapshotFile, SaveLoadRoundTripsAndMissingFileFailsCleanly)
{
    TempFile file("roundtrip.snap");
    const Snapshot snapshot = syntheticSnapshot();
    std::string error;
    ASSERT_TRUE(saveSnapshotFile(file.path(), snapshot, &error))
        << error;

    Snapshot loaded;
    ASSERT_TRUE(loadSnapshotFile(file.path(), &loaded, &error))
        << error;
    EXPECT_EQ(encodeSnapshot(loaded), encodeSnapshot(snapshot));

    Snapshot missing;
    EXPECT_FALSE(loadSnapshotFile(file.path() + ".nope", &missing,
                                  &error));
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------
// TempService warm start
// ---------------------------------------------------------------

TEST(ServiceWarmStart, SnapshotServesRepeatWorkWithZeroMeasurements)
{
    TempFile file("warm.snap");
    const api::OptimizeRequest request = testRequest();

    // Cold process: solve, then persist the memo stack.
    api::Response cold;
    {
        api::TempService service;
        cold = service.run(request);
        ASSERT_TRUE(cold.ok) << cold.error;
        EXPECT_GT(cold.solver.matrix_measurements, 0);
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
        EXPECT_EQ(service.persistStats().saves, 1);
    }

    // Fresh process: warm-start, then the same request re-measures
    // nothing and re-simulates nothing — and answers identically.
    api::TempService warmed;
    std::string error;
    ASSERT_TRUE(warmed.warmStart(file.path(), &error)) << error;
    const api::TempService::PersistStats staged = warmed.persistStats();
    EXPECT_EQ(staged.loads, 1);
    EXPECT_EQ(staged.blocks_staged, 1);
    EXPECT_EQ(staged.frameworks_warmed, 0);  // consumed lazily

    const api::Response warm = warmed.run(request);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.solver.matrix_measurements, 0);
    EXPECT_EQ(warm.solver.step_sims, 0);
    EXPECT_GT(warm.solver.cache_hits, 0);
    EXPECT_EQ(warmed.persistStats().frameworks_warmed, 1);

    EXPECT_EQ(warm.solver.per_op_specs, cold.solver.per_op_specs);
    EXPECT_DOUBLE_EQ(warm.solver.step_time_s, cold.solver.step_time_s);
    EXPECT_EQ(warm.solver.evaluations, cold.solver.evaluations);
}

TEST(ServiceWarmStart, ByteBudgetedCachesStayBitIdentical)
{
    TempFile file("budgeted.snap");
    api::OptimizeRequest request = testRequest();
    // Finite byte budgets on every layer: residency shrinks, results
    // must not move (evicted entries recompute bit-identically).
    request.options.cache.max_eval_bytes = 256 << 10;
    request.options.cache.max_step_bytes = 128 << 10;
    request.options.cache.max_layout_bytes = 256 << 10;
    request.options.cache.max_schedule_bytes = 256 << 10;
    request.options.cache.max_route_bytes = 1 << 20;

    api::OptimizeRequest unbounded = testRequest();

    api::Response cold_unbounded;
    api::Response cold;
    {
        api::TempService service;
        cold_unbounded = service.run(unbounded);
        cold = service.run(request);
        ASSERT_TRUE(cold.ok) << cold.error;
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
    }
    // Budgets changed residency, not answers.
    EXPECT_EQ(cold.solver.per_op_specs,
              cold_unbounded.solver.per_op_specs);
    EXPECT_DOUBLE_EQ(cold.solver.step_time_s,
                     cold_unbounded.solver.step_time_s);

    api::TempService warmed;
    std::string error;
    ASSERT_TRUE(warmed.warmStart(file.path(), &error)) << error;
    const api::Response warm = warmed.run(request);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.solver.per_op_specs, cold.solver.per_op_specs);
    EXPECT_DOUBLE_EQ(warm.solver.step_time_s, cold.solver.step_time_s);
}

TEST(ServiceWarmStart, CorruptSnapshotColdStartsAndCounts)
{
    TempFile file("corrupt.snap");
    const api::OptimizeRequest request = testRequest();
    {
        api::TempService service;
        ASSERT_TRUE(service.run(request).ok);
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
    }
    // Damage the file on disk.
    {
        Snapshot loaded;
        std::string error;
        ASSERT_TRUE(loadSnapshotFile(file.path(), &loaded, &error));
        std::string bytes = encodeSnapshot(loaded);
        bytes[bytes.size() / 2] =
            static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
        std::FILE *f = std::fopen(file.path().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    }

    api::TempService service;
    std::string error;
    EXPECT_FALSE(service.warmStart(file.path(), &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(service.persistStats().load_failures, 1);
    EXPECT_EQ(service.persistStats().blocks_staged, 0);

    // The service still works — a failed load is a cold start, not a
    // failure mode.
    const api::Response response = service.run(request);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_GT(response.solver.matrix_measurements, 0);
}

TEST(ServiceWarmStart, DifferentWaferSnapshotStaysPending)
{
    TempFile file("other_wafer.snap");
    const api::OptimizeRequest request = testRequest();
    {
        api::TempService service;
        ASSERT_TRUE(service.run(request).ok);
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
    }

    // A 4x4 wafer never matches the snapshot's 4x8 framework key: the
    // block stages harmlessly and the solve is an honest cold start.
    api::OptimizeRequest other = testRequest();
    other.wafer = hw::WaferConfig::paperDefault().withGrid(4, 4);

    api::TempService service;
    std::string error;
    ASSERT_TRUE(service.warmStart(file.path(), &error)) << error;
    EXPECT_EQ(service.persistStats().blocks_staged, 1);

    const api::Response response = service.run(other);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_GT(response.solver.matrix_measurements, 0);
    EXPECT_EQ(service.persistStats().frameworks_warmed, 0);

    // A save from this process carries the still-pending foreign block
    // alongside the newly warmed one — no data is silently dropped.
    TempFile carried("carried.snap");
    ASSERT_TRUE(service.saveSnapshot(carried.path(), &error)) << error;
    Snapshot resaved;
    ASSERT_TRUE(loadSnapshotFile(carried.path(), &resaved, &error))
        << error;
    EXPECT_EQ(resaved.blocks.size(), 2u);
}

TEST(ServiceWarmStart, ConcurrentConsumptionAndSaveAreSafe)
{
    TempFile file("concurrent.snap");
    const api::OptimizeRequest request = testRequest();
    {
        api::TempService service;
        ASSERT_TRUE(service.run(request).ok);
        std::string error;
        ASSERT_TRUE(service.saveSnapshot(file.path(), &error)) << error;
    }

    api::TempService service;
    std::string error;
    ASSERT_TRUE(service.warmStart(file.path(), &error)) << error;

    // Racing identical requests consume the one staged block exactly
    // once while a saver exports mid-flight (TSan watches the
    // pending-block handoff); every answer must still be warm-served.
    TempFile resaved("concurrent_resave.snap");
    std::atomic<int> ok{0};
    std::atomic<long> measured{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i)
        threads.emplace_back([&] {
            const api::Response response = service.run(request);
            if (response.ok)
                ++ok;
            measured += response.solver.matrix_measurements;
        });
    std::thread saver([&] {
        std::string save_error;
        service.saveSnapshot(resaved.path(), &save_error);
    });
    for (std::thread &thread : threads)
        thread.join();
    saver.join();

    EXPECT_EQ(ok.load(), 4);
    EXPECT_EQ(measured.load(), 0);  // all four rode the warm memos
    EXPECT_EQ(service.persistStats().frameworks_warmed, 1);
}

}  // namespace
}  // namespace temp::persist
