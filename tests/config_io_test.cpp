/**
 * @file
 * Tests for the plain-text configuration loader (custom wafers and
 * models without recompiling).
 */
#include <gtest/gtest.h>

#include "core/config_io.hpp"

namespace temp::core {
namespace {

TEST(ConfigParse, KeyValueAndComments)
{
    const ConfigMap config = parseConfigText(
        "# a comment\n"
        "rows = 6   # trailing comment\n"
        "\n"
        "cols=9\n"
        "  peak_tflops =  900  \n");
    EXPECT_EQ(config.size(), 3u);
    EXPECT_EQ(config.at("rows"), "6");
    EXPECT_EQ(config.at("cols"), "9");
    EXPECT_EQ(config.at("peak_tflops"), "900");
}

TEST(ConfigParse, EmptyTextIsEmptyMap)
{
    EXPECT_TRUE(parseConfigText("").empty());
    EXPECT_TRUE(parseConfigText("# only comments\n\n").empty());
}

TEST(WaferConfig, DefaultsWhenEmpty)
{
    const hw::WaferConfig wafer = waferFromConfig({});
    const hw::WaferConfig ref = hw::WaferConfig::paperDefault();
    EXPECT_EQ(wafer.rows, ref.rows);
    EXPECT_DOUBLE_EQ(wafer.die.peak_flops, ref.die.peak_flops);
    EXPECT_DOUBLE_EQ(wafer.hbm.capacity_bytes, ref.hbm.capacity_bytes);
}

TEST(WaferConfig, OverridesApply)
{
    const ConfigMap config = parseConfigText(
        "rows = 6\ncols = 9\npeak_tflops = 900\nd2d_tbps = 2\n"
        "hbm_stacks = 3\nhbm_gb_per_stack = 48\n");
    const hw::WaferConfig wafer = waferFromConfig(config);
    EXPECT_EQ(wafer.dieCount(), 54);
    EXPECT_DOUBLE_EQ(wafer.die.peak_flops, 900e12);
    EXPECT_DOUBLE_EQ(wafer.d2d.bandwidth_bytes_per_s, 2e12);
    EXPECT_DOUBLE_EQ(wafer.hbm.capacity_bytes, 3 * 48e9);
    EXPECT_DOUBLE_EQ(wafer.hbm.bandwidth_bytes_per_s, 3e12);
}

TEST(ModelConfig, FromScratch)
{
    const ConfigMap config = parseConfigText(
        "name = MyNet 1B\nheads = 16\nhidden = 2048\nlayers = 24\n"
        "seq = 4096\nbatch = 64\n");
    const model::ModelConfig model = modelFromConfig(config);
    EXPECT_EQ(model.name, "MyNet 1B");
    EXPECT_EQ(model.headDim(), 128);
    EXPECT_EQ(model.layers, 24);
    EXPECT_GT(model.paramCount(), 1e9);
}

TEST(ModelConfig, BaseModelOverride)
{
    const ConfigMap config =
        parseConfigText("base = Llama2 7B\nseq = 16384\nbatch = 32\n");
    const model::ModelConfig model = modelFromConfig(config);
    EXPECT_EQ(model.hidden, 4096);  // inherited
    EXPECT_EQ(model.seq, 16384);    // overridden
    EXPECT_EQ(model.batch, 32);
}

TEST(FrameworkOptionsConfig, DefaultsWhenEmpty)
{
    const FrameworkOptions options = frameworkOptionsFromConfig({});
    EXPECT_EQ(options.policy.kind, tcme::MappingEngineKind::TCME);
    EXPECT_EQ(options.solver.engine, solver::SearchEngineKind::Genetic);
    EXPECT_EQ(options.eval_threads, 0);
}

TEST(FrameworkOptionsConfig, SolverTrainingAndPolicyKeysApply)
{
    const ConfigMap config = parseConfigText(
        "policy = gmap\n"
        "eval_threads = 3\n"
        "training.flash_attention = false\n"
        "training.optimizer_bytes_per_param = 16\n"
        "solver.engine = none\n"
        "solver.ga_population = 24\n"
        "solver.ga_mutation_rate = 0.5\n"
        "solver.seed = 7\n"
        "solver.use_surrogate = true\n"
        "solver.surrogate_sample_fraction = 0.2\n"
        "solver.space.allow_sp = false\n"
        "solver.space.max_tp = 8\n"
        "solver.space.full_occupancy = 0\n");
    const FrameworkOptions options = frameworkOptionsFromConfig(config);
    EXPECT_EQ(options.policy.kind, tcme::MappingEngineKind::GMap);
    EXPECT_EQ(options.eval_threads, 3);
    EXPECT_FALSE(options.training.flash_attention);
    EXPECT_DOUBLE_EQ(options.training.optimizer_bytes_per_param, 16.0);
    EXPECT_EQ(options.solver.engine, solver::SearchEngineKind::NoRefine);
    EXPECT_EQ(options.solver.ga_population, 24);
    EXPECT_DOUBLE_EQ(options.solver.ga_mutation_rate, 0.5);
    EXPECT_EQ(options.solver.seed, 7u);
    EXPECT_TRUE(options.solver.use_surrogate);
    EXPECT_DOUBLE_EQ(options.solver.surrogate_sample_fraction, 0.2);
    EXPECT_FALSE(options.solver.space.allow_sp);
    EXPECT_EQ(options.solver.space.max_tp, 8);
    EXPECT_FALSE(options.solver.space.full_occupancy);
    // Untouched keys keep their defaults.
    EXPECT_TRUE(options.solver.space.allow_tatp);
    EXPECT_TRUE(options.training.zero1_optimizer);
}

TEST(FrameworkOptionsConfig, SearchEngineAndAnnealingKeysApply)
{
    const FrameworkOptions defaults = frameworkOptionsFromConfig({});
    EXPECT_EQ(defaults.solver.engine, solver::SearchEngineKind::Genetic);

    const ConfigMap config = parseConfigText(
        "solver.engine = annealing\n"
        "solver.annealing.iterations = 12\n"
        "solver.annealing.proposals = 4\n"
        "solver.annealing.initial_temp = 0.5\n"
        "solver.annealing.cooling = 0.8\n");
    const FrameworkOptions options = frameworkOptionsFromConfig(config);
    EXPECT_EQ(options.solver.engine,
              solver::SearchEngineKind::Annealing);
    EXPECT_EQ(options.solver.annealing.iterations, 12);
    EXPECT_EQ(options.solver.annealing.proposals, 4);
    EXPECT_DOUBLE_EQ(options.solver.annealing.initial_temp, 0.5);
    EXPECT_DOUBLE_EQ(options.solver.annealing.cooling, 0.8);

    // Canonical names and aliases round-trip through the parser.
    EXPECT_EQ(frameworkOptionsFromConfig(
                  parseConfigText("solver.engine = none\n"))
                  .solver.engine,
              solver::SearchEngineKind::NoRefine);
    EXPECT_EQ(frameworkOptionsFromConfig(
                  parseConfigText("solver.engine = ga\n"))
                  .solver.engine,
              solver::SearchEngineKind::Genetic);
    EXPECT_STREQ(
        solver::searchEngineName(options.solver.engine), "annealing");
}

TEST(FrameworkOptionsConfig, RemovedKnobsAreRejected)
{
    // Neither the enable_ga switch nor the exact engine exists: naming
    // one is an error, never a silent default.
    try {
        frameworkOptionsFromConfigOrThrow(
            parseConfigText("solver.enable_ga = 0\n"));
        FAIL() << "solver.enable_ga accepted";
    } catch (const ConfigError &error) {
        EXPECT_NE(std::string(error.what()).find("unknown options key"),
                  std::string::npos);
    }
    try {
        frameworkOptionsFromConfigOrThrow(
            parseConfigText("solver.engine = exact\n"));
        FAIL() << "solver.engine = exact accepted";
    } catch (const ConfigError &error) {
        EXPECT_NE(std::string(error.what()).find("unknown search engine"),
                  std::string::npos);
    }
}

TEST(FrameworkOptionsConfig, NumericValuesAreValidatedNotCast)
{
    // Casting these from double would be undefined (out of range) or
    // would hand the solver a value it cannot run with (an empty GA
    // population aborts the process).
    const char *rejected[][2] = {
        {"solver.ga_population", "0"},
        {"solver.ga_population", "-3"},
        {"solver.ga_population", "3e9"},
        {"solver.ga_population", "1e300"},
        {"solver.ga_population", "2.5"},
        {"solver.ga_generations", "1e300"},
        {"solver.annealing.proposals", "-1"},
        {"solver.space.max_tp", "-1e300"},
        {"eval_threads", "nan"},
        {"serve.deadline_ms", "-5"},
        {"serve.deadline_ms", "3e9"},
        {"eval.cache.max_entries", "-1"},
        {"eval.cache.max_entries", "1.5"},
        {"eval.cache.max_entries", "1e300"},
        {"solver.deadline.quanta", "inf"},
    };
    for (const auto &[key, value] : rejected) {
        const ConfigMap config{{key, value}};
        EXPECT_THROW(frameworkOptionsFromConfigOrThrow(config),
                     ConfigError)
            << key << " = " << value;
    }
    // The boundaries themselves are accepted.
    const FrameworkOptions options = frameworkOptionsFromConfigOrThrow(
        {{"solver.ga_population", "1"},
         {"solver.annealing.proposals", "0"},
         {"solver.space.max_tp", "2147483647"},
         {"serve.deadline_ms", "0"},
         {"eval.cache.max_entries", "4e3"}});
    EXPECT_EQ(options.solver.ga_population, 1);
    EXPECT_EQ(options.solver.annealing.proposals, 0);
    EXPECT_EQ(options.solver.space.max_tp, 2147483647);
    EXPECT_EQ(options.serve.deadline_ms, 0);
    EXPECT_EQ(options.cache.max_eval_entries, 4000);
}

TEST(WaferAndModelConfig, IntKeysAreValidatedNotCast)
{
    // Grid sizes, HBM stacks and model dimensions are counts: a value
    // that is not a whole number in [1, INT_MAX] is an error with a
    // message, never a cast.
    for (const char *value : {"1e12", "-3", "2.5", "nan"}) {
        for (const char *key : {"rows", "cols", "hbm_stacks"}) {
            try {
                waferFromConfigOrThrow({{key, value}});
                ADD_FAILURE() << key << " = " << value << " accepted";
            } catch (const ConfigError &error) {
                EXPECT_NE(std::string(error.what()).find(key),
                          std::string::npos)
                    << error.what();
            }
        }
        for (const char *key : {"heads", "batch", "hidden", "layers",
                                "seq", "ffn_mult", "vocab"}) {
            try {
                modelFromConfigOrThrow(
                    {{"base", "GPT-3 6.7B"}, {key, value}});
                ADD_FAILURE() << key << " = " << value << " accepted";
            } catch (const ConfigError &error) {
                EXPECT_NE(std::string(error.what()).find(key),
                          std::string::npos)
                    << error.what();
            }
        }
    }
    // Whole numbers in range still parse, in any notation.
    const hw::WaferConfig wafer =
        waferFromConfigOrThrow({{"rows", "8"}, {"hbm_stacks", "2e0"}});
    EXPECT_EQ(wafer.rows, 8);
    EXPECT_EQ(wafer.hbm.stacks_per_die, 2);
    EXPECT_EQ(modelFromConfigOrThrow({{"base", "GPT-3 6.7B"},
                                      {"layers", "48"}})
                  .layers,
              48);
}

TEST(ConfigFileDetection, DotConfSuffixOnly)
{
    EXPECT_TRUE(isConfigFile("wafer.conf"));
    EXPECT_TRUE(isConfigFile("path/to/model.conf"));
    EXPECT_FALSE(isConfigFile("GPT-3 6.7B"));
    EXPECT_FALSE(isConfigFile(".conf"));
    EXPECT_FALSE(isConfigFile("conf"));
}

using ConfigDeath = ::testing::Test;

TEST(ConfigDeath, RejectsUnknownWaferKey)
{
    EXPECT_EXIT(waferFromConfig(parseConfigText("bogus = 1\n")),
                ::testing::ExitedWithCode(1), "unknown wafer key");
}

TEST(ConfigDeath, RejectsMalformedLine)
{
    EXPECT_EXIT(parseConfigText("no equals sign here\n"),
                ::testing::ExitedWithCode(1), "expected");
}

TEST(ConfigDeath, RejectsNonNumericValue)
{
    EXPECT_EXIT(waferFromConfig(parseConfigText("rows = many\n")),
                ::testing::ExitedWithCode(1), "non-numeric");
}

TEST(ConfigDeath, ModelNeedsNameOrBase)
{
    EXPECT_EXIT(modelFromConfig(parseConfigText("heads = 8\n")),
                ::testing::ExitedWithCode(1), "name");
}

TEST(ConfigDeath, HiddenMustDivideByHeads)
{
    EXPECT_EXIT(
        modelFromConfig(parseConfigText(
            "name = X\nheads = 7\nhidden = 100\n")),
        ::testing::ExitedWithCode(1), "divide");
}

TEST(ConfigDeath, RejectsUnknownOptionsKey)
{
    EXPECT_EXIT(
        frameworkOptionsFromConfig(parseConfigText("solver.bogus = 1\n")),
        ::testing::ExitedWithCode(1), "unknown options key");
}

TEST(ConfigDeath, RejectsNonBooleanAndUnknownEngine)
{
    EXPECT_EXIT(frameworkOptionsFromConfig(
                    parseConfigText("solver.use_surrogate = maybe\n")),
                ::testing::ExitedWithCode(1), "non-boolean");
    EXPECT_EXIT(
        frameworkOptionsFromConfig(parseConfigText("policy = alpa\n")),
        ::testing::ExitedWithCode(1), "unknown engine");
    EXPECT_EXIT(frameworkOptionsFromConfig(
                    parseConfigText("solver.engine = tabu\n")),
                ::testing::ExitedWithCode(1), "unknown search engine");
}

}  // namespace
}  // namespace temp::core
