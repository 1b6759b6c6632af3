/**
 * @file
 * Table-driven coverage of core/option_table: every FrameworkOptions
 * row keeps the promises its role makes. Identity rows are part of the
 * request key, service and local rows are not, every wire row
 * round-trips config -> wire -> config, and local rows never reach the
 * wire. A new row is covered the moment it is added.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "api/request_io.hpp"
#include "api/request_key.hpp"
#include "common/json.hpp"
#include "core/config_io.hpp"
#include "core/option_table.hpp"
#include "model/model_zoo.hpp"

namespace temp::core {
namespace {

/// Moves the row's member to a different value its parser accepts.
void
perturb(const OptionRow &row, FrameworkOptions &options)
{
    std::visit(
        Overloaded{
            [](bool *v) { *v = !*v; },
            [](int *v) { *v += 1; },
            [](long *v) { *v += 1; },
            [](std::uint64_t *v) { *v += 1; },
            [](double *v) { *v = *v * 2.0 + 1.0; },
            [](tcme::MappingEngineKind *v) {
                *v = *v == tcme::MappingEngineKind::GMap
                         ? tcme::MappingEngineKind::SMap
                         : tcme::MappingEngineKind::GMap;
            },
            [](solver::SearchEngineKind *v) {
                *v = *v == solver::SearchEngineKind::BeamTabu
                         ? solver::SearchEngineKind::Annealing
                         : solver::SearchEngineKind::BeamTabu;
            },
            [](std::string *v) { *v += "x"; },
        },
        row.field(options));
}

FrameworkOptions
perturbed(const OptionRow &row)
{
    FrameworkOptions options;
    perturb(row, options);
    return options;
}

std::string
keyOf(const FrameworkOptions &options)
{
    return api::requestKey(api::OptimizeRequest{
        model::modelByName("GPT-3 6.7B"), hw::WaferConfig::paperDefault(),
        options});
}

/// The config-file lexeme of one wire member: what a user would write
/// after `key =` to ask for the same value.
std::string
configLexeme(const std::string &wire, const std::string &key)
{
    common::JsonValue doc;
    std::string error;
    EXPECT_TRUE(common::parseJson(wire, &doc, &error)) << error;
    for (const auto &[name, value] : doc.members) {
        if (name != key)
            continue;
        if (value.isBool())
            return value.bool_value ? "true" : "false";
        return value.text;
    }
    ADD_FAILURE() << key << " missing from " << wire;
    return "";
}

TEST(OptionTable, EveryKeyHasExactlyOneRow)
{
    std::set<std::string> keys;
    for (const OptionRow &row : optionRows()) {
        EXPECT_TRUE(keys.insert(row.key).second) << row.key;
        EXPECT_EQ(findOptionRow(row.key), &row) << row.key;
    }
    EXPECT_EQ(findOptionRow("solver.enable_ga"), nullptr);
    EXPECT_EQ(findOptionRow("no.such.key"), nullptr);
}

TEST(OptionTable, OnlyIdentityRowsChangeTheRequestKey)
{
    const std::string base = keyOf(FrameworkOptions{});
    for (const OptionRow &row : optionRows()) {
        const std::string key = keyOf(perturbed(row));
        if (row.role == OptionRole::Identity)
            EXPECT_NE(key, base) << row.key << " missing from the key";
        else
            EXPECT_EQ(key, base) << row.key << " leaked into the key";
    }
}

TEST(OptionTable, WireRowsRoundTripConfigWireConfig)
{
    const std::string defaults = api::toJson(FrameworkOptions{});
    for (const OptionRow &row : optionRows()) {
        const std::string wire = api::toJson(perturbed(row));
        if (row.role == OptionRole::Local) {
            EXPECT_EQ(wire, defaults) << row.key << " reached the wire";
            continue;
        }
        EXPECT_NE(wire, defaults) << row.key << " missing from the wire";

        // config -> options -> wire: the config spelling of the value
        // renders the same document.
        const FrameworkOptions from_config =
            frameworkOptionsFromConfigOrThrow(
                {{row.key, configLexeme(wire, row.key)}});
        EXPECT_EQ(api::toJson(from_config), wire) << row.key;

        // wire -> options: a request carrying the document parses back
        // to the same options.
        api::ParsedRequest parsed;
        std::string error;
        ASSERT_TRUE(api::parseRequest(
            R"({"kind":"optimize","model":{"base":"GPT-3 6.7B"},)"
            R"("options":)" +
                wire + "}",
            &parsed, &error))
            << row.key << ": " << error;
        const auto &request = std::get<api::OptimizeRequest>(parsed.request);
        EXPECT_EQ(api::toJson(request.options), wire) << row.key;
        EXPECT_EQ(keyOf(request.options), keyOf(from_config)) << row.key;
    }
}

}  // namespace
}  // namespace temp::core
