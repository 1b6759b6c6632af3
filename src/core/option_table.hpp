/**
 * @file
 * The FrameworkOptions schema: one descriptor row per option key.
 *
 * Every consumer of the option set loops over this one table instead
 * of spelling the keys out: the `.conf` and request-options parser
 * (core::frameworkOptionsFromConfigOrThrow), the request wire format
 * (api::toJson(FrameworkOptions)) and the canonical framework keys
 * (api::optionsKey, api::policyTrainingKey). Adding a knob is one row;
 * tests/option_table_test.cpp checks every row against the rules its
 * role promises.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "core/framework.hpp"

namespace temp::core {

/// Where an option travels.
enum class OptionRole
{
    /// Changes what a framework computes: parsed, on the wire, and
    /// part of api::optionsKey.
    Identity,
    /// Re-tunes TempService's own maps (service.cache.*): parsed and
    /// on the wire, never in the key.
    Service,
    /// Process-local policy (persist.*, serve.*): parsed only — where a
    /// process keeps snapshots or how long it queues a request changes
    /// nothing a framework computes.
    Local,
};

/**
 * A typed reference to the FrameworkOptions member a row configures.
 * The alternative is the row's kind and fixes its formats
 * (config value; key field; wire member):
 *  - bool: 0/1/true/false; "1" or "0"; true/false
 *  - int: a whole number >= OptionRow::min; decimal; decimal
 *  - long (a count): a whole number >= 0; decimal; decimal
 *  - uint64: the raw decimal lexeme, never rounded through a double;
 *    decimal; raw decimal
 *  - double: any number; %.17g; jsonNumberExact
 *  - MappingEngineKind: smap/gmap/tcme; enum value; the name
 *  - SearchEngineKind: solver::searchEngineFromName; enum value; the
 *    name
 *  - string: verbatim; length-prefixed; JSON string
 */
using OptionField =
    std::variant<bool *, int *, long *, std::uint64_t *, double *,
                 tcme::MappingEngineKind *, solver::SearchEngineKind *,
                 std::string *>;

/// One FrameworkOptions knob.
struct OptionRow
{
    /// Config key and wire member name.
    const char *key;
    OptionRole role;
    /// The member this row configures.
    OptionField (*field)(FrameworkOptions &options);
    /// Smallest accepted value of an int row; smaller values would
    /// reach code that cannot run with them.
    int min = std::numeric_limits<int>::min();

    /// The row's member of a const options object (render-only use).
    OptionField read(const FrameworkOptions &options) const
    {
        return field(const_cast<FrameworkOptions &>(options));
    }
};

/// Every option: identity and service rows in wire order, then the
/// local rows.
std::span<const OptionRow> optionRows();

/// The row for @p key, or null when no option has that key.
const OptionRow *findOptionRow(std::string_view key);

/// Visitor helper: one lambda per OptionField alternative.
template <typename... Fs>
struct Overloaded : Fs...
{
    using Fs::operator()...;
};

}  // namespace temp::core
