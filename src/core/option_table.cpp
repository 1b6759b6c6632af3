#include "core/option_table.hpp"

#include <unordered_map>

namespace temp::core {

namespace {

using F = OptionField;
using O = FrameworkOptions;
constexpr OptionRole kIdentity = OptionRole::Identity;
constexpr OptionRole kService = OptionRole::Service;
constexpr OptionRole kLocal = OptionRole::Local;

// Row order is the wire order of toJson(FrameworkOptions) and the field
// order of api::optionsKey.
const OptionRow kOptionRows[] = {
    {"policy", kIdentity, [](O &o) -> F { return &o.policy.kind; }},
    // 0 = hardware concurrency.
    {"eval_threads", kIdentity, [](O &o) -> F { return &o.eval_threads; }},
    {"training.flash_attention", kIdentity,
     [](O &o) -> F { return &o.training.flash_attention; }},
    {"training.zero1_optimizer", kIdentity,
     [](O &o) -> F { return &o.training.zero1_optimizer; }},
    {"training.weight_bytes_per_elem", kIdentity,
     [](O &o) -> F { return &o.training.weight_bytes_per_elem; }},
    {"training.act_bytes_per_elem", kIdentity,
     [](O &o) -> F { return &o.training.act_bytes_per_elem; }},
    {"training.grad_bytes_per_elem", kIdentity,
     [](O &o) -> F { return &o.training.grad_bytes_per_elem; }},
    {"training.optimizer_bytes_per_param", kIdentity,
     [](O &o) -> F { return &o.training.optimizer_bytes_per_param; }},
    {"solver.engine", kIdentity,
     [](O &o) -> F { return &o.solver.engine; }},
    {"solver.annealing.iterations", kIdentity,
     [](O &o) -> F { return &o.solver.annealing.iterations; }},
    // Each round reserves `proposals` slots.
    {"solver.annealing.proposals", kIdentity,
     [](O &o) -> F { return &o.solver.annealing.proposals; }, 0},
    {"solver.annealing.initial_temp", kIdentity,
     [](O &o) -> F { return &o.solver.annealing.initial_temp; }},
    {"solver.annealing.cooling", kIdentity,
     [](O &o) -> F { return &o.solver.annealing.cooling; }},
    // The GA draws parents from a non-empty population.
    {"solver.ga_population", kIdentity,
     [](O &o) -> F { return &o.solver.ga_population; }, 1},
    {"solver.ga_generations", kIdentity,
     [](O &o) -> F { return &o.solver.ga_generations; }},
    {"solver.ga_mutation_rate", kIdentity,
     [](O &o) -> F { return &o.solver.ga_mutation_rate; }},
    {"solver.seed", kIdentity, [](O &o) -> F { return &o.solver.seed; }},
    // Both deadline caps determine the result (the quantum cap
    // exactly, the wall cap by rounding down to a quantum boundary).
    {"solver.deadline.quanta", kIdentity,
     [](O &o) -> F { return &o.solver.deadline.max_quanta; }},
    {"solver.deadline.wall_ms", kIdentity,
     [](O &o) -> F { return &o.solver.deadline.max_wall_ms; }},
    {"solver.use_surrogate", kIdentity,
     [](O &o) -> F { return &o.solver.use_surrogate; }},
    {"solver.surrogate_sample_fraction", kIdentity,
     [](O &o) -> F { return &o.solver.surrogate_sample_fraction; }},
    {"solver.space.allow_dp", kIdentity,
     [](O &o) -> F { return &o.solver.space.allow_dp; }},
    {"solver.space.allow_fsdp", kIdentity,
     [](O &o) -> F { return &o.solver.space.allow_fsdp; }},
    {"solver.space.allow_tp", kIdentity,
     [](O &o) -> F { return &o.solver.space.allow_tp; }},
    {"solver.space.allow_sp", kIdentity,
     [](O &o) -> F { return &o.solver.space.allow_sp; }},
    {"solver.space.allow_cp", kIdentity,
     [](O &o) -> F { return &o.solver.space.allow_cp; }},
    {"solver.space.allow_tatp", kIdentity,
     [](O &o) -> F { return &o.solver.space.allow_tatp; }},
    {"solver.space.max_tp", kIdentity,
     [](O &o) -> F { return &o.solver.space.max_tp; }},
    {"solver.space.max_tatp", kIdentity,
     [](O &o) -> F { return &o.solver.space.max_tatp; }},
    {"solver.space.full_occupancy", kIdentity,
     [](O &o) -> F { return &o.solver.space.full_occupancy; }},
    // Cache budgets (0 = unbounded). The service-level pair re-tunes
    // TempService's maps; the rest are applied when a framework is
    // built, so they are part of its identity.
    {"service.cache.max_frameworks", kService,
     [](O &o) -> F { return &o.cache.max_frameworks; }},
    {"service.cache.max_pods", kService,
     [](O &o) -> F { return &o.cache.max_pods; }},
    {"eval.cache.max_entries", kIdentity,
     [](O &o) -> F { return &o.cache.max_eval_entries; }},
    {"eval.cache.max_step_entries", kIdentity,
     [](O &o) -> F { return &o.cache.max_step_entries; }},
    {"eval.cache.max_layouts", kIdentity,
     [](O &o) -> F { return &o.cache.max_layout_entries; }},
    {"net.schedule_cache.max_entries", kIdentity,
     [](O &o) -> F { return &o.cache.max_schedule_entries; }},
    {"net.route_pool.max_entries", kIdentity,
     [](O &o) -> F { return &o.cache.max_route_entries; }},
    {"eval.cache.max_bytes", kIdentity,
     [](O &o) -> F { return &o.cache.max_eval_bytes; }},
    {"eval.cache.max_step_bytes", kIdentity,
     [](O &o) -> F { return &o.cache.max_step_bytes; }},
    {"eval.cache.max_layout_bytes", kIdentity,
     [](O &o) -> F { return &o.cache.max_layout_bytes; }},
    {"net.schedule_cache.max_bytes", kIdentity,
     [](O &o) -> F { return &o.cache.max_schedule_bytes; }},
    {"net.route_pool.max_bytes", kIdentity,
     [](O &o) -> F { return &o.cache.max_route_bytes; }},
    {"persist.path", kLocal, [](O &o) -> F { return &o.persist.path; }},
    {"persist.save_on_exit", kLocal,
     [](O &o) -> F { return &o.persist.save_on_exit; }},
    {"persist.period_s", kLocal,
     [](O &o) -> F { return &o.persist.period_s; }},
    // 0 = no queue deadline.
    {"serve.deadline_ms", kLocal,
     [](O &o) -> F { return &o.serve.deadline_ms; }, 0},
};

}  // namespace

std::span<const OptionRow>
optionRows()
{
    return kOptionRows;
}

const OptionRow *
findOptionRow(std::string_view key)
{
    static const std::unordered_map<std::string_view, const OptionRow *>
        by_key = [] {
            std::unordered_map<std::string_view, const OptionRow *> map;
            for (const OptionRow &row : kOptionRows)
                map.emplace(row.key, &row);
            return map;
        }();
    const auto it = by_key.find(key);
    return it == by_key.end() ? nullptr : it->second;
}

}  // namespace temp::core
