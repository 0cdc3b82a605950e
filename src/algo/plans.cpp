#include "algo/plans.hpp"

#include "expt/sweep.hpp"
#include "runtime/faults.hpp"
#include "runtime/reliability.hpp"
#include "runtime/telemetry.hpp"

namespace nc {

namespace {

const PlanRow kPlans[] = {
    {"faults", fault_param_defaults,
     [](const ParamSet& overrides) {
       (void)fault_plan_from_params(
           merge_params(fault_param_defaults(), overrides, "fault plan"));
     },
     "loss", "fault parameters; --faults", &SweepSpec::faults},
    {"reliability", reliability_param_defaults,
     [](const ParamSet& overrides) {
       (void)reliability_plan_from_params(merge_params(
           reliability_param_defaults(), overrides, "reliability plan"));
     },
     "rel_mode", "reliability parameters; --reliability",
     &SweepSpec::reliability},
    {"telemetry", telemetry_param_defaults,
     [](const ParamSet& overrides) {
       (void)telemetry_plan_from_params(merge_params(
           telemetry_param_defaults(), overrides, "telemetry plan"));
     },
     "tel_metrics", "telemetry parameters; --telemetry/--metrics/--trace",
     &SweepSpec::telemetry},
};

}  // namespace

std::span<const PlanRow> plan_table() { return kPlans; }

const PlanRow* find_plan(const std::string& name) {
  for (const PlanRow& plan : kPlans) {
    if (name == plan.name) return &plan;
  }
  return nullptr;
}

ParamSet parse_plan_overrides(const PlanRow& plan, const std::string& csv) {
  if (csv.empty()) return {};
  ParamSet overrides = parse_params_csv(csv, &plan.defaults());
  plan.validate(overrides);
  return overrides;
}

}  // namespace nc
