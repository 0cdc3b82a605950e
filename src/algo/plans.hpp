#pragma once

#include <span>
#include <string>

#include "util/paramset.hpp"

namespace nc {

struct SweepSpec;

/// One opt-in engine plan that rides the algorithm param bag: the fault
/// plan (src/runtime/faults.hpp), the reliability service
/// (src/runtime/reliability.hpp) or telemetry (src/runtime/telemetry.hpp).
/// A network-backed algorithm declares a plan's keys in its defaults, so
/// plan knobs work as --algo-params entries, grid axes and spec fields
/// unchanged. Every front end that forwards whole plans — the CLI flags,
/// the registry's declared defaults, the sweep runner and its spec files —
/// iterates plan_table() instead of naming a plan, so the three cannot
/// drift apart.
struct PlanRow {
  /// The CLI flag (--NAME=k=v,..), the spec-file key and the SweepSpec
  /// field: "faults", "reliability", "telemetry".
  const char* name;

  /// The complete legal key set with its default values.
  const ParamSet& (*defaults)();

  /// Validates an override bag as a whole plan. Unknown keys throw with
  /// the plan's key catalogue, bad values with the plan's range message.
  void (*validate)(const ParamSet& overrides);

  /// An algorithm takes the plan iff its defaults declare this key.
  const char* declare_key;

  /// Completes "note: algorithm 'A' does not declare ... ignored for it",
  /// e.g. "fault parameters; --faults".
  const char* ignored;

  /// The plan's sweep-wide override bag (SweepSpec::faults, ...).
  ParamSet SweepSpec::*sweep_bag;
};

/// The plan rows, in the one order every loop uses: faults, reliability,
/// telemetry.
std::span<const PlanRow> plan_table();

/// The row called `name`, or null when no plan has that name.
const PlanRow* find_plan(const std::string& name);

/// Parses a "key=value,..." plan CSV into a validated override bag (empty
/// for an empty CSV). The --faults / --reliability / --telemetry front end.
ParamSet parse_plan_overrides(const PlanRow& plan, const std::string& csv);

}  // namespace nc
