#pragma once

/// Checked-build runtime invariants.
///
/// `nc_invariant(cond, msg)` asserts an engine contract that is too
/// expensive — or too far from any single call site — to express as a type:
/// lane merge order, FIFO delay watermarks, inbox slot-map consistency,
/// staged-row shapes. The checks compile to nothing unless the build defines
/// NC_CHECK_INVARIANTS, which the CMake option of the same name controls:
/// ON by default (so the dev-default RelWithDebInfo preset and the tier-1
/// test runs execute every check) and forced OFF for Release builds, so the
/// perf gate and the committed BENCH_*.json artifacts never pay for them.
///
/// A failed invariant prints `file:line: invariant failed: <expr> — <msg>`
/// to stderr and aborts. It is not an exception: an invariant failure means
/// engine state is already corrupt, and unwinding through shard workers
/// would only smear it around. Keep conditions side-effect free — under
/// Release they are not evaluated at all.
#if defined(NC_CHECK_INVARIANTS)

namespace nc::detail {
[[noreturn]] void invariant_failure(const char* expr, const char* msg,
                                    const char* file, int line) noexcept;
}  // namespace nc::detail

#define nc_invariant(cond, msg)                                         \
  (static_cast<bool>(cond)                                              \
       ? static_cast<void>(0)                                           \
       : ::nc::detail::invariant_failure(#cond, msg, __FILE__, __LINE__))

#else

#define nc_invariant(cond, msg) static_cast<void>(0)

#endif
