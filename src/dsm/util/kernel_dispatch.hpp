// Runtime dispatch seam for the vectorized kernels (DESIGN.md §13).
//
// Every batched/SIMD kernel in this codebase (carryless-multiply field
// arithmetic in gf/, the SoA Section-4 addressing sweep in graph/) keeps
// its scalar predecessor as a bit-identity oracle and consults this seam to
// pick a path:
//
//   * forceScalar()   — true when the process should run every kernel on its
//     scalar oracle path. Set by the environment variable DSM_FORCE_SCALAR=1
//     (read once at startup; CI runs the whole test suite under it so the
//     fallback parity is exercised on every push even on PCLMUL-capable
//     runners) or by setForceScalarForTesting() (in-process toggle for the
//     differential fuzz tests, which compare both paths in one binary).
//   * hasClmulHw()    — true when the CPU offers a carryless-multiply
//     instruction (PCLMULQDQ on x86-64, PMULL on AArch64) AND the binary was
//     able to emit it. Kernels with a hardware path check this once and fall
//     back to the branch-free software kernel otherwise.
//
// The seam is deliberately a plain global read on the query side: kernels
// consult it on hot paths. setForceScalarForTesting is NOT thread-safe
// against concurrently running kernels — tests toggle it only between
// single-threaded phases.
#pragma once

namespace dsm::util {

namespace detail {
extern bool g_force_scalar;  // set at startup from DSM_FORCE_SCALAR
}

/// True when every kernel must take its scalar (oracle) path.
inline bool forceScalar() noexcept { return detail::g_force_scalar; }

/// Overrides the environment-derived flag for in-process differential tests.
/// Not thread-safe against running kernels; toggle between serial phases.
void setForceScalarForTesting(bool on) noexcept;

/// Restores the environment-derived value of forceScalar().
void clearForceScalarOverride() noexcept;

/// True when a hardware carryless multiply (PCLMULQDQ / PMULL) is available
/// at runtime and compiled in. Cached after the first call.
bool hasClmulHw() noexcept;

/// Human-readable name of the active field-kernel dispatch target, for bench
/// banners and JSON: "scalar" (forced), "clmul-hw" or "clmul-soft".
const char* kernelDispatchName() noexcept;

}  // namespace dsm::util
