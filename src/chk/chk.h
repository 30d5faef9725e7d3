#ifndef EADRL_CHK_CHK_H_
#define EADRL_CHK_CHK_H_

#include <cmath>
#include <cstddef>

// eadrl::chk — numeric/contract sanitizer for the training and serving hot
// paths (see DESIGN.md, "Correctness tooling").
//
// Contracts are *compiled* in or out: with EADRL_CHECKS=0 every EADRL_CHK*
// macro expands to `static_cast<void>(0)` — arguments are never evaluated, so
// a disabled contract costs exactly nothing (bench/chk_bench.cc holds the
// nn-forward and combiner-predict hot paths to the pre-contract baseline).
// This mirrors the obs disarmed-span pattern, but moves the gate from a
// runtime atomic load to compile time because contracts sit inside inner
// loops that tracing never enters.
//
// The gate resolves, most specific first:
//   1. EADRL_CHK_FORCE_ON / EADRL_CHK_FORCE_OFF — per-translation-unit
//      overrides for tests that must observe both behaviors in one binary.
//   2. EADRL_CHECKS (0/1) — the build-wide CMake option, propagated as a
//      PUBLIC compile definition of the eadrl target (default ON; serving
//      builds configure with -DEADRL_CHECKS=OFF).
//   3. NDEBUG — when nothing is configured, contracts follow assert().
//
// A violated contract formats "file:line: contract violated: [what] detail"
// and aborts, unless a test handler installed via SetFailureHandlerForTest
// intercepts it (the handler must not return; ours throw).

#if defined(EADRL_CHK_FORCE_ON)
#define EADRL_CHK_ENABLED 1
#elif defined(EADRL_CHK_FORCE_OFF)
#define EADRL_CHK_ENABLED 0
#elif defined(EADRL_CHECKS)
#define EADRL_CHK_ENABLED EADRL_CHECKS
#elif defined(NDEBUG)
#define EADRL_CHK_ENABLED 0
#else
#define EADRL_CHK_ENABLED 1
#endif

namespace eadrl::chk {

/// True when this translation unit was compiled with contracts on. Tests and
/// benchmarks branch on it to know whether the *library's* wired contracts
/// are live (the eadrl target publishes its EADRL_CHECKS setting).
inline constexpr bool Enabled() { return EADRL_CHK_ENABLED != 0; }

/// Test hook: receives the fully formatted violation message instead of the
/// default stderr+abort path. Must be thread-safe (contracts fire on pool
/// workers) and must not return — throw or abort. Pass nullptr to restore
/// the default. Not for production use: contracts are programmer errors.
using FailureHandler = void (*)(const char* formatted_message);
void SetFailureHandlerForTest(FailureHandler handler);

namespace internal {

/// Formats and reports the violation, then invokes the installed handler or
/// aborts. `what` names the op/tensor being checked ("Dense::Forward input",
/// "actor weights"); `detail` says how it failed ("element 3 is nan").
[[noreturn]] void FailContract(const char* file, int line, const char* what,
                               const char* detail);

/// FailContract with printf-style detail formatting.
[[noreturn]] void FailContractF(const char* file, int line, const char* what,
                                const char* detail_format, ...)
    __attribute__((format(printf, 4, 5)));

[[noreturn]] void FailFinite(const char* file, int line, const char* what,
                             size_t index, double value);

[[noreturn]] void FailSimplex(const char* file, int line, const char* what,
                              size_t size, size_t bad_index, double bad_value,
                              double sum, double tol);

/// Element-wise finiteness over any contiguous container of doubles
/// (math::Vec, Matrix::data()). Out-of-line slow path keeps the scan tight.
template <typename Container>
inline void CheckFiniteRange(const Container& c, const char* what,
                             const char* file, int line) {
  const double* data = c.data();
  const size_t n = c.size();
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) FailFinite(file, line, what, i, data[i]);
  }
}

inline void CheckFiniteValue(double v, const char* what, const char* file,
                             int line) {
  if (!std::isfinite(v)) FailFinite(file, line, what, 0, v);
}

/// Weights must be non-negative (within tol), finite, and sum to 1 within
/// tol — the simplex constraint every combiner action must satisfy.
template <typename Container>
inline void CheckSimplex(const Container& w, double tol, const char* what,
                         const char* file, int line) {
  const double* data = w.data();
  const size_t n = w.size();
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (!(data[i] >= -tol) || !std::isfinite(data[i])) {
      FailSimplex(file, line, what, n, i, data[i], 0.0, tol);
    }
    sum += data[i];
  }
  if (!(std::fabs(sum - 1.0) <= tol)) {
    FailSimplex(file, line, what, n, n, 0.0, sum, tol);
  }
}

void CheckShape(size_t got_rows, size_t got_cols, size_t want_rows,
                size_t want_cols, const char* what, const char* file,
                int line);

void CheckDim(size_t got, size_t want, const char* what, const char* file,
              int line);

void CheckBound(size_t index, size_t size, const char* what, const char* file,
                int line);

void CheckRange(double x, double lo, double hi, const char* what,
                const char* file, int line);

}  // namespace internal
}  // namespace eadrl::chk

#if EADRL_CHK_ENABLED

/// General contract: `what` names the violated invariant.
#define EADRL_CHK(cond, what)                                          \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::eadrl::chk::internal::FailContract(__FILE__, __LINE__, (what), \
                                           "condition " #cond          \
                                           " is false");               \
    }                                                                  \
  } while (0)

/// Every element of a contiguous double container is finite.
#define EADRL_CHK_FINITE(container, what) \
  ::eadrl::chk::internal::CheckFiniteRange((container), (what), __FILE__, \
                                           __LINE__)

/// A single scalar is finite.
#define EADRL_CHK_FINITE_VALUE(value, what) \
  ::eadrl::chk::internal::CheckFiniteValue((value), (what), __FILE__, __LINE__)

/// `weights` lies on the probability simplex within `tol`.
#define EADRL_CHK_SIMPLEX(weights, tol, what)                             \
  ::eadrl::chk::internal::CheckSimplex((weights), (tol), (what), __FILE__, \
                                       __LINE__)

/// A (rows, cols) pair matches the expected shape.
#define EADRL_CHK_SHAPE(got_rows, got_cols, want_rows, want_cols, what) \
  ::eadrl::chk::internal::CheckShape((got_rows), (got_cols), (want_rows), \
                                     (want_cols), (what), __FILE__, __LINE__)

/// A vector length matches the expected dimension.
#define EADRL_CHK_DIM(got, want, what) \
  ::eadrl::chk::internal::CheckDim((got), (want), (what), __FILE__, __LINE__)

/// index < size.
#define EADRL_CHK_BOUND(index, size, what)                              \
  ::eadrl::chk::internal::CheckBound((index), (size), (what), __FILE__, \
                                     __LINE__)

/// lo <= x <= hi, and x is finite.
#define EADRL_CHK_RANGE(x, lo, hi, what)                                  \
  ::eadrl::chk::internal::CheckRange((x), (lo), (hi), (what), __FILE__, \
                                     __LINE__)

#else  // !EADRL_CHK_ENABLED — contracts compile to nothing.

#define EADRL_CHK(cond, what) static_cast<void>(0)
#define EADRL_CHK_FINITE(container, what) static_cast<void>(0)
#define EADRL_CHK_FINITE_VALUE(value, what) static_cast<void>(0)
#define EADRL_CHK_SIMPLEX(weights, tol, what) static_cast<void>(0)
#define EADRL_CHK_SHAPE(got_rows, got_cols, want_rows, want_cols, what) \
  static_cast<void>(0)
#define EADRL_CHK_DIM(got, want, what) static_cast<void>(0)
#define EADRL_CHK_BOUND(index, size, what) static_cast<void>(0)
#define EADRL_CHK_RANGE(x, lo, hi, what) static_cast<void>(0)

#endif  // EADRL_CHK_ENABLED

#endif  // EADRL_CHK_CHK_H_
