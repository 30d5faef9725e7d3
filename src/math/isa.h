#ifndef EADRL_MATH_ISA_H_
#define EADRL_MATH_ISA_H_

namespace eadrl::math {

/// Instruction-set variants of the register-tiled Matrix products. Each
/// product body is compiled once per variant and every variant computes the
/// same bits: AVX2 only widens the vectors, and FMA is never enabled (see
/// DESIGN.md §8, "Kernel ISA variants").
enum class Isa { kBaseline, kAvx2 };

/// The variant this CPU runs: kAvx2 when CPUID reports AVX2, else
/// kBaseline. Decided on the first call. Every CPU runs kBaseline, so tests
/// run both it and this one.
Isa HostIsa();

}  // namespace eadrl::math

#endif  // EADRL_MATH_ISA_H_
