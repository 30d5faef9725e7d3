#include "math/isa.h"

namespace eadrl::math {

Isa HostIsa() {
#if defined(__x86_64__)
  static const Isa isa =
      __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kBaseline;
  return isa;
#else
  return Isa::kBaseline;
#endif
}

}  // namespace eadrl::math
