#include "tensor/gemm.h"

#include <algorithm>
#include <cstdlib>

#include "common/error.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"
#include "tensor/gemm_kernels.h"

namespace chiron::tensor {

namespace {

constexpr const char* kIsaNames[kNumIsas] = {"baseline", "avx2", "avx512"};

Isa startup_isa() {
  static const Isa isa = [] {
    const char* raw = std::getenv("CHIRON_ISA");
    return select_isa(raw != nullptr ? raw : "", host_isas());
  }();
  return isa;
}

// ScopedIsa's override, or -1 for none. Written only while no GEMM runs
// (see ScopedIsa); parallel_for's task hand-off orders it before any
// worker's read.
int g_forced_isa = -1;

}  // namespace

const char* isa_name(Isa isa) { return kIsaNames[static_cast<int>(isa)]; }

IsaSet host_isas() {
  IsaSet set = isa_bit(Isa::kBaseline);
#if CHIRON_GEMM_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) set |= isa_bit(Isa::kAvx2);
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("avx512f"))
    set |= isa_bit(Isa::kAvx512);
#endif
  return set;
}

Isa select_isa(std::string_view requested, IsaSet supported) {
  CHIRON_CHECK_MSG((supported & isa_bit(Isa::kBaseline)) != 0,
                   "the baseline GEMM variant must always be supported");
  if (requested.empty()) {
    for (int i = kNumIsas - 1; i > 0; --i)
      if ((supported & isa_bit(static_cast<Isa>(i))) != 0)
        return static_cast<Isa>(i);
    return Isa::kBaseline;
  }
  int found = -1;
  for (int i = 0; i < kNumIsas; ++i)
    if (requested == kIsaNames[i]) found = i;
  CHIRON_CHECK_MSG(found >= 0, "CHIRON_ISA must be baseline, avx2 or avx512, "
                               "got '" << requested << "'");
  const Isa isa = static_cast<Isa>(found);
  CHIRON_CHECK_MSG((supported & isa_bit(isa)) != 0,
                   "CHIRON_ISA=" << requested
                                 << " is not supported by this CPU/build");
  return isa;
}

Isa active_isa() {
  return g_forced_isa >= 0 ? static_cast<Isa>(g_forced_isa) : startup_isa();
}

}  // namespace chiron::tensor

namespace chiron::tensor::detail {

namespace {

// Approximate element count of pack/compute work worth one task dispatch;
// smaller sections run inline on the caller (same values either way).
constexpr std::int64_t kDispatchWork = 16384;

// Column chunk the small-M path is parallelized over (any chunking gives
// the same values: columns are independent).
constexpr std::int64_t kSmallChunk = 256;

const Kernels& kernels_for(Isa isa) {
#if CHIRON_GEMM_X86
  if (isa == Isa::kAvx512) return isa_avx512::kKernels;
  if (isa == Isa::kAvx2) return isa_avx2::kKernels;
#endif
  return isa_baseline::kKernels;
}

}  // namespace

int isa_mr(Isa isa) { return kernels_for(isa).mr; }

ScopedIsa::ScopedIsa(Isa isa) : prev_(g_forced_isa) {
  CHIRON_CHECK_MSG((host_isas() & isa_bit(isa)) != 0,
                   "GEMM variant " << isa_name(isa)
                                   << " is not supported by this CPU/build");
  g_forced_isa = static_cast<int>(isa);
}

ScopedIsa::~ScopedIsa() { g_forced_isa = prev_; }

void gemm_acc(const MatView& a, const MatView& b, float* c,
              const std::int64_t ldc) {
  const std::int64_t m = a.rows, k = a.cols, n = b.cols;
  if (m == 0 || n == 0 || k == 0) return;
  const Kernels& kern = kernels_for(active_isa());

  if (m < kern.mr) {
    // Fewer rows than one MR panel: packing would pad them to a full
    // panel and repack all of B, so stream B in place instead.
    runtime::parallel_for(
        0, (n + kSmallChunk - 1) / kSmallChunk,
        [&](std::int64_t lo, std::int64_t hi) {
          kern.small_m(a, b, lo * kSmallChunk,
                       std::min(n, hi * kSmallChunk), c, ldc);
        },
        std::max<std::int64_t>(1, kDispatchWork / (m * k * kSmallChunk)));
    return;
  }

  const std::int64_t nr = kern.nr;
  auto& pack_ws = runtime::Workspace::tls();
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    const std::int64_t npanels = (nc + nr - 1) / nr;
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);

      // Shared packed B strip for this (jc, pc): read-only once built, so
      // every M task can stream it. Panel writes are disjoint.
      auto bbuf = pack_ws.acquire(static_cast<std::size_t>(npanels * kc * nr));
      float* bp = bbuf.data();
      runtime::parallel_for(
          0, npanels,
          [&](std::int64_t lo, std::int64_t hi) {
            kern.pack_b(b, pc, kc, jc, nc, lo, hi, bp);
          },
          std::max<std::int64_t>(1, kDispatchWork / (kc * nr)));

      // Parallel over MC row blocks of C: the grid depends only on m, so
      // chunking along it never changes which arithmetic produces a given
      // C element — only which thread runs it.
      const std::int64_t mblocks = (m + kMC - 1) / kMC;
      runtime::parallel_for(
          0, mblocks,
          [&](std::int64_t blo, std::int64_t bhi) {
            auto abuf = runtime::Workspace::tls().acquire(
                static_cast<std::size_t>(kMC * kc));
            for (std::int64_t blk = blo; blk < bhi; ++blk) {
              const std::int64_t i0 = blk * kMC;
              kern.block(a, pc, kc, i0, std::min(kMC, m - i0), bp, nc,
                         abuf.data(), c + jc, ldc);
            }
          },
          std::max<std::int64_t>(1, kDispatchWork / (kMC * kc * nc)));
    }
  }
}

}  // namespace chiron::tensor::detail
