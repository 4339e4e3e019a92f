// Per-ISA GEMM kernel table (private to tensor/gemm.cpp).
//
// gemm_kernels.cpp is compiled once per Isa, each copy with its own -m
// flags, -ffp-contract=off and CHIRON_GEMM_ISA naming its namespace
// (isa_baseline, isa_avx2, isa_avx512). A copy exports one Kernels table;
// the driver in gemm.cpp (compiled for baseline) owns the loop nest,
// threading and scratch and calls the table for every flop, so no code
// outside the copy's namespace is ever built with the wider ISA.
#pragma once

#include <cstdint>

#include "tensor/gemm.h"

namespace chiron::tensor::detail {

struct Kernels {
  int mr, nr;  // micro-tile rows × columns
  /// Packs B[pc:pc+kc, jc:jc+nc] column panels [jp_lo, jp_hi) into bp
  /// (panel jp at bp + jp*kc*nr, NR-interleaved, zero-padded).
  void (*pack_b)(const MatView& b, std::int64_t pc, std::int64_t kc,
                 std::int64_t jc, std::int64_t nc, std::int64_t jp_lo,
                 std::int64_t jp_hi, float* bp);
  /// C[i0:i0+mc, 0:nc] += A[i0:i0+mc, pc:pc+kc] · packed B, packing the
  /// A block into ap (kMC*kc floats of scratch). c points at the strip's
  /// first column, C(0, jc).
  void (*block)(const MatView& a, std::int64_t pc, std::int64_t kc,
                std::int64_t i0, std::int64_t mc, const float* bp,
                std::int64_t nc, float* ap, float* c, std::int64_t ldc);
  /// C[:, j0:j1] += A · B[:, j0:j1] without packing (any m; used for
  /// m < mr). Same per-element arithmetic as the packed path.
  void (*small_m)(const MatView& a, const MatView& b, std::int64_t j0,
                  std::int64_t j1, float* c, std::int64_t ldc);
};

namespace isa_baseline { extern const Kernels kKernels; }
namespace isa_avx2 { extern const Kernels kKernels; }
namespace isa_avx512 { extern const Kernels kKernels; }

}  // namespace chiron::tensor::detail
