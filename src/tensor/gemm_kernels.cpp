// GEMM packing, micro-kernel and small-M loops — one source, compiled once
// per ISA (see gemm_kernels.h and DESIGN.md §5.7).
//
// Everything here lives in the CHIRON_GEMM_ISA namespace or an anonymous
// namespace inside it, and the file includes no header that defines
// inline functions or templates: a weak symbol emitted here would be
// built with this copy's -m flags, and the linker could hand that copy to
// a baseline host. tools/check_isa_symbols.sh enforces this on the
// objects.
//
// Values never depend on the copy: every copy is built with
// -ffp-contract=off (no FMA contraction), and every C element gets the
// same arithmetic — per K panel, a sum that starts at 0.f and adds a·b in
// ascending kk, then C += that sum. The vector lanes run across columns j,
// never across kk.
#include <cstdint>

#include "tensor/gemm_kernels.h"

#ifndef CHIRON_GEMM_ISA
#error "CHIRON_GEMM_ISA must name this copy's namespace (isa_baseline, ...)"
#endif

namespace chiron::tensor::detail::CHIRON_GEMM_ISA {

namespace {

// Micro-tile footprint, chosen so the MR×NR accumulator block exactly
// fills this ISA's vector register file (measured on GCC 12).
// kVec is the float count of one vector register.
#if defined(__AVX512F__)
constexpr int kMR = 8;   // 8 rows × 2 zmm = 16 accumulators
constexpr int kNR = 32;
constexpr int kVec = 16;
#elif defined(__AVX2__)
constexpr int kMR = 4;   // 4 rows × 4 ymm = 16 accumulators
constexpr int kNR = 32;
constexpr int kVec = 8;
#else
constexpr int kMR = 16;  // 16 rows × 1 xmm = 16 accumulators
constexpr int kNR = 4;
constexpr int kVec = 4;
#endif
static_assert(kMC % kMR == 0, "A blocks must hold whole MR panels");

// Column tile of the small-M path: four vector registers of sums, four
// independent add chains per kk.
constexpr std::int64_t kSmallW = 4 * kVec;

constexpr std::int64_t min64(std::int64_t x, std::int64_t y) {
  return x < y ? x : y;
}

// Packs B[pc:pc+kc, col0:col0+ncols] into one NR-interleaved panel:
// dst[kk*NR + j] = B(pc+kk, col0+j), zero-padded past the last column.
void pack_b_panel(const MatView& b, std::int64_t pc, std::int64_t kc,
                  std::int64_t col0, std::int64_t ncols, float* dst) {
  if (b.cs == 1) {  // row-major B: the panel row is a contiguous copy
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* src = b.data + (pc + kk) * b.rs + col0;
      float* out = dst + kk * kNR;
      std::int64_t j = 0;
      for (; j < ncols; ++j) out[j] = src[j];
      for (; j < kNR; ++j) out[j] = 0.f;
    }
    return;
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* src = b.data + (pc + kk) * b.rs + col0 * b.cs;
    float* out = dst + kk * kNR;
    std::int64_t j = 0;
    for (; j < ncols; ++j) out[j] = src[j * b.cs];
    for (; j < kNR; ++j) out[j] = 0.f;
  }
}

// Packs A[row0:row0+nrows, pc:pc+kc] into one MR-interleaved panel:
// dst[kk*MR + i] = A(row0+i, pc+kk), zero-padded past the last row.
void pack_a_panel(const MatView& a, std::int64_t pc, std::int64_t kc,
                  std::int64_t row0, std::int64_t nrows, float* dst) {
  if (a.rs == 1) {  // transposed-A view: the panel column is contiguous
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* src = a.data + row0 + (pc + kk) * a.cs;
      float* out = dst + kk * kMR;
      std::int64_t i = 0;
      for (; i < nrows; ++i) out[i] = src[i];
      for (; i < kMR; ++i) out[i] = 0.f;
    }
    return;
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* src = a.data + row0 * a.rs + (pc + kk) * a.cs;
    float* out = dst + kk * kMR;
    std::int64_t i = 0;
    for (; i < nrows; ++i) out[i] = src[i * a.rs];
    for (; i < kMR; ++i) out[i] = 0.f;
  }
}

// The register micro-kernel: acc(MR×NR) += Ap(MR×kc) · Bp(kc×NR) over
// packed unit-stride panels. The j loop is the vector lane; each acc
// element is a serial sum over kk, so lane width never changes values.
inline void micro_kernel(std::int64_t kc, const float* ap, const float* bp,
                         float* acc) {
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMR;
    const float* brow = bp + kk * kNR;
    for (int i = 0; i < kMR; ++i) {
      const float ai = arow[i];
      float* crow = acc + i * kNR;
      for (int j = 0; j < kNR; ++j) crow[j] += ai * brow[j];
    }
  }
}

void pack_b(const MatView& b, std::int64_t pc, std::int64_t kc,
            std::int64_t jc, std::int64_t nc, std::int64_t jp_lo,
            std::int64_t jp_hi, float* bp) {
  for (std::int64_t jp = jp_lo; jp < jp_hi; ++jp) {
    pack_b_panel(b, pc, kc, jc + jp * kNR, min64(kNR, nc - jp * kNR),
                 bp + jp * kc * kNR);
  }
}

void block(const MatView& a, std::int64_t pc, std::int64_t kc,
           std::int64_t i0, std::int64_t mc, const float* bp,
           std::int64_t nc, float* ap, float* c, std::int64_t ldc) {
  const std::int64_t mpanels = (mc + kMR - 1) / kMR;
  const std::int64_t npanels = (nc + kNR - 1) / kNR;
  for (std::int64_t ip = 0; ip < mpanels; ++ip) {
    pack_a_panel(a, pc, kc, i0 + ip * kMR, min64(kMR, mc - ip * kMR),
                 ap + ip * kc * kMR);
  }
  // ip outer: the MR×kc A panel stays L1-resident while the B panels
  // stream past it.
  for (std::int64_t ip = 0; ip < mpanels; ++ip) {
    const std::int64_t mr = min64(kMR, mc - ip * kMR);
    for (std::int64_t jp = 0; jp < npanels; ++jp) {
      const std::int64_t nr = min64(kNR, nc - jp * kNR);
      float acc[kMR * kNR] = {};
      micro_kernel(kc, ap + ip * kc * kMR, bp + jp * kc * kNR, acc);
      for (std::int64_t i = 0; i < mr; ++i) {
        float* crow = c + (i0 + ip * kMR + i) * ldc + jp * kNR;
        const float* arow = acc + i * kNR;
        for (std::int64_t j = 0; j < nr; ++j) crow[j] += arow[j];
      }
    }
  }
}

// Unpacked path. Each C element gets, per K panel, a fresh 0.f-started sum
// over ascending kk of A(i,kk)·B(kk,j) — the micro-kernel's exact
// per-element arithmetic — with B read in place. Full kSmallW-column tiles
// keep their sums in vector registers; the ragged tail uses a runtime width.
// kUnitCs: B's columns are contiguous (plain matmul, not matmul_bt).
template <bool kFullTile, bool kUnitCs>
inline void small_m_tile(const float* acol, std::int64_t acs,
                         const float* bcol, std::int64_t brs,
                         std::int64_t bcs, std::int64_t kc,
                         std::int64_t width, float* cout) {
  const std::int64_t w = kFullTile ? kSmallW : width;
  const std::int64_t cs = kUnitCs ? 1 : bcs;
  float sum[kSmallW];
  for (std::int64_t jj = 0; jj < w; ++jj) sum[jj] = 0.f;
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float aik = acol[kk * acs];
    const float* brow = bcol + kk * brs;
    for (std::int64_t jj = 0; jj < w; ++jj) sum[jj] += aik * brow[jj * cs];
  }
  for (std::int64_t jj = 0; jj < w; ++jj) cout[jj] += sum[jj];
}

template <bool kUnitCs>
void small_m_rows(const MatView& a, const MatView& b, std::int64_t j0,
                  std::int64_t j1, float* c, std::int64_t ldc) {
  const std::int64_t m = a.rows, k = a.cols;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = min64(kKC, k - pc);
      const float* acol = a.data + i * a.rs + pc * a.cs;
      const float* brow = b.data + pc * b.rs;
      std::int64_t j = j0;
      for (; j + kSmallW <= j1; j += kSmallW) {
        small_m_tile<true, kUnitCs>(acol, a.cs, brow + j * b.cs, b.rs, b.cs,
                                    kc, kSmallW, c + i * ldc + j);
      }
      if (j < j1) {
        small_m_tile<false, kUnitCs>(acol, a.cs, brow + j * b.cs, b.rs,
                                     b.cs, kc, j1 - j, c + i * ldc + j);
      }
    }
  }
}

void small_m(const MatView& a, const MatView& b, std::int64_t j0,
             std::int64_t j1, float* c, std::int64_t ldc) {
  if (b.cs == 1) {
    small_m_rows<true>(a, b, j0, j1, c, ldc);
  } else {
    small_m_rows<false>(a, b, j0, j1, c, ldc);
  }
}

}  // namespace

const Kernels kKernels{kMR, kNR, pack_b, block, small_m};

}  // namespace chiron::tensor::detail::CHIRON_GEMM_ISA
