// Cache-blocked packed SGEMM — the single kernel behind tensor::matmul,
// tensor::matmul_bt and tensor::matmul_at.
//
// Architecture (BLIS-style, see DESIGN.md §5.7):
//
//   for jc over N in NC panels            (outer: column strip of C)
//     for pc over K in KC panels          (serial: fixes reduction order)
//       pack B[pc:pc+kc, jc:jc+nc] into NR-interleaved panels   (parallel)
//       for ic over M in MC blocks        (parallel: disjoint C rows)
//         pack A[ic:ic+mc, pc:pc+kc] into MR-interleaved panels
//         for each NR column panel × MR row panel:
//           MR×NR register micro-kernel over the kc-long dot products
//
// Products with fewer rows than one MR panel skip packing: a direct loop
// streams B in place (parallel over column chunks) with the same per-K-panel
// summation, so it is bit-identical to the packed path.
//
// Both operands are consumed through a strided MatView, so the transposed
// variants (B^T stored row-major, A^T stored row-major) reuse the same
// packing and micro-kernel — the stride disappears at pack time and the
// inner loops always stream unit-stride packed panels.
//
// ISA dispatch: the packing, micro-kernel and small-M loops are compiled
// three times from one source (gemm_kernels.cpp) — baseline x86-64, AVX2
// and AVX-512, each in its own namespace and with -ffp-contract=off — and
// gemm_acc picks one copy once per process from the CPU's features (or the
// CHIRON_ISA override). Vector width and tile geometry never change values,
// so every copy produces the same bits.
//
// Determinism contract: the tile grid and panel schedule depend only on
// (m, n, k) and the block constants — never on the thread count. Every C
// element is accumulated by exactly one task per K panel, K panels are
// visited serially in ascending order, and each panel's sum starts from
// 0.f and adds a·b in ascending kk before being added to C, so results
// are bit-identical from --threads 1 to --threads N and across ISAs.
// Ragged edges are handled by zero-padding the packed panels to full MR/NR
// tiles: the padded lanes contribute exact 0.f terms, so edge elements see
// the same arithmetic as interior ones.
#pragma once

#include <cstdint>
#include <string_view>

namespace chiron::tensor {

/// Instruction-set variants of the GEMM kernels, narrowest first.
enum class Isa { kBaseline = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kNumIsas = 3;

/// "baseline", "avx2" or "avx512" — the spelling CHIRON_ISA accepts.
const char* isa_name(Isa isa);

/// Bit set of Isa values (bit i = Isa(i)).
using IsaSet = unsigned;
constexpr IsaSet isa_bit(Isa isa) { return 1u << static_cast<int>(isa); }

/// The variants this binary was built with and the host CPU can run.
/// Always contains kBaseline.
IsaSet host_isas();

/// Resolves a CHIRON_ISA value against `supported`: empty picks the widest
/// supported variant; "baseline", "avx2" or "avx512" picks that one.
/// Throws InvariantError for an unknown name or a variant not in
/// `supported`, so a bad override never reaches an illegal instruction.
Isa select_isa(std::string_view requested, IsaSet supported);

/// The variant gemm_acc runs: select_isa(CHIRON_ISA, host_isas()), resolved
/// on first use and fixed for the process.
Isa active_isa();

}  // namespace chiron::tensor

namespace chiron::tensor::detail {

// Panel sizes, shared by every ISA. KC covers every K that occurs in the
// repo's models (the largest is the N=100 exterior policy's 602-wide
// state: two panels), and because it is the same on every ISA the
// per-element summation order is too. MC keeps a packed A block (MC×KC
// floats) inside L2. The per-ISA micro-tile MR×NR lives with the kernels.
inline constexpr std::int64_t kKC = 512;
inline constexpr std::int64_t kMC = 64;  // multiple of every ISA's MR
inline constexpr std::int64_t kNC = 1024;

/// Strided read-only matrix view: element (r, c) is data[r*rs + c*cs].
struct MatView {
  const float* data;
  std::int64_t rows, cols;
  std::int64_t rs, cs;
};

/// C(m×n, row-major, leading dimension ldc) += A · B where A is an m×k
/// view and B is a k×n view. The caller zeroes C for plain products.
void gemm_acc(const MatView& a, const MatView& b, float* c, std::int64_t ldc);

/// MR (rows of one micro-tile) of the given variant's kernels; products
/// with fewer rows take the unpacked small-M path.
int isa_mr(Isa isa);

/// Test hook: while alive, gemm_acc runs `isa` instead of active_isa().
/// Throws InvariantError if the host cannot run `isa`. Construct and
/// destroy it only while no GEMM runs on another thread.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  int prev_;
};

}  // namespace chiron::tensor::detail
