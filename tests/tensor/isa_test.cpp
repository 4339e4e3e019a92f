// ISA dispatch of the GEMM kernels (tensor/gemm.h). Every variant the host
// can run must produce the baseline's exact bytes — for all three matmul
// forms, for every M around each variant's MR (which decides small-M vs
// packed), ragged N, K past one KC panel, and after 20 SGD steps of the
// paper CNN — at --threads 1 and 8. Also pins CHIRON_ISA parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "runtime/runtime.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace chiron::tensor {
namespace {

std::vector<Isa> wider_isas() {
  std::vector<Isa> out;
  for (int i = 1; i < kNumIsas; ++i)
    if ((host_isas() & isa_bit(static_cast<Isa>(i))) != 0)
      out.push_back(static_cast<Isa>(i));
  return out;
}

bool same_bytes(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.size()) * sizeof(float)) == 0;
}

// matmul, matmul_bt (B^T as a strided view) and matmul_at (A^T as a
// strided view) of the same logical product.
std::vector<Tensor> products(const Tensor& a, const Tensor& b,
                             const Tensor& a_t, const Tensor& b_t) {
  return {matmul(a, b), matmul_bt(a, b_t), matmul_at(a_t, b)};
}

struct KN {
  std::int64_t k, n;
};

TEST(GemmIsa, EveryVariantMatchesBaselineBits) {
  int max_mr = 0;
  for (int i = 0; i < kNumIsas; ++i)
    max_mr = std::max(max_mr, detail::isa_mr(static_cast<Isa>(i)));
  // 602×64 is the N=100 exterior policy's first layer (K > KC); 1100 spans
  // three K panels; N = 37, 300 and 1 leave ragged column tiles.
  const KN kns[] = {{602, 64}, {1100, 37}, {5, 300}, {40, 1}};
  for (int threads : {1, 8}) {
    runtime::set_threads(threads);
    for (std::int64_t m = 1; m <= max_mr + 1; ++m) {
      for (const KN& kn : kns) {
        Rng rng(static_cast<std::uint64_t>(m * 7919 + kn.k * 31 + kn.n));
        const Tensor a = Tensor::uniform({m, kn.k}, rng, -1.f, 1.f);
        const Tensor b = Tensor::uniform({kn.k, kn.n}, rng, -1.f, 1.f);
        const Tensor a_t = transpose(a), b_t = transpose(b);
        std::vector<Tensor> want;
        {
          detail::ScopedIsa use(Isa::kBaseline);
          want = products(a, b, a_t, b_t);
        }
        for (Isa isa : wider_isas()) {
          detail::ScopedIsa use(isa);
          const std::vector<Tensor> got = products(a, b, a_t, b_t);
          for (std::size_t v = 0; v < got.size(); ++v) {
            EXPECT_TRUE(same_bytes(got[v], want[v]))
                << isa_name(isa) << " threads=" << threads << " m=" << m
                << " k=" << kn.k << " n=" << kn.n << " variant=" << v;
          }
        }
      }
    }
  }
  runtime::set_threads(0);
}

std::uint64_t fnv1a(std::uint64_t h, const Tensor& t) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.size()) * 4; ++i)
    h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

// 20 SGD steps of the paper CNN, then an eval forward, an M=1 matmul and a
// K > KC matmul, all folded into one hash.
std::uint64_t paper_cnn_hash() {
  Rng rng(2021);
  auto net = nn::make_mnist_cnn(rng);
  nn::Sgd opt(net->params(), 0.05);
  nn::SoftmaxCrossEntropy loss;
  const Tensor x = Tensor::uniform({10, 1, 28, 28}, rng);
  const std::vector<int> labels{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (int step = 0; step < 20; ++step) {
    opt.zero_grad();
    loss.forward(net->forward(x, true), labels);
    net->backward(loss.backward());
    opt.step();
  }
  std::uint64_t h = 1469598103934665603ull;
  for (const nn::Param* p : net->params()) h = fnv1a(h, p->value);
  h = fnv1a(h, net->forward(x, false));
  const Tensor w = Tensor::uniform({602, 64}, rng, -1.f, 1.f);
  h = fnv1a(h, matmul(Tensor::uniform({1, 602}, rng, -1.f, 1.f), w));
  h = fnv1a(h, matmul(Tensor::uniform({21, 602}, rng, -1.f, 1.f), w));
  return h;
}

TEST(GemmIsa, PaperCnnTrainingHashIsIsaIndependent) {
  for (int threads : {1, 8}) {
    runtime::set_threads(threads);
    std::uint64_t want = 0;
    {
      detail::ScopedIsa use(Isa::kBaseline);
      want = paper_cnn_hash();
    }
    for (Isa isa : wider_isas()) {
      detail::ScopedIsa use(isa);
      EXPECT_EQ(paper_cnn_hash(), want)
          << isa_name(isa) << " threads=" << threads;
    }
  }
  runtime::set_threads(0);
}

TEST(GemmIsa, SelectPicksWidestSupportedByDefault) {
  const IsaSet all = isa_bit(Isa::kBaseline) | isa_bit(Isa::kAvx2) |
                     isa_bit(Isa::kAvx512);
  EXPECT_EQ(select_isa("", all), Isa::kAvx512);
  EXPECT_EQ(select_isa("", isa_bit(Isa::kBaseline) | isa_bit(Isa::kAvx2)),
            Isa::kAvx2);
  EXPECT_EQ(select_isa("", isa_bit(Isa::kBaseline)), Isa::kBaseline);
  EXPECT_EQ(select_isa("baseline", all), Isa::kBaseline);
  EXPECT_EQ(select_isa("avx2", all), Isa::kAvx2);
  EXPECT_EQ(select_isa("avx512", all), Isa::kAvx512);
  for (int i = 0; i < kNumIsas; ++i)
    EXPECT_EQ(select_isa(isa_name(static_cast<Isa>(i)), all),
              static_cast<Isa>(i));
}

TEST(GemmIsa, SelectRejectsUnknownOrUnsupportedNames) {
  const IsaSet base = isa_bit(Isa::kBaseline);
  for (const char* bad : {"AVX2", "avx", "avx512f", "native", "sse2", " avx2",
                          "baseline ", "0", "avx2,avx512"}) {
    EXPECT_THROW(select_isa(bad, base | isa_bit(Isa::kAvx2) |
                                     isa_bit(Isa::kAvx512)),
                 InvariantError)
        << "'" << bad << "'";
  }
  // A known name the CPU (or build) cannot run is an error, never a
  // silent fallback and never an illegal instruction.
  EXPECT_THROW(select_isa("avx2", base), InvariantError);
  EXPECT_THROW(select_isa("avx512", base | isa_bit(Isa::kAvx2)),
               InvariantError);
  EXPECT_THROW(select_isa("", isa_bit(Isa::kAvx2)), InvariantError);
}

TEST(GemmIsa, HostAlwaysRunsBaselineAndActiveIsSupported) {
  EXPECT_NE(host_isas() & isa_bit(Isa::kBaseline), 0u);
  EXPECT_NE(host_isas() & isa_bit(active_isa()), 0u);
  {
    detail::ScopedIsa use(Isa::kBaseline);
    EXPECT_EQ(active_isa(), Isa::kBaseline);
  }
  for (int i = 0; i < kNumIsas; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if ((host_isas() & isa_bit(isa)) == 0) {
      EXPECT_THROW(detail::ScopedIsa use(isa), InvariantError);
    }
  }
}

}  // namespace
}  // namespace chiron::tensor
