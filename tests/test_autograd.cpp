// Autograd correctness: every op's analytic gradient against central finite
// differences, plus graph-machinery edge cases.
#include "ml/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <random>

#include "common/rng.hpp"

namespace ota::ml {
namespace {

// Central finite-difference check of d(loss)/d(param) for an arbitrary
// scalar-producing closure.  Rebuilds the graph per evaluation.
void gradcheck(const std::function<Var()>& build, const Var& param,
               double tol = 1e-6, double h = 1e-6) {
  // Earlier gradchecks in the same test may have accumulated into this
  // parameter; start from a clean slate.
  if (param->grad.same_shape(param->value)) param->grad.zero();
  Var loss = build();
  backward(loss);
  const Tensor analytic = param->grad;
  ASSERT_TRUE(analytic.same_shape(param->value));

  for (int64_t i = 0; i < param->value.size(); ++i) {
    const double saved = param->value.at(i);
    param->value.at(i) = saved + h;
    const double up = build()->value.at(0);
    param->value.at(i) = saved - h;
    const double down = build()->value.at(0);
    param->value.at(i) = saved;
    const double fd = (up - down) / (2.0 * h);
    EXPECT_NEAR(analytic.at(i), fd, tol * std::max(1.0, std::fabs(fd)))
        << "component " << i;
  }
  // Clear accumulated grads for any reuse.
  param->grad.zero();
}

Tensor random_tensor(int64_t r, int64_t c, Rng& rng, double s = 1.0) {
  Tensor t(r, c);
  for (auto& v : t.data()) v = rng.normal(0.0, s);
  return t;
}

class AutogradTest : public ::testing::Test {
 protected:
  Rng rng{7};
};

TEST_F(AutogradTest, MatmulGradient) {
  Var a = parameter(random_tensor(3, 4, rng));
  Var b = parameter(random_tensor(4, 2, rng));
  gradcheck([&] { return sum(matmul(a, b)); }, a);
  gradcheck([&] { return sum(matmul(a, b)); }, b);
}

TEST_F(AutogradTest, MatmulNtGradient) {
  Var a = parameter(random_tensor(3, 4, rng));
  Var b = parameter(random_tensor(5, 4, rng));
  gradcheck([&] { return sum(matmul_nt(a, b)); }, a);
  gradcheck([&] { return sum(matmul_nt(a, b)); }, b);
}

TEST_F(AutogradTest, AddSubMulGradients) {
  Var a = parameter(random_tensor(2, 3, rng));
  Var b = parameter(random_tensor(2, 3, rng));
  gradcheck([&] { return sum(mul(add(a, b), sub(a, b))); }, a);
  gradcheck([&] { return sum(mul(add(a, b), sub(a, b))); }, b);
}

TEST_F(AutogradTest, AddBiasGradient) {
  Var a = parameter(random_tensor(4, 3, rng));
  Var bias = parameter(random_tensor(1, 3, rng));
  gradcheck([&] { return sum(mul(add_bias(a, bias), add_bias(a, bias))); }, bias);
  gradcheck([&] { return sum(mul(add_bias(a, bias), add_bias(a, bias))); }, a);
}

TEST_F(AutogradTest, ScaleAndReluGradients) {
  Var a = parameter(random_tensor(3, 3, rng));
  gradcheck([&] { return sum(relu(scale(a, 2.5))); }, a);
}

TEST_F(AutogradTest, TransposeGradient) {
  Var a = parameter(random_tensor(2, 5, rng));
  Var m = parameter(random_tensor(2, 5, rng));
  gradcheck([&] { return sum(mul(transpose(a), transpose(m))); }, a);
}

TEST_F(AutogradTest, AttentionProbsGradient) {
  Var a = parameter(random_tensor(3, 4, rng));
  Var w = constant(random_tensor(3, 4, rng));
  const auto probs = [&] { return attention_probs(a, 0.7, false, 0.0, false, rng); };
  gradcheck([&] { return sum(mul(probs(), w)); }, a, 1e-5);
}

TEST_F(AutogradTest, AttentionProbsCausalGradient) {
  Var a = parameter(random_tensor(4, 4, rng));
  Var w = constant(random_tensor(4, 4, rng));
  const auto probs = [&] { return attention_probs(a, 0.7, true, 0.0, false, rng); };
  gradcheck([&] { return sum(mul(probs(), w)); }, a, 1e-5);
  // With dropout on: a fresh stream per evaluation keeps the mask fixed.
  gradcheck([&] {
    Rng local(11);
    return sum(mul(attention_probs(a, 0.7, true, 0.3, true, local), w));
  }, a, 1e-5);
}

TEST_F(AutogradTest, CausalMaskZerosUpperTriangle) {
  Var a = constant(random_tensor(3, 3, rng));
  const Var m = attention_probs(a, 1.0, /*causal=*/true, 0.0, false, rng);
  EXPECT_NEAR(m->value(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(m->value(0, 2), 0.0, 1e-12);
  EXPECT_NEAR(m->value(1, 2), 0.0, 1e-12);
  EXPECT_NEAR(m->value(0, 0), 1.0, 1e-12);  // row sums to one on the diagonal
}

// The chain attention_probs fuses, as separate ops: the oracle for its
// bit-for-bit test below.
Var softmax_rows(const Var& a) {
  Tensor out = a->value;
  for (int64_t r = 0; r < out.rows(); ++r) {
    double mx = -1e300;
    for (int64_t c = 0; c < out.cols(); ++c) mx = std::max(mx, out(r, c));
    double denom = 0.0;
    for (int64_t c = 0; c < out.cols(); ++c) {
      out(r, c) = std::exp(out(r, c) - mx);
      denom += out(r, c);
    }
    for (int64_t c = 0; c < out.cols(); ++c) out(r, c) /= denom;
  }
  return make_node(std::move(out), {a}, [a](Node& n) {
    if (!a->requires_grad) return;
    Tensor& g = a->ensure_grad();
    for (int64_t r = 0; r < n.value.rows(); ++r) {
      double dot = 0.0;
      for (int64_t c = 0; c < n.value.cols(); ++c) {
        dot += n.grad(r, c) * n.value(r, c);
      }
      for (int64_t c = 0; c < n.value.cols(); ++c) {
        g(r, c) += n.value(r, c) * (n.grad(r, c) - dot);
      }
    }
  });
}

Var causal_mask(const Var& scores) {
  Tensor out = scores->value;
  for (int64_t r = 0; r < out.rows(); ++r) {
    for (int64_t c = r + 1; c < out.cols(); ++c) out(r, c) = -1e30;
  }
  return make_node(std::move(out), {scores}, [scores](Node& n) {
    if (!scores->requires_grad) return;
    Tensor& g = scores->ensure_grad();
    for (int64_t r = 0; r < n.grad.rows(); ++r) {
      for (int64_t c = 0; c <= std::min(r, n.grad.cols() - 1); ++c) {
        g(r, c) += n.grad(r, c);
      }
    }
  });
}

// Inverted dropout drawing each keep flag from std::bernoulli_distribution.
Var bernoulli_dropout(const Var& a, double p, bool training, Rng& rng) {
  if (!training || p <= 0.0) return a;
  auto mask = std::make_shared<Tensor>(a->value.rows(), a->value.cols());
  const double keep = 1.0 - p;
  for (int64_t i = 0; i < mask->size(); ++i) {
    mask->at(i) = std::bernoulli_distribution(keep)(rng.engine()) ? 1.0 / keep : 0.0;
  }
  Tensor out = a->value;
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) *= mask->at(i);
  return make_node(std::move(out), {a}, [a, mask](Node& n) {
    if (!a->requires_grad) return;
    Tensor& g = a->ensure_grad();
    for (int64_t i = 0; i < g.size(); ++i) g.at(i) += n.grad.at(i) * mask->at(i);
  });
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

TEST_F(AutogradTest, AttentionProbsMatchesSeparateOpsBitForBit) {
  struct Case {
    int64_t rows, cols;
    bool causal;
    double dropout_p;
    double score_offset;  // after scaling; -1e30 puts open scores at the mask value
  };
  const Case cases[] = {
      {5, 5, true, 0.0, 0.0},    {5, 5, true, 0.4, 0.0},
      {7, 7, true, 0.1, 0.0},    {4, 7, false, 0.0, 0.0},
      {7, 4, false, 0.4, 0.0},   {3, 6, true, 0.4, 0.0},
      {6, 3, true, 0.0, 0.0},    {5, 5, true, 0.4, -1e30},
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE(::testing::Message()
                 << tc.rows << "x" << tc.cols << " causal " << tc.causal
                 << " p " << tc.dropout_p << " offset " << tc.score_offset);
    const double inv_sqrt_dk = 1.0 / std::sqrt(6.0);
    Tensor s = random_tensor(tc.rows, tc.cols, rng, 3.0);
    for (auto& v : s.data()) v += tc.score_offset / inv_sqrt_dk;
    // Zeros in the upstream gradient make -0.0 products along the chain.
    Tensor w = random_tensor(tc.rows, tc.cols, rng);
    for (int64_t i = 0; i < w.size(); i += 3) w.at(i) = i % 2 ? -0.0 : 0.0;

    Rng fused_rng(5), chain_rng(5);
    const Var fused_scores = parameter(s);
    const Var fused = attention_probs(fused_scores, inv_sqrt_dk, tc.causal,
                                      tc.dropout_p, true, fused_rng);
    backward(sum(mul(fused, constant(w))));

    const Var chain_scores = parameter(s);
    Var x = scale(chain_scores, inv_sqrt_dk);
    if (tc.causal) x = causal_mask(x);
    const Var chain =
        bernoulli_dropout(softmax_rows(x), tc.dropout_p, true, chain_rng);
    backward(sum(mul(chain, constant(w))));

    EXPECT_TRUE(same_bits(fused->value, chain->value));
    EXPECT_TRUE(same_bits(fused_scores->grad, chain_scores->grad));
    EXPECT_EQ(fused_rng.engine()(), chain_rng.engine()());  // same draws used
  }
}

TEST_F(AutogradTest, AttentionProbsRejectsNonFiniteDropout) {
  Var a = parameter(random_tensor(3, 3, rng));
  for (double p : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(attention_probs(a, 1.0, true, p, true, rng), InvalidArgument);
    EXPECT_THROW(attention_probs(a, 1.0, true, p, false, rng), InvalidArgument);
  }
  EXPECT_THROW(attention_probs(a, 1.0, true, 1.0, true, rng), InvalidArgument);
}

TEST_F(AutogradTest, LayerNormGradient) {
  Var a = parameter(random_tensor(3, 6, rng));
  Var gamma = parameter(random_tensor(1, 6, rng, 0.5));
  Var beta = parameter(random_tensor(1, 6, rng, 0.5));
  Var w = constant(random_tensor(3, 6, rng));
  auto build = [&] { return sum(mul(layer_norm(a, gamma, beta), w)); };
  gradcheck(build, a, 1e-5);
  gradcheck(build, gamma, 1e-5);
  gradcheck(build, beta, 1e-5);
}

TEST_F(AutogradTest, LayerNormNormalizesRows) {
  Var a = constant(random_tensor(2, 8, rng, 3.0));
  Var gamma = constant(Tensor(1, 8, 1.0));
  Var beta = constant(Tensor(1, 8, 0.0));
  const Var o = layer_norm(a, gamma, beta);
  for (int64_t r = 0; r < 2; ++r) {
    double mu = 0.0;
    for (int64_t c = 0; c < 8; ++c) mu += o->value(r, c);
    EXPECT_NEAR(mu / 8.0, 0.0, 1e-9);
  }
}

TEST_F(AutogradTest, EmbeddingGradientScattersByToken) {
  Var table = parameter(random_tensor(5, 3, rng));
  const std::vector<nlp::TokenId> ids{1, 3, 1};
  Var loss = sum(embedding(table, ids));
  backward(loss);
  // Token 1 used twice -> gradient 2 per column; token 3 once; others zero.
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(table->grad(1, c), 2.0);
    EXPECT_DOUBLE_EQ(table->grad(3, c), 1.0);
    EXPECT_DOUBLE_EQ(table->grad(0, c), 0.0);
  }
}

TEST_F(AutogradTest, ConcatColsGradient) {
  Var a = parameter(random_tensor(3, 2, rng));
  Var b = parameter(random_tensor(3, 4, rng));
  Var w = constant(random_tensor(3, 6, rng));
  gradcheck([&] { return sum(mul(concat_cols({a, b}), w)); }, a);
  gradcheck([&] { return sum(mul(concat_cols({a, b}), w)); }, b);
}

TEST_F(AutogradTest, SliceColsGradient) {
  // Two adjacent blocks and one overlapping both, as attention heads read
  // a fused projection (plus an overlap, which must accumulate).
  Var a = parameter(random_tensor(3, 6, rng));
  Var w = constant(random_tensor(3, 2, rng));
  const auto loss = [&] {
    return sum(mul(add(add(slice_cols(a, 0, 2), slice_cols(a, 2, 2)),
                       slice_cols(a, 1, 2)),
                   w));
  };
  gradcheck(loss, a);
  EXPECT_EQ(slice_cols(a, 4, 2)->value(1, 1), a->value(1, 5));
  EXPECT_THROW((void)slice_cols(a, -1, 2), InvalidArgument);
  EXPECT_THROW((void)slice_cols(a, 5, 2), InvalidArgument);
  EXPECT_THROW((void)slice_cols(a, 0, 0), InvalidArgument);
  EXPECT_THROW((void)slice_cols(a, 0, 7), InvalidArgument);
}

TEST_F(AutogradTest, CrossEntropyGradient) {
  Var logits = parameter(random_tensor(4, 6, rng));
  const std::vector<nlp::TokenId> targets{2, 0, 5, 1};
  const std::vector<double> weights{1.0, 1.2, 1.0, 1.2};
  gradcheck([&] { return cross_entropy(logits, targets, weights); }, logits, 1e-5);
}

TEST_F(AutogradTest, CrossEntropyWeightingShiftsLoss) {
  // Increasing the weight on a poorly predicted position raises the loss.
  Tensor t(2, 3);
  t(0, 0) = 5.0;              // position 0 predicts class 0 well
  t(1, 0) = 5.0;              // position 1 predicts class 0 but target is 2
  Var logits = constant(t);
  const std::vector<nlp::TokenId> targets{0, 2};
  const double base =
      cross_entropy(logits, targets, {1.0, 1.0})->value.at(0);
  const double upweighted =
      cross_entropy(logits, targets, {1.0, 2.0})->value.at(0);
  EXPECT_GT(upweighted, base);
}

TEST_F(AutogradTest, DropoutTrainFalseIsIdentity) {
  Var a = parameter(random_tensor(3, 3, rng));
  const Var out = dropout(a, 0.5, /*training=*/false, rng);
  EXPECT_EQ(out.get(), a.get());
}

TEST_F(AutogradTest, DropoutPreservesExpectation) {
  Rng local(99);
  Var a = constant(Tensor(1, 10000, 1.0));
  const Var out = dropout(a, 0.3, /*training=*/true, local);
  double mean = 0.0;
  for (double v : out->value.data()) mean += v;
  mean /= static_cast<double>(out->value.size());
  EXPECT_NEAR(mean, 1.0, 0.05);  // inverted dropout keeps E[x]
}

TEST_F(AutogradTest, DropoutRejectsNonFiniteRate) {
  Var a = parameter(random_tensor(3, 3, rng));
  for (double p : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(dropout(a, p, /*training=*/true, rng), InvalidArgument);
    EXPECT_THROW(dropout(a, p, /*training=*/false, rng), InvalidArgument);
  }
  EXPECT_THROW(dropout(a, 1.0, /*training=*/true, rng), InvalidArgument);
}

TEST_F(AutogradTest, BackwardRequiresScalarRoot) {
  Var a = parameter(random_tensor(2, 2, rng));
  EXPECT_THROW(backward(add(a, a)), InvalidArgument);
}

TEST_F(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Var a = parameter(Tensor(1, 1, 2.0));
  backward(scale(a, 3.0));
  backward(scale(a, 3.0));
  EXPECT_DOUBLE_EQ(a->grad.at(0), 6.0);  // 3 + 3
}

TEST_F(AutogradTest, DiamondGraphAccumulatesBothBranches) {
  // loss = sum(a*a + a): both paths contribute to a's gradient.
  Var a = parameter(Tensor(1, 1, 3.0));
  Var loss = sum(add(mul(a, a), a));
  backward(loss);
  EXPECT_DOUBLE_EQ(a->grad.at(0), 7.0);  // 2*3 + 1
}

}  // namespace
}  // namespace ota::ml
