// Attack suite: oracles, the six attacks, the runner — and the paper's
// headline behaviour: white-box attacks succeed against clear models and
// largely fail against PELTA-shielded ones.
#include <gtest/gtest.h>

#include "attacks/runner.h"
#include "models/mlp.h"
#include "models/trainer.h"
#include "models/zoo.h"
#include "tensor/ops.h"

namespace pelta::attacks {
namespace {

// One shared trained fixture (training once keeps the suite fast).
struct fixture {
  data::dataset ds;
  std::unique_ptr<models::vit_model> vit;
  std::unique_ptr<models::resnet_model> bit;

  fixture()
      : ds{[] {
          data::dataset_config c = data::cifar10_like();
          c.classes = 4;
          c.train_per_class = 60;
          c.test_per_class = 20;
          return c;
        }()} {
    models::vit_config vc;
    vc.name = "tiny-vit";
    vc.image_size = 16;
    vc.patch_size = 4;
    vc.dim = 16;
    vc.heads = 2;
    vc.blocks = 2;
    vc.mlp_hidden = 32;
    vc.classes = 4;
    vit = std::make_unique<models::vit_model>(vc);

    models::resnet_config rc;
    rc.name = "tiny-bit";
    rc.flavor = models::resnet_flavor::groupnorm_ws;
    rc.stage_widths = {8, 16};
    rc.blocks_per_stage = 1;
    rc.classes = 4;
    bit = std::make_unique<models::resnet_model>(rc);

    models::train_config tc;
    tc.epochs = 10;
    tc.batch_size = 16;
    tc.lr = 4e-3f;
    models::train_model(*vit, ds, tc);
    models::train_model(*bit, ds, tc);
  }

  static const fixture& get() {
    static fixture f;
    return f;
  }
};

TEST(ProjectLinf, StaysInBallAndPixelRange) {
  rng g{1};
  const tensor x0 = tensor::rand_uniform(g, {3, 4, 4});
  const tensor far = tensor::rand_uniform(g, {3, 4, 4}, -2.0f, 3.0f);
  const tensor p = project_linf(far, x0, 0.1f);
  EXPECT_LE(linf_distance(p, x0), 0.1f + 1e-6f);
  for (float v : p.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(ProjectLinf, InsideBallUntouched) {
  rng g{2};
  const tensor x0 = tensor::rand_uniform(g, {8}, 0.3f, 0.7f);
  tensor x = x0;
  x.add_scaled_(tensor::ones({8}), 0.01f);
  const tensor p = project_linf(x, x0, 0.05f);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(p[i], x[i]);
}

TEST(ClearOracle, GradientIsDirectionOfLossIncrease) {
  const fixture& f = fixture::get();
  auto oracle = make_clear_oracle(*f.vit);
  const tensor x0 = f.ds.test_image(0);
  const std::int64_t y = f.ds.test_label(0);

  const oracle_result q = oracle->query(x0, y);
  EXPECT_TRUE(q.gradient.same_shape(x0));
  EXPECT_GT(ops::norm_l2(q.gradient), 0.0f);
  EXPECT_EQ(q.logits.numel(), 4);

  // Directional-derivative check: stepping along the gradient must raise
  // the loss.
  tensor x1 = x0;
  x1.add_scaled_(q.gradient, 1e-2f / ops::norm_l2(q.gradient));
  const oracle_result q1 = oracle->query(x1, y);
  EXPECT_GT(q1.loss, q.loss);
  EXPECT_EQ(oracle->queries(), 2);
}

TEST(ClearOracle, LogitSeedSelectsObjective) {
  const fixture& f = fixture::get();
  auto oracle = make_clear_oracle(*f.vit);
  const tensor x0 = f.ds.test_image(1);
  tensor seed = tensor::zeros({4});
  seed[2] = 1.0f;  // objective = Z_2
  const oracle_result q = oracle->query_logit_seed(x0, seed);
  EXPECT_NEAR(q.loss, q.logits[2], 1e-5f);
  EXPECT_TRUE(q.gradient.same_shape(x0));
}

TEST(ShieldedOracle, SubstituteGradientHasInputShape) {
  const fixture& f = fixture::get();
  for (const models::model* m : {static_cast<const models::model*>(f.vit.get()),
                                 static_cast<const models::model*>(f.bit.get())}) {
    auto oracle = make_shielded_oracle(*m, 77);
    const oracle_result q = oracle->query(f.ds.test_image(2), f.ds.test_label(2));
    EXPECT_TRUE(q.gradient.same_shape(f.ds.test_image(2))) << m->name();
    EXPECT_GT(ops::norm_l2(q.gradient), 0.0f) << m->name();
  }
}

TEST(ShieldedOracle, SubstituteDivergesFromTrueGradient) {
  const fixture& f = fixture::get();
  auto clear = make_clear_oracle(*f.vit);
  auto shielded = make_shielded_oracle(*f.vit, 78);
  const tensor x0 = f.ds.test_image(3);
  const std::int64_t y = f.ds.test_label(3);
  const tensor g_true = clear->query(x0, y).gradient;
  const tensor g_sub = shielded->query(x0, y).gradient;
  // cosine similarity of sign patterns should be far from 1
  const float agree = ops::dot(ops::sign(g_true), ops::sign(g_sub)) /
                      static_cast<float>(g_true.numel());
  EXPECT_LT(agree, 0.8f);
}

TEST(ShieldedOracle, ResetRedrawsKernel) {
  const fixture& f = fixture::get();
  auto oracle = make_shielded_oracle(*f.vit, 79);
  const tensor x0 = f.ds.test_image(4);
  const tensor g1 = oracle->query(x0, f.ds.test_label(4)).gradient;
  rng g{80};
  oracle->reset(g);
  const tensor g2 = oracle->query(x0, f.ds.test_label(4)).gradient;
  EXPECT_GT(ops::norm_linf(ops::sub(g1, g2)), 1e-6f);
}

TEST(ShieldedOracle, EnclaveAccumulatesWorstCaseFootprint) {
  const fixture& f = fixture::get();
  tee::enclave enclave;
  auto oracle = make_shielded_oracle(*f.vit, 81, &enclave);
  oracle->query(f.ds.test_image(5), f.ds.test_label(5));
  const std::int64_t after_one = enclave.used_bytes();
  EXPECT_GT(after_one, 0);
  oracle->query(f.ds.test_image(5), f.ds.test_label(5));
  EXPECT_EQ(enclave.used_bytes(), after_one);  // idempotent keys, no growth
}

TEST(AttentionRollout, UnitMeanPositiveSaliency) {
  const fixture& f = fixture::get();
  auto oracle = make_clear_oracle(*f.vit);
  const tensor phi = oracle->attention_saliency(f.ds.test_image(6));
  EXPECT_TRUE(phi.same_shape(f.ds.test_image(6)));
  for (float v : phi.data()) EXPECT_GE(v, 0.0f);
  EXPECT_NEAR(ops::mean(phi), 1.0f, 1e-3f);
}

TEST(AttentionRollout, CnnThrows) {
  const fixture& f = fixture::get();
  auto oracle = make_clear_oracle(*f.bit);
  EXPECT_THROW(oracle->attention_saliency(f.ds.test_image(0)), error);
}

// ---- attack behaviour on the clear (unshielded) model -----------------------

TEST(ClearAttacks, PgdDefeatsUnshieldedModel) {
  const fixture& f = fixture::get();
  const suite_params p = table2_cifar_params();
  const robust_eval r = evaluate_attack(*f.vit, f.ds, attack_kind::pgd, p,
                                        clear_oracle_factory(*f.vit), 30, 5);
  EXPECT_LE(r.robust_accuracy, 0.15f) << "PGD should defeat the open white box";
}

TEST(ClearAttacks, FgsmWeakerThanPgd) {
  const fixture& f = fixture::get();
  const suite_params p = table2_cifar_params();
  const robust_eval fgsm = evaluate_attack(*f.vit, f.ds, attack_kind::fgsm, p,
                                           clear_oracle_factory(*f.vit), 30, 5);
  const robust_eval pgd = evaluate_attack(*f.vit, f.ds, attack_kind::pgd, p,
                                          clear_oracle_factory(*f.vit), 30, 5);
  EXPECT_GE(fgsm.robust_accuracy, pgd.robust_accuracy);
}

TEST(ClearAttacks, AllIterativeAttacksStayInBall) {
  const fixture& f = fixture::get();
  const suite_params p = table2_cifar_params();
  const tensor x0 = f.ds.test_image(7);
  const std::int64_t y = f.ds.test_label(7);
  auto oracle = make_clear_oracle(*f.vit);
  rng g{6};

  fgsm_config fc;
  fc.eps = p.eps;
  EXPECT_LE(linf_distance(run_fgsm(*oracle, x0, y, fc).adversarial, x0), p.eps + 1e-5f);

  pgd_config pc;
  pc.eps = p.eps;
  pc.eps_step = p.eps_step;
  pc.steps = 10;
  EXPECT_LE(linf_distance(run_pgd(*oracle, x0, y, pc).adversarial, x0), p.eps + 1e-5f);

  mim_config mc;
  mc.eps = p.eps;
  mc.eps_step = p.eps_step;
  mc.steps = 10;
  EXPECT_LE(linf_distance(run_mim(*oracle, x0, y, mc).adversarial, x0), p.eps + 1e-5f);

  apgd_config ac;
  ac.eps = p.eps;
  ac.max_queries = 20;
  EXPECT_LE(linf_distance(run_apgd(*oracle, x0, y, ac, g).adversarial, x0), p.eps + 1e-5f);
}

TEST(ClearAttacks, CwFindsSmallPerturbation) {
  const fixture& f = fixture::get();
  auto oracle = make_clear_oracle(*f.vit);
  cw_config c;
  c.steps = 40;
  c.eps_step = 0.01f;
  c.c = 20.0f;
  std::int64_t fooled = 0;
  for (std::int64_t i = 0; i < 10; ++i) {
    const attack_result r = run_cw(*oracle, f.ds.test_image(i), f.ds.test_label(i), c);
    if (r.misclassified) ++fooled;
  }
  EXPECT_GE(fooled, 6);
}

TEST(ClearAttacks, TrajectoryTraceRecordsSteps) {
  const fixture& f = fixture::get();
  auto oracle = make_clear_oracle(*f.vit);
  pgd_config c;
  c.eps = 0.031f;
  c.eps_step = 0.0031f;
  c.steps = 8;
  c.early_stop = false;
  c.trace = true;
  const attack_result r = run_pgd(*oracle, f.ds.test_image(8), f.ds.test_label(8), c);
  ASSERT_GE(r.trajectory.size(), 2u);
  // l∞ distance grows monotonically from 0 and stays inside the ball.
  EXPECT_FLOAT_EQ(r.trajectory.front().linf_from_origin, 0.0f);
  for (const auto& pt : r.trajectory) EXPECT_LE(pt.linf_from_origin, 0.031f + 1e-5f);
}

// ---- the paper's central claim ------------------------------------------------

TEST(ShieldedAttacks, PeltaLiftsRobustAccuracy) {
  const fixture& f = fixture::get();
  const suite_params p = table2_cifar_params();
  for (const models::model* m : {static_cast<const models::model*>(f.vit.get()),
                                 static_cast<const models::model*>(f.bit.get())}) {
    const robust_eval clear = evaluate_attack(*m, f.ds, attack_kind::pgd, p,
                                              clear_oracle_factory(*m), 30, 7);
    const robust_eval shielded = evaluate_attack(*m, f.ds, attack_kind::pgd, p,
                                                 shielded_oracle_factory(*m), 30, 7);
    EXPECT_GT(shielded.robust_accuracy, clear.robust_accuracy + 0.4f)
        << m->name() << ": clear=" << clear.robust_accuracy
        << " shielded=" << shielded.robust_accuracy;
  }
}

TEST(ShieldedAttacks, RandomUniformBaselineIsWeak) {
  const fixture& f = fixture::get();
  const robust_eval r = evaluate_random_uniform(*f.vit, f.ds, 0.031f, 40, 8);
  EXPECT_GE(r.robust_accuracy, 0.8f);
}

TEST(Saga, DefeatsUnshieldedEnsembleMembers) {
  const fixture& f = fixture::get();
  suite_params p = table2_cifar_params();
  p.saga_steps = 25;
  const saga_eval r = evaluate_saga(*f.vit, *f.bit, f.ds, false, false, p, 25, 9);
  EXPECT_LE(r.vit_robust_accuracy, 0.5f);
  EXPECT_LE(r.cnn_robust_accuracy, 0.5f);
}

TEST(Saga, FullShieldProtectsEnsemble) {
  const fixture& f = fixture::get();
  suite_params p = table2_cifar_params();
  p.saga_steps = 25;
  const saga_eval none = evaluate_saga(*f.vit, *f.bit, f.ds, false, false, p, 25, 9);
  const saga_eval both = evaluate_saga(*f.vit, *f.bit, f.ds, true, true, p, 25, 9);
  EXPECT_GT(both.ensemble_robust_accuracy, none.ensemble_robust_accuracy + 0.3f);
}

TEST(Saga, PartialShieldYieldsHalfProtection) {
  // Shield only the ViT: SAGA chases the clear BiT loss; random selection
  // lands the ensemble near 50% (Table IV signature).
  const fixture& f = fixture::get();
  suite_params p = table2_cifar_params();
  p.saga_steps = 25;
  const saga_eval r = evaluate_saga(*f.vit, *f.bit, f.ds, true, false, p, 30, 10);
  EXPECT_GT(r.ensemble_robust_accuracy, 0.25f);
  EXPECT_LT(r.ensemble_robust_accuracy, 0.85f);
  EXPECT_GT(r.vit_robust_accuracy, r.cnn_robust_accuracy);
}

TEST(Runner, DeterministicAcrossRuns) {
  const fixture& f = fixture::get();
  const suite_params p = table2_cifar_params();
  const robust_eval a = evaluate_attack(*f.vit, f.ds, attack_kind::pgd, p,
                                        shielded_oracle_factory(*f.vit), 15, 11);
  const robust_eval b = evaluate_attack(*f.vit, f.ds, attack_kind::pgd, p,
                                        shielded_oracle_factory(*f.vit), 15, 11);
  EXPECT_EQ(a.attack_successes, b.attack_successes);
  EXPECT_FLOAT_EQ(a.robust_accuracy, b.robust_accuracy);
}

TEST(Runner, RespectsSampleBudget) {
  const fixture& f = fixture::get();
  const auto idx = correctly_classified_indices(*f.vit, f.ds, 12);
  EXPECT_LE(idx.size(), 12u);
  for (std::int64_t i : idx)
    EXPECT_EQ(models::predict_one(*f.vit, f.ds.test_image(i)), f.ds.test_label(i));
}

TEST(Runner, CandidatesSkipAMisclassifiedPrefix) {
  // The test split is class-major, and a model that always answers the last
  // class gets every index before that class's block wrong: the candidates
  // start deep into the split, past several prediction prefixes.
  data::dataset_config dc;
  dc.train_per_class = 1;
  dc.test_per_class = 6;
  const data::dataset ds{dc};
  models::mlp_model constant{models::mlp_config{}};
  nn::param_store& store = constant.params();
  for (std::size_t i = 0; i < store.size(); ++i) store.at(i).value.fill_(0.0f);
  tensor& head_bias = store.at(store.size() - 1).value;
  ASSERT_EQ(head_bias.numel(), dc.classes);
  head_bias[dc.classes - 1] = 1.0f;
  const std::int64_t first = (dc.classes - 1) * dc.test_per_class;
  EXPECT_EQ(correctly_classified_indices(constant, ds, 1), (std::vector<std::int64_t>{first}));
  EXPECT_EQ(correctly_classified_indices(constant, ds, 4),
            (std::vector<std::int64_t>{first, first + 1, first + 2, first + 3}));
  EXPECT_EQ(correctly_classified_indices(constant, ds, 100).size(),
            static_cast<std::size_t>(dc.test_per_class));
  EXPECT_TRUE(correctly_classified_indices(constant, ds, 0).empty());

  // An untrained model: the first correct ones of a whole-split prediction.
  const models::mlp_model untrained{models::mlp_config{}};
  const tensor preds = models::predict(untrained, ds.test_images());
  for (const std::int64_t max_samples : {1, 3, 7, 100}) {
    std::vector<std::int64_t> want;
    for (std::int64_t i = 0;
         i < ds.test_size() && static_cast<std::int64_t>(want.size()) < max_samples; ++i)
      if (static_cast<std::int64_t>(preds[i]) == ds.test_label(i)) want.push_back(i);
    EXPECT_EQ(correctly_classified_indices(untrained, ds, max_samples), want)
        << "max_samples=" << max_samples;
  }
}

TEST(Runner, AttackNames) {
  EXPECT_STREQ(attack_name(attack_kind::fgsm), "FGSM");
  EXPECT_STREQ(attack_name(attack_kind::apgd), "APGD");
  EXPECT_STREQ(attack_name(attack_kind::cw), "C&W");
}

TEST(Params, Table2PresetsMatchPaper) {
  const suite_params c = table2_cifar_params();
  EXPECT_FLOAT_EQ(c.eps, 0.031f);
  EXPECT_FLOAT_EQ(c.eps_step, 0.00155f);
  EXPECT_EQ(c.pgd_steps, 20);
  EXPECT_FLOAT_EQ(c.mim_mu, 1.0f);
  EXPECT_FLOAT_EQ(c.apgd_rho, 0.75f);
  EXPECT_FLOAT_EQ(c.cw_confidence, 50.0f);
  EXPECT_EQ(c.cw_steps, 30);
  EXPECT_FLOAT_EQ(c.saga_alpha_k, 2.0e-4f);

  const suite_params i = table2_imagenet_params();
  EXPECT_FLOAT_EQ(i.eps, 0.062f);
  EXPECT_FLOAT_EQ(i.eps_step, 0.0031f);
  EXPECT_FLOAT_EQ(i.saga_alpha_k, 0.001f);

  EXPECT_FLOAT_EQ(params_for_dataset("cifar10_like").eps, 0.031f);
  EXPECT_FLOAT_EQ(params_for_dataset("imagenet_like").eps, 0.062f);
}

}  // namespace
}  // namespace pelta::attacks
