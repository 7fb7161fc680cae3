#include "ml/baselines.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "util/rng.h"
#include "util/stats.h"

namespace dnsnoise {
namespace {

Dataset blobs(std::uint64_t seed, double separation = 2.0,
              std::size_t per_class = 80) {
  Rng rng(seed);
  Dataset data(3);
  for (std::size_t i = 0; i < per_class; ++i) {
    const double x0[3] = {rng.normal(-separation, 0.7),
                          rng.normal(-separation, 0.7), rng.normal(0, 1)};
    data.add(x0, 0);
    const double x1[3] = {rng.normal(separation, 0.7),
                          rng.normal(separation, 0.7), rng.normal(0, 1)};
    data.add(x1, 1);
  }
  return data;
}

double training_accuracy(BinaryClassifier& model, const Dataset& data) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double p = model.predict_proba(data.features(i));
    if ((p >= 0.5) == (data.label(i) == 1)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

TEST(StandardizerTest, ZeroMeanUnitVariance) {
  const Dataset data = blobs(1);
  Standardizer standardizer;
  standardizer.fit(data);
  OnlineStats stats[3];
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto z = standardizer.transform(data.features(i));
    for (int d = 0; d < 3; ++d) stats[d].add(z[static_cast<std::size_t>(d)]);
  }
  for (int d = 0; d < 3; ++d) {
    EXPECT_NEAR(stats[d].mean(), 0.0, 1e-9);
    EXPECT_NEAR(stats[d].variance(), 1.0, 1e-6);
  }
}

TEST(StandardizerTest, ConstantFeatureDoesNotBlowUp) {
  Dataset data(1);
  for (int i = 0; i < 10; ++i) {
    const double x[1] = {5.0};
    data.add(x, i % 2);
  }
  Standardizer standardizer;
  standardizer.fit(data);
  const double x[1] = {5.0};
  EXPECT_TRUE(std::isfinite(standardizer.transform(x)[0]));
}

TEST(StandardizerTest, DimensionMismatchThrows) {
  const Dataset data = blobs(2);
  Standardizer standardizer;
  standardizer.fit(data);
  const double bad[1] = {0.0};
  EXPECT_THROW(standardizer.transform(bad), std::invalid_argument);
}

struct ModelCase {
  const char* name;
  std::unique_ptr<BinaryClassifier> (*make)();
};

// CTest names each case after its printed parameter; gtest's default
// print would embed the name's and the factory's addresses, which differ
// on every run, so print the model name instead.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class BaselineAccuracyTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(BaselineAccuracyTest, LearnsSeparableBlobs) {
  const Dataset data = blobs(42);
  auto model = GetParam().make();
  model->train(data);
  EXPECT_GT(training_accuracy(*model, data), 0.95) << GetParam().name;
}

TEST_P(BaselineAccuracyTest, ProbabilitiesInRange) {
  const Dataset data = blobs(43);
  auto model = GetParam().make();
  model->train(data);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const double x[3] = {rng.uniform(-10, 10), rng.uniform(-10, 10),
                         rng.uniform(-10, 10)};
    const double p = model->predict_proba(x);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_P(BaselineAccuracyTest, EmptyDatasetThrows) {
  auto model = GetParam().make();
  EXPECT_THROW(model->train(Dataset(3)), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Models, BaselineAccuracyTest,
    ::testing::Values(
        ModelCase{"naive-bayes",
                  []() -> std::unique_ptr<BinaryClassifier> {
                    return std::make_unique<GaussianNaiveBayes>();
                  }},
        ModelCase{"knn",
                  []() -> std::unique_ptr<BinaryClassifier> {
                    return std::make_unique<KnnClassifier>(5);
                  }},
        ModelCase{"logistic",
                  []() -> std::unique_ptr<BinaryClassifier> {
                    return std::make_unique<LogisticRegression>();
                  }},
        ModelCase{"mlp", []() -> std::unique_ptr<BinaryClassifier> {
                    return std::make_unique<Mlp>();
                  }}));

TEST(NaiveBayesTest, RespectsPriors) {
  Rng rng(3);
  Dataset data(1);
  for (int i = 0; i < 95; ++i) {
    const double x[1] = {rng.normal(0, 1)};
    data.add(x, 1);
  }
  for (int i = 0; i < 5; ++i) {
    const double x[1] = {rng.normal(0, 1)};
    data.add(x, 0);
  }
  GaussianNaiveBayes model;
  model.train(data);
  const double x[1] = {0.0};
  EXPECT_GT(model.predict_proba(x), 0.7);
}

TEST(KnnTest, SingleNeighborMemorizes) {
  Dataset data(1);
  const double a[1] = {0.0};
  const double b[1] = {10.0};
  data.add(a, 0);
  data.add(b, 1);
  KnnClassifier model(1);
  model.train(data);
  EXPECT_LT(model.predict_proba(a), 0.5);
  EXPECT_GT(model.predict_proba(b), 0.5);
}

TEST(LogisticTest, LearnsLinearBoundaryDirection) {
  Rng rng(5);
  Dataset data(2);
  for (int i = 0; i < 200; ++i) {
    const double x[2] = {rng.uniform(-2, 2), rng.uniform(-2, 2)};
    data.add(x, x[0] + x[1] > 0 ? 1 : 0);
  }
  LogisticRegression model;
  model.train(data);
  const double pos[2] = {1.5, 1.5};
  const double neg[2] = {-1.5, -1.5};
  EXPECT_GT(model.predict_proba(pos), 0.9);
  EXPECT_LT(model.predict_proba(neg), 0.1);
}

TEST(MlpTest, DeterministicForFixedSeed) {
  const Dataset data = blobs(6);
  MlpConfig config;
  config.epochs = 50;
  Mlp a(config);
  Mlp b(config);
  a.train(data);
  b.train(data);
  const double x[3] = {0.3, -0.7, 1.1};
  EXPECT_DOUBLE_EQ(a.predict_proba(x), b.predict_proba(x));
}

TEST(MlpTest, LearnsNonlinearBoundary) {
  Rng rng(8);
  Dataset data(2);
  for (int i = 0; i < 400; ++i) {
    const double x[2] = {rng.uniform(-2, 2), rng.uniform(-2, 2)};
    // Circle: inside vs outside radius 1.2.
    data.add(x, x[0] * x[0] + x[1] * x[1] < 1.44 ? 1 : 0);
  }
  MlpConfig config;
  config.hidden = 24;
  config.epochs = 400;
  Mlp model(config);
  model.train(data);
  EXPECT_GT(training_accuracy(model, data), 0.9);
}

}  // namespace
}  // namespace dnsnoise
