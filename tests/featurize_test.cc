#include "graph/featurize.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace hap {
namespace {

TEST(FeaturizeTest, DegreeOneHot) {
  Graph g = Star(4);  // hub degree 3, leaves degree 1
  FeatureSpec spec{FeatureKind::kDegreeOneHot, 8, 0};
  Tensor h = NodeFeatures(g, spec);
  EXPECT_EQ(h.rows(), 4);
  EXPECT_EQ(h.cols(), 8);
  EXPECT_EQ(h.At(0, 3), 1.0f);
  EXPECT_EQ(h.At(1, 1), 1.0f);
  // Exactly one hot per row.
  for (int r = 0; r < 4; ++r) {
    float sum = 0;
    for (int c = 0; c < 8; ++c) sum += h.At(r, c);
    EXPECT_EQ(sum, 1.0f);
  }
}

TEST(FeaturizeTest, DegreeOneHotClampsAtWidth) {
  Graph g = Star(10);  // hub degree 9
  FeatureSpec spec{FeatureKind::kDegreeOneHot, 4, 0};
  Tensor h = NodeFeatures(g, spec);
  EXPECT_EQ(h.At(0, 3), 1.0f);  // Clamped into the top bucket.
}

TEST(FeaturizeTest, NodeLabelOneHot) {
  Graph g(2);
  g.set_node_label(0, 0);
  g.set_node_label(1, 2);
  FeatureSpec spec{FeatureKind::kNodeLabelOneHot, 3, 0};
  Tensor h = NodeFeatures(g, spec);
  EXPECT_EQ(h.At(0, 0), 1.0f);
  EXPECT_EQ(h.At(1, 2), 1.0f);
  EXPECT_EQ(h.At(1, 0), 0.0f);
}

TEST(FeaturizeTest, ConstantFeaturesNormalised) {
  Graph g(3);
  FeatureSpec spec{FeatureKind::kConstant, 4, 0};
  Tensor h = NodeFeatures(g, spec);
  EXPECT_NEAR(h.At(2, 3), 0.5f, 1e-6);  // 1/sqrt(4)
}

TEST(FeaturizeTest, DegreeAndLabelConcat) {
  Graph g = Path(2);
  g.set_node_label(0, 1);
  FeatureSpec spec{FeatureKind::kDegreeAndLabel, 4, 2};
  EXPECT_EQ(spec.FeatureDim(), 6);
  Tensor h = NodeFeatures(g, spec);
  EXPECT_EQ(h.cols(), 6);
  EXPECT_EQ(h.At(0, 1), 1.0f);  // degree 1
  EXPECT_EQ(h.At(0, 4 + 1), 1.0f);  // label 1
}

TEST(FeaturizeTest, RelativeDegreeBucketsScaleFree) {
  // A star's hub always lands in the top bucket regardless of size.
  FeatureSpec spec{FeatureKind::kRelativeDegreeBuckets, 8, 0};
  for (int n : {5, 50}) {
    Graph g = Star(n);
    Tensor h = NodeFeatures(g, spec);
    EXPECT_EQ(h.At(0, 7), 1.0f) << "star size " << n;
  }
}

TEST(FeaturizeTest, CheckNodeLabelsMatchesTheOneHotWidth) {
  Graph g(2);
  g.set_node_label(1, 2);
  EXPECT_TRUE(CheckNodeLabels(g, {FeatureKind::kNodeLabelOneHot, 3, 0}).ok());
  EXPECT_TRUE(CheckNodeLabels(g, {FeatureKind::kDegreeAndLabel, 4, 3}).ok());
  g.set_node_label(1, 3);
  EXPECT_EQ(CheckNodeLabels(g, {FeatureKind::kNodeLabelOneHot, 3, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckNodeLabels(g, {FeatureKind::kDegreeAndLabel, 4, 3}).code(),
            StatusCode::kInvalidArgument);
  g.set_node_label(1, -1);
  EXPECT_EQ(CheckNodeLabels(g, {FeatureKind::kNodeLabelOneHot, 3, 0}).code(),
            StatusCode::kInvalidArgument);
  // Kinds that ignore labels accept any.
  EXPECT_TRUE(CheckNodeLabels(g, {FeatureKind::kDegreeOneHot, 3, 0}).ok());
  EXPECT_TRUE(CheckNodeLabels(g, {FeatureKind::kConstant, 3, 0}).ok());
}

TEST(FeaturizeDeathTest, LabelOutsideWidthChecks) {
  Graph g(1);
  g.set_node_label(0, 5);
  FeatureSpec spec{FeatureKind::kNodeLabelOneHot, 3, 0};
  EXPECT_DEATH(NodeFeatures(g, spec), "one-hot width");
}

}  // namespace
}  // namespace hap
