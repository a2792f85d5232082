#include "graph/datasets.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace hap {
namespace {

TEST(SplitTest, ProportionsAndCoverage) {
  Rng rng(1);
  Split split = SplitIndices(100, &rng);
  EXPECT_EQ(split.train.size(), 80u);
  EXPECT_EQ(split.val.size(), 10u);
  EXPECT_EQ(split.test.size(), 10u);
  std::set<int> all;
  for (int i : split.train) all.insert(i);
  for (int i : split.val) all.insert(i);
  for (int i : split.test) all.insert(i);
  EXPECT_EQ(all.size(), 100u);
}

TEST(SplitTest, CustomFractions) {
  Rng rng(2);
  Split split = SplitIndices(10, &rng, 0.5, 0.2);
  EXPECT_EQ(split.train.size(), 5u);
  EXPECT_EQ(split.val.size(), 2u);
  EXPECT_EQ(split.test.size(), 3u);
}

class DatasetParamTest
    : public ::testing::TestWithParam<
          std::pair<const char*, GraphDataset (*)(int, Rng*)>> {};

TEST_P(DatasetParamTest, BasicInvariants) {
  Rng rng(7);
  GraphDataset ds = GetParam().second(60, &rng);
  EXPECT_EQ(ds.graphs.size(), 60u);
  EXPECT_GE(ds.num_classes, 2);
  std::vector<int> class_counts(ds.num_classes, 0);
  for (const Graph& g : ds.graphs) {
    ASSERT_GE(g.label(), 0);
    ASSERT_LT(g.label(), ds.num_classes);
    ++class_counts[g.label()];
    EXPECT_GT(g.num_nodes(), 0);
    EXPECT_GT(g.num_edges(), 0);
  }
  // Roughly class balanced.
  for (int count : class_counts) {
    EXPECT_GE(count, 60 / ds.num_classes - 2);
  }
  // Featurisation succeeds on every graph.
  for (const Graph& g : ds.graphs) {
    Tensor h = NodeFeatures(g, ds.feature_spec);
    EXPECT_EQ(h.rows(), g.num_nodes());
    EXPECT_EQ(h.cols(), ds.feature_spec.FeatureDim());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, DatasetParamTest,
    ::testing::Values(
        std::make_pair("imdb_b", &MakeImdbBinaryLike),
        std::make_pair("imdb_m", &MakeImdbMultiLike),
        std::make_pair("collab", &MakeCollabLike),
        std::make_pair("mutag", &MakeMutagLike),
        std::make_pair("proteins", &MakeProteinsLike),
        std::make_pair("ptc", &MakePtcLike)),
    [](const auto& info) { return std::string(info.param.first); });

TEST(DatasetsTest, MutagClassesShareMotifContent) {
  // Both classes must contain the same number of nitro groups (2): the
  // discriminant is positional, not compositional.
  Rng rng(11);
  GraphDataset ds = MakeMutagLike(40, &rng);
  for (const Graph& g : ds.graphs) {
    int nitrogens = 0;
    for (int u = 0; u < g.num_nodes(); ++u) {
      if (g.node_label(u) == 1) ++nitrogens;
    }
    EXPECT_EQ(nitrogens, 2) << g.ToString();
  }
}

TEST(DatasetsTest, MutagConnected) {
  Rng rng(12);
  GraphDataset ds = MakeMutagLike(30, &rng);
  for (const Graph& g : ds.graphs) EXPECT_TRUE(g.IsConnected());
}

TEST(DatasetsTest, ProteinsHelixFractionDiffersByClass) {
  Rng rng(13);
  GraphDataset ds = MakeProteinsLike(100, &rng);
  double helix_nodes[2] = {0, 0}, total_nodes[2] = {0, 0};
  for (const Graph& g : ds.graphs) {
    for (int u = 0; u < g.num_nodes(); ++u) {
      if (g.node_label(u) == 0) helix_nodes[g.label()] += 1;
      total_nodes[g.label()] += 1;
    }
  }
  EXPECT_GT(helix_nodes[0] / total_nodes[0],
            helix_nodes[1] / total_nodes[1] + 0.2);
}

TEST(DatasetsTest, AidsPoolSizesWithinGedLimit) {
  Rng rng(14);
  auto pool = MakeAidsLikePool(50, &rng);
  EXPECT_EQ(pool.size(), 50u);
  for (const Graph& g : pool) {
    EXPECT_LE(g.num_nodes(), 10);
    EXPECT_GE(g.num_nodes(), 2);
    EXPECT_TRUE(g.IsConnected());
    for (int u = 0; u < g.num_nodes(); ++u) {
      EXPECT_GE(g.node_label(u), 0);
      EXPECT_LT(g.node_label(u), 10);
    }
  }
}

TEST(DatasetsTest, LinuxPoolUnlabeled) {
  Rng rng(15);
  auto pool = MakeLinuxLikePool(50, &rng);
  for (const Graph& g : pool) {
    EXPECT_LE(g.num_nodes(), 10);
    EXPECT_GE(g.num_nodes(), 4);
    EXPECT_TRUE(g.IsConnected());
  }
}

TEST(DatasetsTest, StatisticsTableRenders) {
  Rng rng(16);
  std::vector<GraphDataset> all = {MakeImdbBinaryLike(10, &rng),
                                   MakeMutagLike(10, &rng)};
  const std::string stats = DatasetStatistics(all);
  EXPECT_NE(stats.find("IMDB-B*"), std::string::npos);
  EXPECT_NE(stats.find("MUTAG*"), std::string::npos);
  EXPECT_NE(stats.find("#Classes"), std::string::npos);
}

TEST(DatasetsTest, MakeDatasetByNameCoversTheSixGenerators) {
  const std::pair<const char*, const char*> names[] = {
      {"imdb-b", "IMDB-B*"}, {"imdb-m", "IMDB-M*"},     {"collab", "COLLAB*"},
      {"mutag", "MUTAG*"},   {"proteins", "PROTEINS*"}, {"ptc", "PTC*"}};
  for (const auto& [flag, dataset_name] : names) {
    Rng rng(17);
    StatusOr<GraphDataset> made = MakeDatasetByName(flag, 3, &rng);
    ASSERT_TRUE(made.ok()) << flag;
    EXPECT_EQ(made.value().name, dataset_name);
    EXPECT_EQ(made.value().graphs.size(), 3u);
  }
  Rng rng(17);
  StatusOr<GraphDataset> unknown = MakeDatasetByName("nope", 3, &rng);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("nope"), std::string::npos);
}

}  // namespace
}  // namespace hap
