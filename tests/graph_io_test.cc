#include "graph/io.h"

#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace hap {
namespace {

TEST(GraphIoTest, RoundTripsSingleGraph) {
  Graph g = Cycle(4);
  g.set_label(1);
  g.set_node_label(2, 5);
  g.RemoveEdge(0, 1);
  g.AddEdge(0, 1, 2.5f);
  std::stringstream buffer;
  WriteGraph(g, &buffer);
  StatusOr<Graph> loaded = ReadGraph(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph& got = loaded.value();
  EXPECT_EQ(got.num_nodes(), 4);
  EXPECT_EQ(got.num_edges(), 4);
  EXPECT_EQ(got.label(), 1);
  EXPECT_EQ(got.node_label(2), 5);
  EXPECT_EQ(got.EdgeWeight(0, 1), 2.5f);
  EXPECT_TRUE(got.HasEdge(3, 0));
}

TEST(GraphIoTest, ReadsConsecutiveBlocks) {
  std::stringstream buffer;
  WriteGraph(Cycle(3), &buffer);
  WriteGraph(Path(2), &buffer);
  StatusOr<Graph> first = ReadGraph(&buffer);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().num_nodes(), 3);
  StatusOr<Graph> second = ReadGraph(&buffer);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().num_nodes(), 2);
}

TEST(GraphIoTest, RejectsMalformedInput) {
  {
    std::stringstream buffer("nonsense 1 2");
    EXPECT_FALSE(ReadGraph(&buffer).ok());
  }
  {
    std::stringstream buffer("graph 2 0\nedge 0 5\n");
    EXPECT_FALSE(ReadGraph(&buffer).ok());
  }
  {
    std::stringstream buffer("graph 2 0\nnode 9 1\n");
    EXPECT_FALSE(ReadGraph(&buffer).ok());
  }
}

TEST(GraphIoTest, RejectsNonPositiveEdgeWeightWithTypedError) {
  // Graph takes only positive weights; the parser must refuse the rest
  // instead of handing them to Graph::AddEdge.
  for (const char* text : {"graph 3 0\nedge 0 1 0\n", "graph 3 0\nedge 0 1 -2.5\n",
                           "graph 3 0\nedge 0 1 1\nedge 1 2 -0\n"}) {
    std::stringstream buffer(text);
    StatusOr<Graph> g = ReadGraph(&buffer);
    ASSERT_FALSE(g.ok()) << text;
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument) << text;
  }
  std::stringstream positive("graph 3 0\nedge 0 1 0.25\n");
  StatusOr<Graph> g = ReadGraph(&positive);
  ASSERT_TRUE(g.ok());
  EXPECT_FLOAT_EQ(g.value().EdgeWeight(0, 1), 0.25f);
}

TEST(GraphIoTest, DatasetRoundTrip) {
  Rng rng(1);
  GraphDataset dataset = MakeMutagLike(10, &rng);
  const std::string path = ::testing::TempDir() + "/hap_dataset_test.txt";
  ASSERT_TRUE(SaveDataset(dataset, path).ok());
  StatusOr<GraphDataset> loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const GraphDataset& got = loaded.value();
  EXPECT_EQ(got.num_classes, dataset.num_classes);
  ASSERT_EQ(got.graphs.size(), dataset.graphs.size());
  for (size_t i = 0; i < got.graphs.size(); ++i) {
    EXPECT_EQ(got.graphs[i].num_nodes(), dataset.graphs[i].num_nodes());
    EXPECT_EQ(got.graphs[i].num_edges(), dataset.graphs[i].num_edges());
    EXPECT_EQ(got.graphs[i].label(), dataset.graphs[i].label());
    EXPECT_EQ(got.graphs[i].node_labels(), dataset.graphs[i].node_labels());
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadDataset("/nonexistent/corpus.txt").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace hap
