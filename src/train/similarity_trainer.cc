#include "train/similarity_trainer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "common/check.h"
#include "ged/ged.h"
#include "tensor/ops.h"
#include "train/train_loop.h"

namespace hap {

std::vector<std::vector<double>> PairwiseGedMatrix(
    const std::vector<Graph>& pool, int64_t max_expansions) {
  const int n = static_cast<int>(pool.size());
  std::vector<std::vector<double>> ged(n, std::vector<double>(n, 0.0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const GedResult result = ExactGed(pool[i], pool[j], max_expansions);
      ged[i][j] = result.cost;
      ged[j][i] = result.cost;
    }
  }
  return ged;
}

std::vector<std::vector<double>> PairwiseApproxGedMatrix(
    const std::vector<Graph>& pool,
    const std::function<double(const Graph&, const Graph&)>& approx) {
  const int n = static_cast<int>(pool.size());
  std::vector<std::vector<double>> ged(n, std::vector<double>(n, 0.0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      ged[i][j] = approx(pool[i], pool[j]);
      ged[j][i] = ged[i][j];
    }
  }
  return ged;
}

std::vector<GraphTriplet> MakeTriplets(
    const std::vector<std::vector<double>>& ged, int count, Rng* rng) {
  const int n = static_cast<int>(ged.size());
  HAP_CHECK_GE(n, 3);
  std::vector<GraphTriplet> triplets;
  triplets.reserve(count);
  int attempts = 0;
  while (static_cast<int>(triplets.size()) < count && attempts < count * 50) {
    ++attempts;
    GraphTriplet t;
    t.a = rng->UniformInt(n);
    t.b = rng->UniformInt(n);
    t.c = rng->UniformInt(n);
    if (t.a == t.b || t.a == t.c || t.b == t.c) continue;
    t.relative_ged = ged[t.a][t.b] - ged[t.a][t.c];
    if (t.relative_ged == 0.0) continue;  // No defined ordering.
    triplets.push_back(t);
  }
  HAP_CHECK(!triplets.empty()) << "could not sample informative triplets";
  return triplets;
}

double TripletAccuracyFromMatrix(
    const std::vector<GraphTriplet>& triplets,
    const std::vector<std::vector<double>>& approx_ged) {
  HAP_CHECK(!triplets.empty());
  int correct = 0;
  for (const GraphTriplet& t : triplets) {
    const double approx_relative = approx_ged[t.a][t.b] - approx_ged[t.a][t.c];
    if ((approx_relative > 0.0) == (t.relative_ged > 0.0) &&
        approx_relative != 0.0) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(triplets.size());
}

Tensor TripletLoss(PairScorer* scorer, const std::vector<PreparedGraph>& pool,
                   const GraphTriplet& triplet, bool final_level_only) {
  std::vector<Tensor> d_ab =
      scorer->PairDistances(pool[triplet.a], pool[triplet.b]);
  std::vector<Tensor> d_ac =
      scorer->PairDistances(pool[triplet.a], pool[triplet.c]);
  HAP_CHECK_EQ(d_ab.size(), d_ac.size());
  if (final_level_only && d_ab.size() > 1) {
    d_ab = {d_ab.back()};
    d_ac = {d_ac.back()};
  }
  Tensor total;
  for (size_t level = 0; level < d_ab.size(); ++level) {
    Tensor gap = Sub(d_ab[level], d_ac[level]);
    Tensor error = AddScalar(gap, static_cast<float>(-triplet.relative_ged));
    Tensor term = Square(error);
    total = total.defined() ? Add(total, term) : term;
  }
  return MulScalar(total, 1.0f / static_cast<float>(d_ab.size()));
}

double EvaluateTripletScorer(const PairScorer& scorer,
                             const std::vector<PreparedGraph>& pool,
                             const std::vector<GraphTriplet>& triplets) {
  if (triplets.empty()) return 0.0;
  NoGradGuard guard;
  int correct = 0;
  for (const GraphTriplet& t : triplets) {
    const double d_ab = scorer.PairDistances(pool[t.a], pool[t.b]).back().Item();
    const double d_ac = scorer.PairDistances(pool[t.a], pool[t.c]).back().Item();
    if (((d_ab - d_ac) > 0.0) == (t.relative_ged > 0.0)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(triplets.size());
}

SimilarityTrainResult TrainSimilarity(
    PairScorer* scorer, const std::vector<PreparedGraph>& pool,
    const std::vector<GraphTriplet>& train_triplets,
    const std::vector<GraphTriplet>& test_triplets,
    const TrainConfig& config) {
  return TrainSimilarity(scorer, pool, train_triplets, test_triplets, config,
                         nullptr);
}

SimilarityTrainResult TrainSimilarity(
    PairScorer* scorer, const std::vector<PreparedGraph>& pool,
    const std::vector<GraphTriplet>& train_triplets,
    const std::vector<GraphTriplet>& test_triplets, const TrainConfig& config,
    const std::function<std::unique_ptr<PairScorer>()>& replica_factory) {
  std::vector<std::unique_ptr<PairScorer>> owned;
  const std::vector<PairScorer*> scorers =
      MakeReplicas(scorer, config.num_threads, replica_factory, &owned);
  SimilarityTrainResult result;
  TrainTask task;
  task.name = "similarity";
  task.metric_key = "train_triplet_accuracy";
  task.metric_label = "train-triplet-acc";
  task.replicas.assign(scorers.begin(), scorers.end());
  task.set_training = [&scorers](bool training) {
    for (PairScorer* s : scorers) s->set_training(training);
  };
  task.items.resize(train_triplets.size());
  std::iota(task.items.begin(), task.items.end(), 0);
  // All workers score against the shared pool directly: backward never
  // touches gradient-free leaves (the needs-grad guards in ops.cc skip
  // them), so concurrent triplets referencing the same pool graph — and
  // its cached GraphLevel operators — are read-only and race-free.
  task.loss = [&](int worker, int item) {
    return TripletLoss(scorers[worker], pool, train_triplets[item],
                       config.final_level_only);
  };
  task.evaluate = [&] {
    return EvaluateTripletScorer(*scorer, pool, train_triplets);
  };
  task.on_best = [&](int epoch, double train_acc) {
    result.best_epoch = epoch;
    result.train_accuracy = train_acc;
    result.test_accuracy = EvaluateTripletScorer(*scorer, pool, test_triplets);
  };
  result.epoch_losses = RunTrainLoop(config, std::move(task));
  return result;
}

SimilarityTrainResult TrainSimGnn(
    SimGnnModel* model, const std::vector<PreparedGraph>& pool,
    const std::vector<std::vector<double>>& exact_ged,
    const std::vector<GraphTriplet>& train_triplets,
    const std::vector<GraphTriplet>& test_triplets,
    const TrainConfig& config) {
  // Mean GED normaliser for the similarity target exp(-ged/mean).
  double mean_ged = 0.0;
  int pairs = 0;
  for (size_t i = 0; i < exact_ged.size(); ++i) {
    for (size_t j = i + 1; j < exact_ged.size(); ++j) {
      mean_ged += exact_ged[i][j];
      ++pairs;
    }
  }
  mean_ged = pairs > 0 ? mean_ged / pairs : 1.0;

  auto predict = [&](int i, int j) {
    return model->PredictSimilarity(pool[i].h, pool[i].level, pool[j].h,
                                    pool[j].level);
  };
  auto triplet_accuracy = [&](const std::vector<GraphTriplet>& triplets) {
    NoGradGuard guard;
    if (triplets.empty()) return 0.0;
    int correct = 0;
    for (const GraphTriplet& t : triplets) {
      // Higher similarity = smaller GED.
      const double relative =
          predict(t.a, t.c).Item() - predict(t.a, t.b).Item();
      if ((relative > 0.0) == (t.relative_ged > 0.0)) ++correct;
    }
    return static_cast<double>(correct) / triplets.size();
  };

  // Supervision pairs come from the *training triplets* only (the same
  // data budget every learned model gets); SimGNN regresses their absolute
  // similarities while the others learn the relative objective.
  std::vector<std::pair<int, int>> train_pairs;
  for (const GraphTriplet& t : train_triplets) {
    train_pairs.emplace_back(t.a, t.b);
    train_pairs.emplace_back(t.a, t.c);
  }
  HAP_CHECK(!train_pairs.empty());
  SimilarityTrainResult result;
  TrainTask task;
  task.name = "simgnn";
  task.metric_key = "train_triplet_accuracy";
  task.metric_label = "train-triplet-acc";
  task.replicas = {model};
  task.items.resize(train_pairs.size());
  std::iota(task.items.begin(), task.items.end(), 0);
  task.draws_per_epoch =
      std::max<int>(32, static_cast<int>(train_pairs.size()));
  task.loss = [&](int, int item) {
    const auto [i, j] = train_pairs[item];
    const float target = static_cast<float>(
        std::exp(-exact_ged[i][j] / std::max(mean_ged, 1e-9)));
    return Square(AddScalar(predict(i, j), -target));
  };
  task.evaluate = [&] { return triplet_accuracy(train_triplets); };
  task.on_best = [&](int epoch, double train_acc) {
    result.best_epoch = epoch;
    result.train_accuracy = train_acc;
    result.test_accuracy = triplet_accuracy(test_triplets);
  };
  // SimGNN trains on this thread only: it has no replica factory.
  TrainConfig serial = config;
  serial.num_threads = 0;
  result.epoch_losses = RunTrainLoop(serial, std::move(task));
  return result;
}

}  // namespace hap
