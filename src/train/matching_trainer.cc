#include "train/matching_trainer.h"

#include <cmath>
#include <memory>

#include "common/check.h"
#include "tensor/ops.h"
#include "train/train_loop.h"

namespace hap {

std::vector<PreparedPair> PreparePairs(const std::vector<GraphPair>& pairs,
                                       const FeatureSpec& spec) {
  std::vector<PreparedPair> prepared;
  prepared.reserve(pairs.size());
  for (const GraphPair& pair : pairs) {
    PreparedPair p;
    p.g1 = PrepareGraph(pair.g1, spec);
    p.g2 = PrepareGraph(pair.g2, spec);
    p.label = pair.label;
    prepared.push_back(std::move(p));
  }
  return prepared;
}

Tensor MatchingLoss(const std::vector<Tensor>& distances, int label,
                    float scale) {
  HAP_CHECK(!distances.empty());
  HAP_CHECK(label == 0 || label == 1);
  Tensor total;
  for (const Tensor& distance : distances) {
    Tensor similarity = Exp(MulScalar(distance, -scale));  // Eq. 22
    Tensor term =
        label == 1
            ? Neg(Log(ClampMin(similarity, 1e-7f)))
            : Neg(Log(ClampMin(
                  Sub(Tensor::Ones(1, 1), similarity), 1e-7f)));
    total = total.defined() ? Add(total, term) : term;
  }
  return MulScalar(total, 1.0f / static_cast<float>(distances.size()));
}

bool PredictMatch(const PairScorer& scorer, const PreparedPair& pair,
                  float scale) {
  NoGradGuard guard;
  std::vector<Tensor> distances = scorer.PairDistances(pair.g1, pair.g2);
  double mean_similarity = 0.0;
  for (const Tensor& distance : distances) {
    mean_similarity += std::exp(-scale * distance.Item());
  }
  mean_similarity /= static_cast<double>(distances.size());
  return mean_similarity > 0.5;
}

double EvaluateMatcher(const PairScorer& scorer,
                       const std::vector<PreparedPair>& data,
                       const std::vector<int>& indices, float scale) {
  if (indices.empty()) return 0.0;
  int correct = 0;
  for (int index : indices) {
    const bool predicted = PredictMatch(scorer, data[index], scale);
    if (predicted == (data[index].label == 1)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(indices.size());
}

MatchingTrainResult TrainMatcher(PairScorer* scorer,
                                 const std::vector<PreparedPair>& data,
                                 const Split& split, const TrainConfig& config,
                                 float scale) {
  return TrainMatcher(scorer, data, split, config, scale, nullptr);
}

MatchingTrainResult TrainMatcher(PairScorer* scorer,
                                 const std::vector<PreparedPair>& data,
                                 const Split& split, const TrainConfig& config,
                                 float scale,
                                 const ScorerFactory& replica_factory) {
  std::vector<std::unique_ptr<PairScorer>> owned;
  const std::vector<PairScorer*> scorers =
      MakeReplicas(scorer, config.num_threads, replica_factory, &owned);
  MatchingTrainResult result;
  TrainTask task;
  task.name = "matching";
  task.metric_key = "val_accuracy";
  task.metric_label = "val";
  task.replicas.assign(scorers.begin(), scorers.end());
  task.set_training = [&scorers](bool training) {
    for (PairScorer* s : scorers) s->set_training(training);
  };
  task.items = split.train;
  task.loss = [&](int worker, int item) {
    const PreparedPair& pair = data[item];
    std::vector<Tensor> distances =
        scorers[worker]->PairDistances(pair.g1, pair.g2);
    if (config.final_level_only && distances.size() > 1) {
      distances = {distances.back()};
    }
    return MatchingLoss(distances, pair.label, scale);
  };
  task.evaluate = [&] {
    return EvaluateMatcher(*scorer, data, split.val, scale);
  };
  task.on_best = [&](int epoch, double val) {
    result.best_epoch = epoch;
    result.val_accuracy = val;
    result.test_accuracy = EvaluateMatcher(*scorer, data, split.test, scale);
    result.train_accuracy = EvaluateMatcher(*scorer, data, split.train, scale);
  };
  task.early_stopping = true;
  result.epoch_losses = RunTrainLoop(config, std::move(task));
  return result;
}

}  // namespace hap
