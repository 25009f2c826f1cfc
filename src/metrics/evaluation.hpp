// Model evaluation: top-1 accuracy, per-domain accuracy, confusion matrix.
// Evaluation batches the dataset to bound peak memory on large eval sets
// (the paper's test batch size is 512; we follow it).
#pragma once

#include <map>
#include <vector>

#include "data/dataset.hpp"
#include "nn/mlp.hpp"

namespace pardon::metrics {

// Top-1 accuracy of the classifier on the dataset; empty dataset -> 0.
double Accuracy(const nn::MlpClassifier& model, const data::Dataset& dataset,
                int eval_batch = 512);

// Accuracy split by ground-truth domain id (only domains present appear).
std::map<int, double> PerDomainAccuracy(const nn::MlpClassifier& model,
                                        const data::Dataset& dataset,
                                        int eval_batch = 512);

// Row-normalized confusion matrix [num_classes x num_classes] (row = truth).
tensor::Tensor ConfusionMatrix(const nn::MlpClassifier& model,
                               const data::Dataset& dataset,
                               int eval_batch = 512);

// Macro-averaged F1 over classes — the headline metric of the real IWildCam
// benchmark (Wilds), where the long class tail makes plain accuracy
// misleading. Classes absent from the dataset are skipped.
double MacroF1(const nn::MlpClassifier& model, const data::Dataset& dataset,
               int eval_batch = 512);

// Mean cross-entropy of the model on the dataset (used by FedDG-GA's
// generalization-gap signal).
double MeanLoss(const nn::MlpClassifier& model, const data::Dataset& dataset,
                int eval_batch = 512);

}  // namespace pardon::metrics
