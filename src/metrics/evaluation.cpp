#include "metrics/evaluation.hpp"

#include <algorithm>

#include "nn/losses.hpp"
#include "tensor/ops.hpp"

namespace pardon::metrics {

namespace {
// Applies fn(batch_logits, start_index) over eval-sized chunks.
template <typename Fn>
void ForEachLogitChunk(const nn::MlpClassifier& model,
                       const data::Dataset& dataset, int eval_batch, Fn fn) {
  const std::int64_t n = dataset.size();
  for (std::int64_t start = 0; start < n; start += eval_batch) {
    const std::int64_t end = std::min<std::int64_t>(start + eval_batch, n);
    std::vector<int> indices;
    indices.reserve(static_cast<std::size_t>(end - start));
    for (std::int64_t i = start; i < end; ++i) {
      indices.push_back(static_cast<int>(i));
    }
    const tensor::Tensor chunk = dataset.images().Gather(indices);
    fn(model.InferLogits(chunk), start);
  }
}
}  // namespace

double Accuracy(const nn::MlpClassifier& model, const data::Dataset& dataset,
                int eval_batch) {
  if (dataset.empty()) return 0.0;
  std::int64_t correct = 0;
  ForEachLogitChunk(model, dataset, eval_batch,
                    [&](const tensor::Tensor& logits, std::int64_t start) {
                      const std::vector<int> preds = tensor::ArgMaxRows(logits);
                      for (std::size_t i = 0; i < preds.size(); ++i) {
                        if (preds[i] ==
                            dataset.Label(start + static_cast<std::int64_t>(i))) {
                          ++correct;
                        }
                      }
                    });
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

std::map<int, double> PerDomainAccuracy(const nn::MlpClassifier& model,
                                        const data::Dataset& dataset,
                                        int eval_batch) {
  std::map<int, std::int64_t> correct;
  std::map<int, std::int64_t> total;
  ForEachLogitChunk(model, dataset, eval_batch,
                    [&](const tensor::Tensor& logits, std::int64_t start) {
                      const std::vector<int> preds = tensor::ArgMaxRows(logits);
                      for (std::size_t i = 0; i < preds.size(); ++i) {
                        const std::int64_t idx =
                            start + static_cast<std::int64_t>(i);
                        const int domain = dataset.Domain(idx);
                        ++total[domain];
                        if (preds[i] == dataset.Label(idx)) ++correct[domain];
                      }
                    });
  std::map<int, double> result;
  for (const auto& [domain, count] : total) {
    result[domain] =
        static_cast<double>(correct[domain]) / static_cast<double>(count);
  }
  return result;
}

tensor::Tensor ConfusionMatrix(const nn::MlpClassifier& model,
                               const data::Dataset& dataset, int eval_batch) {
  const std::int64_t classes = dataset.num_classes();
  tensor::Tensor confusion({classes, classes});
  ForEachLogitChunk(model, dataset, eval_batch,
                    [&](const tensor::Tensor& logits, std::int64_t start) {
                      const std::vector<int> preds = tensor::ArgMaxRows(logits);
                      for (std::size_t i = 0; i < preds.size(); ++i) {
                        const int truth =
                            dataset.Label(start + static_cast<std::int64_t>(i));
                        confusion.At(truth, preds[i]) += 1.0f;
                      }
                    });
  for (std::int64_t r = 0; r < classes; ++r) {
    float row_sum = 0.0f;
    for (std::int64_t c = 0; c < classes; ++c) row_sum += confusion.At(r, c);
    if (row_sum > 0.0f) {
      for (std::int64_t c = 0; c < classes; ++c) confusion.At(r, c) /= row_sum;
    }
  }
  return confusion;
}

double MacroF1(const nn::MlpClassifier& model, const data::Dataset& dataset,
               int eval_batch) {
  if (dataset.empty()) return 0.0;
  const std::int64_t classes = dataset.num_classes();
  std::vector<std::int64_t> tp(static_cast<std::size_t>(classes), 0);
  std::vector<std::int64_t> fp(static_cast<std::size_t>(classes), 0);
  std::vector<std::int64_t> fn(static_cast<std::size_t>(classes), 0);
  ForEachLogitChunk(model, dataset, eval_batch,
                    [&](const tensor::Tensor& logits, std::int64_t start) {
                      const std::vector<int> preds = tensor::ArgMaxRows(logits);
                      for (std::size_t i = 0; i < preds.size(); ++i) {
                        const int truth =
                            dataset.Label(start + static_cast<std::int64_t>(i));
                        const int pred = preds[i];
                        if (pred == truth) {
                          ++tp[static_cast<std::size_t>(truth)];
                        } else {
                          ++fp[static_cast<std::size_t>(pred)];
                          ++fn[static_cast<std::size_t>(truth)];
                        }
                      }
                    });
  double f1_sum = 0.0;
  int present = 0;
  for (std::int64_t c = 0; c < classes; ++c) {
    const std::int64_t support =
        tp[static_cast<std::size_t>(c)] + fn[static_cast<std::size_t>(c)];
    if (support == 0) continue;  // class absent from the dataset
    ++present;
    const double denom =
        2.0 * static_cast<double>(tp[static_cast<std::size_t>(c)]) +
        static_cast<double>(fp[static_cast<std::size_t>(c)]) +
        static_cast<double>(fn[static_cast<std::size_t>(c)]);
    if (denom > 0.0) {
      f1_sum +=
          2.0 * static_cast<double>(tp[static_cast<std::size_t>(c)]) / denom;
    }
  }
  return present > 0 ? f1_sum / present : 0.0;
}

double MeanLoss(const nn::MlpClassifier& model, const data::Dataset& dataset,
                int eval_batch) {
  if (dataset.empty()) return 0.0;
  double total = 0.0;
  ForEachLogitChunk(
      model, dataset, eval_batch,
      [&](const tensor::Tensor& logits, std::int64_t start) {
        const std::int64_t count = logits.dim(0);
        std::vector<int> labels(static_cast<std::size_t>(count));
        for (std::int64_t i = 0; i < count; ++i) {
          labels[static_cast<std::size_t>(i)] = dataset.Label(start + i);
        }
        const nn::CrossEntropyResult ce = nn::SoftmaxCrossEntropy(logits, labels);
        total += static_cast<double>(ce.loss) * static_cast<double>(count);
      });
  return total / static_cast<double>(dataset.size());
}

}  // namespace pardon::metrics
