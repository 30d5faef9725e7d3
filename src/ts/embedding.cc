#include "ts/embedding.h"

namespace eadrl::ts {

StatusOr<SupervisedData> DelayEmbed(const math::Vec& values, size_t k) {
  if (k == 0) return Status::InvalidArgument("DelayEmbed: k must be positive");
  if (values.size() < k + 1) {
    return Status::InvalidArgument(
        "DelayEmbed: series shorter than embedding dimension + 1");
  }
  const size_t n_rows = values.size() - k;
  SupervisedData data;
  data.x = math::Matrix(n_rows, k);
  data.y.resize(n_rows);
  for (size_t i = 0; i < n_rows; ++i) {
    for (size_t j = 0; j < k; ++j) data.x(i, j) = values[i + j];
    data.y[i] = values[i + k];
  }
  return data;
}

StatusOr<SupervisedData> DelayEmbed(const Series& s, size_t k) {
  return DelayEmbed(s.values(), k);
}

}  // namespace eadrl::ts
