#ifndef EADRL_TS_EMBEDDING_H_
#define EADRL_TS_EMBEDDING_H_

#include "common/status.h"
#include "math/matrix.h"
#include "math/vec.h"
#include "ts/series.h"

namespace eadrl::ts {

/// A supervised-learning view of a series produced by delay embedding:
/// row i of `x` holds the k lagged values (x_{t-k}, ..., x_{t-1}) and
/// `y[i]` holds the target x_t, for t = k .. n-1.
struct SupervisedData {
  math::Matrix x;
  math::Vec y;
};

/// Delay (Takens) embedding of a series with embedding dimension k.
/// The paper uses k = 5 for all series. Returns InvalidArgument if the series
/// is shorter than k + 1.
StatusOr<SupervisedData> DelayEmbed(const Series& s, size_t k);

/// Embeds a raw value vector (same layout as DelayEmbed).
StatusOr<SupervisedData> DelayEmbed(const math::Vec& values, size_t k);

}  // namespace eadrl::ts

#endif  // EADRL_TS_EMBEDDING_H_
