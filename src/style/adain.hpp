// Adaptive Instance Normalization (Huang & Belongie 2017), Eq. 4:
//   AdaIN(F, S) = sigma(S) * (F - mu(F)) / sigma(F) + mu(S)
// applied channel-wise, plus the full image-level style-transfer pipeline
// image -> Phi -> AdaIN -> Psi -> image used to build the style-transferred
// batch B_p in FISC's local contrastive training.
#pragma once

#include <span>
#include <vector>

#include "style/encoder.hpp"
#include "style/style_stats.hpp"

namespace pardon::style {

// Re-normalizes each channel of a [C,H,W] feature map to the target style.
// Postcondition: ComputeStyle(result) ~= target (exact up to epsilon).
Tensor AdaIn(const Tensor& features, const StyleVector& target,
             float epsilon = 1e-5f);

// Full pipeline on an image: decode(AdaIN(encode(image), target)).
Tensor StyleTransferImage(const Tensor& image, const StyleVector& target,
                          const FrozenEncoder& encoder);

// Batched pipeline: every row of `images` [N, C*H*W] (flattened [C,H,W]) is
// transferred to `target`; returns the same layout.
Tensor StyleTransferBatch(const Tensor& images, const StyleVector& target,
                          const FrozenEncoder& encoder, std::int64_t channels,
                          std::int64_t height, std::int64_t width);

}  // namespace pardon::style
