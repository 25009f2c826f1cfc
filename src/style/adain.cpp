#include "style/adain.hpp"

#include <stdexcept>

#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd_kernels.hpp"

namespace pardon::style {

Tensor AdaIn(const Tensor& features, const StyleVector& target, float epsilon) {
  if (features.rank() != 3) {
    throw std::invalid_argument("AdaIn: expected [C,H,W] features");
  }
  if (target.channels() != features.dim(0)) {
    throw std::invalid_argument("AdaIn: style channel mismatch");
  }
  const StyleVector source = ComputeStyle(features, epsilon);
  const std::int64_t c = features.dim(0);
  const std::int64_t hw = features.dim(1) * features.dim(2);
  Tensor out(features.shape());
  // The transfer is elementwise per channel; the simd tier fuses it into one
  // _mm256_fmadd_ps per 8 pixels (tail via std::fma — every element sees the
  // identical fused op, so the vector path is self-consistent, and drifts
  // from the scalar path only by the mul/add-vs-fma rounding).
  const bool use_simd = tensor::SimdKernelsActive();
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float scale = target.sigma[ch] / source.sigma[ch];
    const float mu_src = source.mu[ch];
    const float mu_dst = target.mu[ch];
    const float* in_plane = features.data() + ch * hw;
    float* out_plane = out.data() + ch * hw;
    if (use_simd) {
      tensor::detail::AdaInTransferAvx2(in_plane, out_plane, hw, scale, mu_src,
                                        mu_dst);
      continue;
    }
    for (std::int64_t i = 0; i < hw; ++i) {
      out_plane[i] = scale * (in_plane[i] - mu_src) + mu_dst;
    }
  }
  return out;
}

Tensor StyleTransferImage(const Tensor& image, const StyleVector& target,
                          const FrozenEncoder& encoder) {
  return encoder.Decode(AdaIn(encoder.Encode(image), target));
}

Tensor StyleTransferBatch(const Tensor& images, const StyleVector& target,
                          const FrozenEncoder& encoder, std::int64_t channels,
                          std::int64_t height, std::int64_t width) {
  if (images.rank() != 2 || images.dim(1) != channels * height * width) {
    throw std::invalid_argument("StyleTransferBatch: bad batch shape " +
                                images.ShapeString());
  }
  Tensor out(images.shape());
  for (std::int64_t i = 0; i < images.dim(0); ++i) {
    const Tensor image = images.Row(i).Reshape({channels, height, width});
    const Tensor transferred = StyleTransferImage(image, target, encoder);
    out.SetRow(i, transferred.Flatten());
  }
  return out;
}

}  // namespace pardon::style
