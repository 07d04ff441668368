/// \file dataset.hpp
/// The 40-individual / 10-variant face dataset used by every experiment.

#pragma once

#include <cstddef>
#include <vector>

#include "vision/face_generator.hpp"
#include "vision/image.hpp"

namespace spinsim {

/// A labelled face image.
struct LabelledImage {
  std::size_t individual = 0;
  std::size_t variant = 0;
  Image image;
};

/// Materialised dataset: `individuals` x `variants_per_individual` images.
class FaceDataset {
 public:
  /// Generates the full dataset (paper: 40 x 10 = 400 images), filling
  /// the images across hardware threads; bitwise equal to calling
  /// FaceGenerator::generate() for each image in turn.
  FaceDataset(std::size_t individuals, std::size_t variants_per_individual,
              const FaceGeneratorConfig& config = {});

  std::size_t individuals() const { return individuals_; }
  std::size_t variants_per_individual() const { return variants_; }
  std::size_t size() const { return images_.size(); }

  /// Image of (individual, variant).
  const Image& image(std::size_t individual, std::size_t variant) const;

  /// All images of one individual, in variant order.
  std::vector<Image> images_of(std::size_t individual) const;

  /// Flat view of all labelled images (individual-major order).
  const std::vector<LabelledImage>& all() const { return images_; }

  /// The paper's standard dataset: 40 individuals, 10 variants, 128x96.
  static FaceDataset paper_dataset();

 private:
  std::size_t individuals_;
  std::size_t variants_;
  std::vector<LabelledImage> images_;
};

}  // namespace spinsim
