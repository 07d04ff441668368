#include "vision/dataset.hpp"

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace spinsim {

FaceDataset::FaceDataset(std::size_t individuals, std::size_t variants_per_individual,
                         const FaceGeneratorConfig& config)
    : individuals_(individuals), variants_(variants_per_individual) {
  require(individuals > 0 && variants_per_individual > 0,
          "FaceDataset: need at least one individual and one variant");
  const FaceGenerator generator(config);
  // Every image is allocated here, on the calling thread, so the workers
  // below only write pixels: no per-thread malloc arenas, and each image
  // depends on (individual, variant) alone, so the fill order is free.
  images_.reserve(individuals * variants_per_individual);
  for (std::size_t person = 0; person < individuals; ++person) {
    for (std::size_t variant = 0; variant < variants_per_individual; ++variant) {
      images_.push_back({person, variant, Image(config.image_height, config.image_width)});
    }
  }
  parallel_for_strided(images_.size(), 0, [&](std::size_t k) {
    LabelledImage& sample = images_[k];
    generator.generate_into(sample.individual, sample.variant, sample.image);
  });
}

const Image& FaceDataset::image(std::size_t individual, std::size_t variant) const {
  require(individual < individuals_ && variant < variants_, "FaceDataset::image: out of range");
  return images_[individual * variants_ + variant].image;
}

std::vector<Image> FaceDataset::images_of(std::size_t individual) const {
  require(individual < individuals_, "FaceDataset::images_of: out of range");
  std::vector<Image> out;
  out.reserve(variants_);
  for (std::size_t v = 0; v < variants_; ++v) {
    out.push_back(image(individual, v));
  }
  return out;
}

FaceDataset FaceDataset::paper_dataset() { return FaceDataset(40, 10, FaceGeneratorConfig{}); }

}  // namespace spinsim
