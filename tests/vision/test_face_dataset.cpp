#include "vision/dataset.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "support/shared_dataset.hpp"

namespace spinsim {
namespace {

TEST(FaceGenerator, Deterministic) {
  const FaceGenerator gen{FaceGeneratorConfig{}};
  const Image a = gen.generate(3, 5);
  const Image b = gen.generate(3, 5);
  EXPECT_DOUBLE_EQ(a.rms_difference(b), 0.0);
}

TEST(FaceGenerator, VariantsDiffer) {
  const FaceGenerator gen{FaceGeneratorConfig{}};
  const Image a = gen.generate(3, 0);
  const Image b = gen.generate(3, 1);
  EXPECT_GT(a.rms_difference(b), 0.01);
}

TEST(FaceGenerator, IndividualsDifferMoreThanVariants) {
  const FaceGenerator gen{FaceGeneratorConfig{}};
  const double intra = gen.generate(0, 0).rms_difference(gen.generate(0, 1));
  const double inter = gen.generate(0, 0).rms_difference(gen.generate(1, 0));
  EXPECT_GT(inter, intra);
}

TEST(FaceGenerator, PixelsInRange) {
  const FaceGenerator gen{FaceGeneratorConfig{}};
  const Image img = gen.generate(7, 2);
  for (double p : img.pixels()) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(FaceGenerator, SeedChangesDataset) {
  FaceGeneratorConfig c1;
  FaceGeneratorConfig c2;
  c2.seed = 999;
  const Image a = FaceGenerator(c1).generate(0, 0);
  const Image b = FaceGenerator(c2).generate(0, 0);
  EXPECT_GT(a.rms_difference(b), 0.01);
}

TEST(FaceGenerator, GenerateIntoMatchesGenerate) {
  FaceGeneratorConfig config;
  config.image_height = 32;
  config.image_width = 24;
  const FaceGenerator gen(config);
  // A wrongly sized image is resized; a rightly sized one keeps its buffer.
  Image img(8, 8);
  gen.generate_into(2, 3, img);
  EXPECT_EQ(img.pixels(), gen.generate(2, 3).pixels());
  const double* buffer = img.pixels().data();
  gen.generate_into(5, 1, img);
  EXPECT_EQ(img.pixels().data(), buffer);
  EXPECT_EQ(img.pixels(), gen.generate(5, 1).pixels());
}

/// The parallel fill is bitwise equal to serial generate(), image by
/// image, on datasets big enough to fan out across workers.
TEST(FaceDataset, ParallelFillBitwiseEqualsSerialGenerate) {
  FaceGeneratorConfig small;
  small.image_height = 64;
  small.image_width = 64;
  const FaceDataset built(20, 4, small);
  const FaceDataset& paper = testing::paper_dataset();
  for (const FaceDataset* ds : {&built, &paper}) {
    const FaceGenerator gen(ds == &paper ? FaceGeneratorConfig{} : small);
    for (const LabelledImage& sample : ds->all()) {
      const Image ref = gen.generate(sample.individual, sample.variant);
      ASSERT_EQ(sample.image.pixel_count(), ref.pixel_count());
      EXPECT_EQ(std::memcmp(sample.image.pixels().data(), ref.pixels().data(),
                            ref.pixel_count() * sizeof(double)),
                0)
          << "individual " << sample.individual << ", variant " << sample.variant;
    }
  }
}

TEST(FaceDataset, PaperShape) {
  const FaceDataset& ds = testing::paper_dataset();
  EXPECT_EQ(ds.individuals(), 40u);
  EXPECT_EQ(ds.variants_per_individual(), 10u);
  EXPECT_EQ(ds.size(), 400u);
  EXPECT_EQ(ds.image(0, 0).height(), 128u);
  EXPECT_EQ(ds.image(0, 0).width(), 96u);
}

TEST(FaceDataset, LabelsConsistent) {
  const FaceDataset& ds = testing::small_dataset();
  std::size_t k = 0;
  for (const auto& sample : ds.all()) {
    EXPECT_EQ(sample.individual, k / ds.variants_per_individual());
    EXPECT_EQ(sample.variant, k % ds.variants_per_individual());
    ++k;
  }
}

TEST(FaceDataset, ImagesOfReturnsAllVariants) {
  const FaceDataset& ds = testing::small_dataset();
  const auto imgs = ds.images_of(2);
  EXPECT_EQ(imgs.size(), ds.variants_per_individual());
  EXPECT_DOUBLE_EQ(imgs[1].rms_difference(ds.image(2, 1)), 0.0);
}

TEST(FaceDataset, OutOfRangeThrows) {
  const FaceDataset& ds = testing::small_dataset();
  EXPECT_THROW(ds.image(99, 0), InvalidArgument);
  EXPECT_THROW(ds.image(0, 99), InvalidArgument);
  EXPECT_THROW(ds.images_of(99), InvalidArgument);
}

TEST(FaceDataset, IntraClassSpreadBelowInterClassDistance) {
  // The property that makes recognition possible at all: averaged over
  // several individuals, same-person images resemble each other more
  // than different-person images.
  const FaceDataset& ds = testing::small_dataset();
  double intra = 0.0;
  double inter = 0.0;
  int n_intra = 0;
  int n_inter = 0;
  for (std::size_t p = 0; p < ds.individuals(); ++p) {
    intra += ds.image(p, 0).rms_difference(ds.image(p, 1));
    ++n_intra;
    inter += ds.image(p, 0).rms_difference(ds.image((p + 1) % ds.individuals(), 0));
    ++n_inter;
  }
  EXPECT_GT(inter / n_inter, 1.2 * (intra / n_intra));
}

}  // namespace
}  // namespace spinsim
