#include "vision/face_generator.hpp"

#include <algorithm>
#include <cmath>

namespace spinsim {

namespace {

/// Smooth bump: 1 inside, falls off over `soft` beyond the unit radius.
double soft_ellipse(double x, double y, double cx, double cy, double rx, double ry, double soft) {
  const double dx = (x - cx) / rx;
  const double dy = (y - cy) / ry;
  const double r = std::sqrt(dx * dx + dy * dy);
  if (r <= 1.0) {
    return 1.0;
  }
  const double t = (r - 1.0) / soft;
  return t >= 1.0 ? 0.0 : 0.5 * (1.0 + std::cos(3.14159265358979323846 * t));
}

/// Anisotropic Gaussian blob.
double blob(double x, double y, double cx, double cy, double sx, double sy) {
  const double dx = (x - cx) / sx;
  const double dy = (y - cy) / sy;
  return std::exp(-0.5 * (dx * dx + dy * dy));
}

}  // namespace

FaceGenerator::FaceGenerator(const FaceGeneratorConfig& config) : config_(config) {
  require(config.image_height >= 16 && config.image_width >= 8,
          "FaceGenerator: image too small for the face model");
}

FaceGenerator::FaceIdentity FaceGenerator::identity_for(std::size_t individual) const {
  // One fork per individual, independent of variant draws.
  Rng rng(config_.seed * 0x9E3779B97F4A7C15ULL + individual * 0xD1B54A32D192ED03ULL + 1);

  FaceIdentity id{};
  id.head_cx = rng.uniform(0.44, 0.56);
  id.head_cy = rng.uniform(0.44, 0.56);
  id.head_rx = rng.uniform(0.26, 0.42);
  id.head_ry = rng.uniform(0.34, 0.50);
  id.skin_tone = rng.uniform(0.50, 0.90);
  id.hair_line = rng.uniform(0.12, 0.36);
  id.hair_tone = rng.uniform(0.02, 0.40);
  id.hair_side = rng.uniform(-1.0, 1.0);
  id.eye_y = rng.uniform(0.36, 0.48);
  id.eye_dx = rng.uniform(0.09, 0.19);
  id.eye_size = rng.uniform(0.018, 0.048);
  id.eye_tone = rng.uniform(0.02, 0.28);
  id.brow_offset = rng.uniform(0.04, 0.10);
  id.brow_tone = rng.uniform(0.05, 0.45);
  id.nose_len = rng.uniform(0.08, 0.20);
  id.nose_width = rng.uniform(0.012, 0.042);
  id.nose_tone = rng.uniform(-0.22, 0.15);  // relative to skin
  id.mouth_y = rng.uniform(0.64, 0.78);
  id.mouth_w = rng.uniform(0.06, 0.15);
  id.mouth_tone = rng.uniform(0.05, 0.40);
  id.jaw_taper = rng.uniform(0.0, 0.45);
  id.beard = rng.bernoulli(0.35);
  id.beard_tone = rng.uniform(0.10, 0.35);
  id.glasses = rng.bernoulli(0.3);
  id.cheek_shade = rng.uniform(0.0, 0.25);
  for (std::size_t k = 0; k < FaceIdentity::kTextureBlobs; ++k) {
    id.tex_x[k] = rng.uniform(0.2, 0.8);
    id.tex_y[k] = rng.uniform(0.2, 0.85);
    id.tex_amp[k] = rng.uniform(-0.22, 0.22);
    id.tex_size[k] = rng.uniform(0.05, 0.16);
  }
  return id;
}

Image FaceGenerator::generate(std::size_t individual, std::size_t variant) const {
  Image img(config_.image_height, config_.image_width);
  generate_into(individual, variant, img);
  return img;
}

void FaceGenerator::generate_into(std::size_t individual, std::size_t variant, Image& img) const {
  const FaceIdentity id = identity_for(individual);

  // Variant stream: seeded by (dataset, individual, variant).
  Rng rng(config_.seed * 0x2545F4914F6CDD1DULL + individual * 0x9E3779B97F4A7C15ULL +
          variant * 0xBF58476D1CE4E5B9ULL + 7);

  const double shift_x = rng.uniform(-config_.max_shift_fraction, config_.max_shift_fraction);
  const double shift_y = rng.uniform(-config_.max_shift_fraction, config_.max_shift_fraction);
  const double illum = 1.0 + rng.uniform(-config_.illumination_spread, config_.illumination_spread);
  const double grad_x = rng.uniform(-config_.gradient_spread, config_.gradient_spread);
  const double grad_y = rng.uniform(-config_.gradient_spread, config_.gradient_spread);
  const double jitter_eye = rng.normal(0.0, config_.expression_jitter);
  const double jitter_mouth = rng.normal(0.0, config_.expression_jitter);
  const double mouth_open = rng.uniform(0.8, 1.6);  // expression: mouth thickness

  const std::size_t h = config_.image_height;
  const std::size_t w = config_.image_width;
  if (img.height() != h || img.width() != w) {
    img = Image(h, w);
  }

  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < w; ++c) {
      // Normalised canvas coordinates with the pose shift applied.
      const double y = static_cast<double>(r) / static_cast<double>(h - 1) - shift_y;
      const double x = static_cast<double>(c) / static_cast<double>(w - 1) - shift_x;

      double v = 0.18;  // background

      // Head with a taper toward the jaw.
      const double taper = 1.0 - id.jaw_taper * std::max(0.0, y - id.head_cy);
      const double head = soft_ellipse(x, y, id.head_cx, id.head_cy, id.head_rx * taper,
                                       id.head_ry, 0.10);
      v = v * (1.0 - head) + id.skin_tone * head;

      if (head > 0.0) {
        // Hair: everything above the (slanted) hair line inside the head.
        const double hair_line_here = id.hair_line + 0.08 * id.hair_side * (x - id.head_cx);
        if (y < hair_line_here) {
          const double hair_mix = std::min(1.0, (hair_line_here - y) / 0.05);
          v = v * (1.0 - hair_mix * head) + id.hair_tone * hair_mix * head;
        }

        // Lateral cheek shading (face relief).
        v -= id.cheek_shade * head * std::abs(x - id.head_cx) / id.head_rx * 0.5;

        // Identity-stable texture relief.
        for (std::size_t k = 0; k < FaceIdentity::kTextureBlobs; ++k) {
          v += id.tex_amp[k] * head *
               blob(x, y, id.tex_x[k], id.tex_y[k], id.tex_size[k], id.tex_size[k]);
        }

        const double eye_y = id.eye_y + jitter_eye;
        // Eyes (dark blobs) and brows (dark bars above them).
        for (const double sgn : {-1.0, 1.0}) {
          const double ex = id.head_cx + sgn * id.eye_dx;
          const double e = blob(x, y, ex, eye_y, id.eye_size, id.eye_size * 0.7);
          v = v * (1.0 - e) + id.eye_tone * e;
          const double b =
              blob(x, y, ex, eye_y - id.brow_offset, id.eye_size * 1.7, id.eye_size * 0.35);
          v = v * (1.0 - 0.8 * b) + id.brow_tone * 0.8 * b;

          if (id.glasses) {
            // Dark ring around each eye.
            const double rim = std::sqrt((x - ex) * (x - ex) + (y - eye_y) * (y - eye_y));
            const double ring = std::exp(-0.5 * std::pow((rim - 2.2 * id.eye_size) /
                                                         (0.5 * id.eye_size), 2.0));
            v = v * (1.0 - 0.6 * ring) + 0.1 * 0.6 * ring;
          }
        }
        if (id.glasses) {
          // Bridge between the lenses.
          const double bridge = blob(x, y, id.head_cx, eye_y, id.eye_dx * 0.6, 0.006);
          v = v * (1.0 - 0.5 * bridge) + 0.1 * 0.5 * bridge;
        }

        // Nose: vertical ridge from between the eyes.
        const double nose_cy = eye_y + 0.5 * id.nose_len;
        const double n = blob(x, y, id.head_cx, nose_cy, id.nose_width, 0.5 * id.nose_len);
        const double nose_v = std::clamp(id.skin_tone + id.nose_tone, 0.0, 1.0);
        v = v * (1.0 - 0.7 * n) + nose_v * 0.7 * n;

        // Mouth: horizontal bar, thickness modulated by expression.
        const double mouth_y = id.mouth_y + jitter_mouth;
        const double m = blob(x, y, id.head_cx, mouth_y, id.mouth_w, 0.012 * mouth_open);
        v = v * (1.0 - m) + id.mouth_tone * m;

        if (id.beard) {
          // Beard: darkens the lower face below the mouth line.
          const double beard_mix =
              head * std::clamp((y - (mouth_y - 0.02)) / 0.06, 0.0, 1.0);
          v = v * (1.0 - 0.7 * beard_mix) + id.beard_tone * 0.7 * beard_mix;
        }
      }

      // Illumination: global level + linear gradient.
      v *= illum * (1.0 + grad_x * (x - 0.5) + grad_y * (y - 0.5));

      // Sensor noise.
      v += rng.normal(0.0, config_.pixel_noise_sigma);

      img.at(r, c) = v;
    }
  }
  img.clamp();
}

}  // namespace spinsim
