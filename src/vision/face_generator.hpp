/// \file face_generator.hpp
/// Deterministic synthetic face-image generator.
///
/// Substitute for the ATT (ORL) Cambridge face database the paper uses
/// (40 individuals x 10 images; see DESIGN.md for the substitution
/// rationale). Each *individual* is a parametric face — head oval, hair
/// line, eyes, brows, nose, mouth, skin tone — drawn from an
/// individual-seeded RNG; each *variant* perturbs pose (translation),
/// illumination (level + gradient), expression (mouth/eye jitter) and adds
/// sensor noise, mimicking the intra-class spread of real capture
/// sessions. Everything is a pure function of (seed, individual, variant).

#pragma once

#include <cstdint>

#include "core/random.hpp"
#include "vision/image.hpp"

namespace spinsim {

/// Tunables of the synthetic face distribution.
struct FaceGeneratorConfig {
  std::size_t image_height = 128;  ///< paper: 128 x 96, 8-bit
  std::size_t image_width = 96;
  std::uint64_t seed = 2013;       ///< dataset master seed

  // Intra-class (variant) spreads. Raising these makes recognition harder;
  // defaults are tuned so the accuracy-vs-downsizing knee sits at the
  // paper's operating point (16x8, 5-bit) — see DESIGN.md.
  double max_shift_fraction = 0.02;      ///< translation, fraction of size
  double illumination_spread = 0.10;     ///< +/- relative brightness
  double gradient_spread = 0.08;         ///< lighting gradient amplitude
  double expression_jitter = 0.012;      ///< feature-position jitter
  double pixel_noise_sigma = 0.015;      ///< additive Gaussian noise
};

/// Generates synthetic face images.
class FaceGenerator {
 public:
  explicit FaceGenerator(const FaceGeneratorConfig& config = {});

  const FaceGeneratorConfig& config() const { return config_; }

  /// Renders variant `variant` of individual `individual`. Deterministic:
  /// the same triple (config.seed, individual, variant) always yields the
  /// same image.
  Image generate(std::size_t individual, std::size_t variant) const;

  /// generate() into a caller-owned image: every pixel is overwritten, and
  /// an image already sized image_height x image_width is reused without
  /// allocating (otherwise it is resized first). Const and thread-safe,
  /// so distinct images can be filled in parallel.
  void generate_into(std::size_t individual, std::size_t variant, Image& img) const;

 private:
  /// Identity-defining parameters (drawn once per individual). The wide
  /// ranges and discrete attributes (beard, glasses, hair style) keep the
  /// 40 classes mutually decorrelated enough that best-vs-second-best
  /// detection margins exceed the paper's 4 % WTA resolution requirement.
  struct FaceIdentity {
    double head_cx, head_cy;     // head centre (normalised coords)
    double head_rx, head_ry;     // head half-axes
    double skin_tone;            // base brightness of the face
    double hair_line;            // top-of-forehead y
    double hair_tone;            // hair darkness
    double hair_side;            // asymmetry of the hair line (-1..1)
    double eye_y, eye_dx;        // eye row and half-separation
    double eye_size, eye_tone;
    double brow_offset, brow_tone;
    double nose_len, nose_width, nose_tone;
    double mouth_y, mouth_w, mouth_tone;
    double jaw_taper;            // lower-face narrowing
    bool beard;                  // dark lower-face region
    double beard_tone;
    bool glasses;                // dark rings + bridge around the eyes
    double cheek_shade;          // lateral shading strength

    // Identity-stable low-frequency relief: random signed Gaussian blobs
    // modulating the face region. This is what decorrelates different
    // individuals the way skin texture / bone structure does in real
    // photographs.
    static constexpr std::size_t kTextureBlobs = 8;
    double tex_x[kTextureBlobs];
    double tex_y[kTextureBlobs];
    double tex_amp[kTextureBlobs];
    double tex_size[kTextureBlobs];
  };

  FaceIdentity identity_for(std::size_t individual) const;

  FaceGeneratorConfig config_;
};

}  // namespace spinsim
