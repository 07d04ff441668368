#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/random.hpp"
#include "crossbar/rcm.hpp"
#include "support/random_weights.hpp"
#include "support/unit_injection.hpp"

namespace spinsim {
namespace {

using testing::random_columns;

std::vector<double> random_inputs(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> in(rows);
  for (auto& v : in) {
    v = rng.uniform(0.0, 10e-6);
  }
  return in;
}

/// Max per-column deviation relative to the largest reference current.
double relative_error(const std::vector<double>& test, const std::vector<double>& ref) {
  double scale = 0.0;
  for (const double v : ref) {
    scale = std::max(scale, std::abs(v));
  }
  double worst = 0.0;
  for (std::size_t j = 0; j < ref.size(); ++j) {
    worst = std::max(worst, std::abs(test[j] - ref[j]));
  }
  return scale > 0.0 ? worst / scale : worst;
}

/// Reference currents via tight-tolerance CG on an identically-programmed
/// array (identical seed => identical realised conductances).
void expect_paths_agree(const RcmConfig& config, std::uint64_t seed, bool inject_faults,
                        double cg_tolerance = 1e-8) {
  RcmArray reference(config, Rng(seed));
  RcmArray direct(config, Rng(seed));
  const auto columns = random_columns(config.rows, config.cols, seed + 1);
  reference.program(columns);
  direct.program(columns);
  if (inject_faults) {
    reference.inject_fault(1, 2, RcmArray::StuckFault::kOpen);
    direct.inject_fault(1, 2, RcmArray::StuckFault::kOpen);
    reference.inject_fault(config.rows - 1, config.cols - 1, RcmArray::StuckFault::kShort);
    direct.inject_fault(config.rows - 1, config.cols - 1, RcmArray::StuckFault::kShort);
  }

  const std::vector<double> inputs = random_inputs(config.rows, seed + 2);
  reference.set_parasitic_solver(CrossbarSolver::kCg);
  const std::vector<double> i_cg = reference.column_currents_parasitic(inputs);

  // The transfer operator's exactness against per-column factored solves
  // is pinned bitwise by CrossbarTransferBlockSolve below.
  const std::vector<double> i_transfer = direct.column_currents_parasitic(inputs);
  EXPECT_LT(relative_error(i_transfer, i_cg), cg_tolerance);
}

TEST(CrossbarSolverPaths, Fig03ConfigurationAgrees) {
  // fig03 runs the default 128x40 paper array.
  RcmConfig config;
  expect_paths_agree(config, 11, /*inject_faults=*/false);
}

TEST(CrossbarSolverPaths, Fig09ResistanceSweepAgrees) {
  // fig09a scales the memristor range; the extremes change the wire-to-
  // device conductance ratio (and the system conditioning) the most.
  for (const double s : {0.25, 1.0, 8.0}) {
    RcmConfig config;
    config.rows = 64;
    config.cols = 20;
    config.memristor.r_min = 1e3 * s;
    config.memristor.r_max = 32e3 * s;
    expect_paths_agree(config, 13 + static_cast<std::uint64_t>(s * 4), /*inject_faults=*/false);
  }
}

TEST(CrossbarSolverPaths, NoDummyColumnAgrees) {
  RcmConfig config;
  config.rows = 48;
  config.cols = 16;
  config.dummy_column = false;
  expect_paths_agree(config, 19, /*inject_faults=*/false);
}

TEST(CrossbarSolverPaths, FaultedCrossbarAgrees) {
  RcmConfig config;
  config.rows = 64;
  config.cols = 20;
  expect_paths_agree(config, 23, /*inject_faults=*/true);
}

TEST(CrossbarSolverPaths, TransferCacheInvalidatedByFault) {
  RcmConfig config;
  config.rows = 16;
  config.cols = 8;
  RcmArray rcm(config, Rng(29));
  rcm.program(random_columns(config.rows, config.cols, 30));
  const std::vector<double> inputs = random_inputs(config.rows, 31);
  const std::vector<double> before = rcm.column_currents_parasitic(inputs);
  ASSERT_TRUE(rcm.transfer_ready());

  rcm.inject_fault(3, 4, RcmArray::StuckFault::kOpen);
  EXPECT_FALSE(rcm.transfer_ready());
  const std::vector<double> after = rcm.column_currents_parasitic(inputs);
  // The open device must actually change the picture (column 4 loses
  // current), proving the operator was rebuilt rather than reused.
  EXPECT_NE(before[4], after[4]);
}

TEST(CrossbarSolverPaths, TransferBeforePrepareThrows) {
  RcmConfig config;
  config.rows = 8;
  config.cols = 4;
  RcmArray rcm(config, Rng(41));
  rcm.program(random_columns(config.rows, config.cols, 42));
  const std::vector<double> inputs = random_inputs(config.rows, 43);
  EXPECT_THROW(rcm.column_currents_transfer(inputs), InvalidArgument);
  rcm.prepare_parasitic();
  EXPECT_NO_THROW(rcm.column_currents_transfer(inputs));
}

/// Property: the blocked transfer-operator build is bitwise equal to one
/// unit injection + factored solve per output column (the per-column
/// build it replaced), with and without the dummy column.
TEST(CrossbarTransferBlockSolve, OperatorBitwiseEqualsPerColumnSolves) {
  struct Shape {
    std::size_t rows;
    std::size_t cols;
  };
  for (const Shape shape : {Shape{64, 160}, Shape{128, 40}, Shape{20, 64}}) {
    for (const bool dummy : {true, false}) {
      RcmConfig config;
      config.rows = shape.rows;
      config.cols = shape.cols;
      config.dummy_column = dummy;
      const std::uint64_t seed = 53 + shape.rows + shape.cols;
      RcmArray rcm(config, Rng(seed));
      rcm.program(random_columns(config.rows, config.cols, seed + 1));

      // Reference: T[j][r] = g_seg * v(row input r) with 1 A injected at
      // column j's last junction.
      rcm.prepare_parasitic();
      std::vector<RNode> outputs;
      std::vector<RNode> inputs;
      for (std::size_t j = 0; j < config.cols; ++j) {
        outputs.push_back((2 * config.rows - 1) * config.cols + j);
      }
      for (std::size_t r = 0; r < config.rows; ++r) {
        inputs.push_back(r * config.cols);
      }
      std::vector<double> reference =
          testing::unit_injection_reference(rcm.parasitic_network(), outputs, inputs);
      const double g_seg = 1.0 / config.segment_resistance();
      for (double& t : reference) {
        t = g_seg * t;
      }

      EXPECT_TRUE(testing::bitwise_equal(rcm.transfer_operator(), reference))
          << shape.rows << "x" << shape.cols << (dummy ? " dummy" : " no dummy");
    }
  }
}

TEST(CrossbarTransferBlockSolve, AccessorsRequireACache) {
  RcmConfig config;
  config.rows = 8;
  config.cols = 4;
  RcmArray rcm(config, Rng(59));
  rcm.program(random_columns(config.rows, config.cols, 60));
  EXPECT_THROW(rcm.transfer_operator(), InvalidArgument);
  EXPECT_THROW(rcm.parasitic_network(), InvalidArgument);
  rcm.prepare_parasitic();
  EXPECT_EQ(rcm.transfer_operator().size(), config.rows * config.cols);
  EXPECT_EQ(rcm.parasitic_network().node_count(), 2 * config.rows * config.cols + config.cols + 1);
}

TEST(CrossbarSolverPaths, EqualizeRowsStillUniform) {
  // The single-pass equalize_rows must keep every row's total conductance
  // identical (the dummy pad's whole purpose).
  RcmConfig config;
  config.rows = 24;
  config.cols = 10;
  RcmArray rcm(config, Rng(47));
  rcm.program(random_columns(config.rows, config.cols, 48));
  const double g0 = rcm.row_conductance(0);
  for (std::size_t r = 1; r < config.rows; ++r) {
    EXPECT_NEAR(rcm.row_conductance(r), g0, 1e-12 * g0);
  }
}

}  // namespace
}  // namespace spinsim
