// Error-path coverage: invalid shapes and arguments must be rejected with
// sdmpeb::Error (never UB or silent misbehaviour). Includes the corrupted
// checkpoint matrix for the v2 checksummed container format (DESIGN.md §10):
// truncation at every boundary, bit-flips caught by CRC, v1 compatibility.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/losses.hpp"
#include "core/sdm_peb_model.hpp"
#include "core/trainer.hpp"
#include "eval/dataset.hpp"
#include "io/volume_io.hpp"
#include "nn/ops.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "serve/frozen_model.hpp"

namespace sdmpeb {
namespace {

namespace nnops = nn::ops;

nn::Value value_of(Shape shape, float fill = 1.0f) {
  return nn::constant(Tensor(std::move(shape), fill));
}

TEST(OpErrors, ElementwiseShapeMismatch) {
  EXPECT_THROW(nnops::add(value_of({2, 3}), value_of({3, 2})), Error);
  EXPECT_THROW(nnops::mul(value_of({4}), value_of({5})), Error);
  EXPECT_THROW(nnops::sub(value_of({2}), value_of({2, 1})), Error);
}

TEST(OpErrors, MatmulInnerDimMismatch) {
  EXPECT_THROW(nnops::matmul(value_of({2, 3}), value_of({4, 5})), Error);
  EXPECT_THROW(nnops::matmul(value_of({2, 3}), value_of({2, 5}), false, true),
               Error);
}

TEST(OpErrors, LinearWrongBias) {
  EXPECT_THROW(
      nnops::linear(value_of({2, 3}), value_of({3, 4}), value_of({5})),
      Error);
}

TEST(OpErrors, SoftmaxNeedsMatrixAndPositiveTau) {
  EXPECT_THROW(nnops::softmax_rows(value_of({4})), Error);
  EXPECT_THROW(nnops::softmax_rows(value_of({2, 2}), 0.0f), Error);
  EXPECT_THROW(nnops::log_softmax_rows(value_of({2, 2}), -1.0f), Error);
}

TEST(OpErrors, LayerNormAffineSizeMismatch) {
  EXPECT_THROW(
      nnops::layer_norm(value_of({2, 4}), value_of({3}), value_of({4})),
      Error);
}

TEST(OpErrors, NarrowOutOfRange) {
  EXPECT_THROW(nnops::narrow_rows(value_of({3, 2}), 2, 2), Error);
  EXPECT_THROW(nnops::narrow_rows(value_of({3, 2}), -1, 1), Error);
  EXPECT_THROW(nnops::narrow_cols(value_of({3, 2}), 1, 2), Error);
}

TEST(OpErrors, GatherRowsIndexOutOfRange) {
  EXPECT_THROW(nnops::gather_rows(value_of({3, 2}), {0, 3}), Error);
  EXPECT_THROW(nnops::gather_rows(value_of({3, 2}), {-1}), Error);
}

TEST(OpErrors, ConcatShapeMismatch) {
  EXPECT_THROW(
      nnops::concat_rows({value_of({2, 3}), value_of({2, 4})}), Error);
  EXPECT_THROW(
      nnops::concat_cols({value_of({2, 3}), value_of({3, 3})}), Error);
  EXPECT_THROW(nnops::concat_channels(
                   {value_of({1, 2, 2, 2}), value_of({1, 2, 2, 3})}),
               Error);
}

TEST(OpErrors, ConvChannelMismatch) {
  EXPECT_THROW(nnops::conv2d_per_depth(value_of({2, 1, 4, 4}),
                                       value_of({3, 5, 3, 3}), nullptr, 1, 1),
               Error);
  EXPECT_THROW(nnops::conv3d(value_of({2, 4, 4, 4}),
                             value_of({3, 1, 3, 3, 3}), nullptr, 1, 1),
               Error);
  EXPECT_THROW(nnops::dwconv3d(value_of({2, 4, 4, 4}),
                               value_of({3, 3, 3, 3}), nullptr, 1),
               Error);
}

TEST(OpErrors, ConvOutputWouldBeEmpty) {
  // 2x2 input with a 5x5 kernel and no padding.
  EXPECT_THROW(nnops::conv2d_per_depth(value_of({1, 1, 2, 2}),
                                       value_of({1, 1, 5, 5}), nullptr, 1, 0),
               Error);
}

TEST(OpErrors, SelectiveScanShapeMismatches) {
  const auto x = value_of({4, 2});
  const auto delta = value_of({4, 2}, 0.1f);
  const auto a_log = value_of({2, 3});
  const auto b = value_of({4, 3});
  const auto c = value_of({4, 3});
  const auto d = value_of({2});
  // Wrong delta length.
  EXPECT_THROW(nnops::selective_scan(x, value_of({5, 2}), a_log, b, c, d),
               Error);
  // Wrong state count in c.
  EXPECT_THROW(nnops::selective_scan(x, delta, a_log, b, value_of({4, 2}), d),
               Error);
  // Wrong skip size.
  EXPECT_THROW(nnops::selective_scan(x, delta, a_log, b, c, value_of({3})),
               Error);
}

TEST(OpErrors, SpectralConvNeedsPowerOfTwoDims) {
  EXPECT_THROW(
      nnops::spectral_conv3d(value_of({1, 3, 4, 4}),
                             value_of({1, 1, 2, 2, 2}),
                             value_of({1, 1, 2, 2, 2}), 2, 2, 2),
      Error);
}

TEST(OpErrors, SpectralConvModesExceedDims) {
  EXPECT_THROW(
      nnops::spectral_conv3d(value_of({1, 2, 4, 4}),
                             value_of({1, 1, 4, 2, 2}),
                             value_of({1, 1, 4, 2, 2}), 4, 2, 2),
      Error);
}

TEST(LossErrors, DivergenceNeedsRank3AndTwoLayers) {
  EXPECT_THROW(core::depth_divergence_loss(value_of({4, 4}),
                                           value_of({4, 4}), 0.1f),
               Error);
  EXPECT_THROW(core::depth_divergence_loss(value_of({1, 4, 4}),
                                           value_of({1, 4, 4}), 0.1f),
               Error);
}

TEST(ModelErrors, ForwardRejectsWrongInput) {
  Rng rng(1);
  core::SdmPebModel model(core::SdmPebConfig::tiny(), rng);
  // Two channels instead of one.
  EXPECT_THROW(model.forward(value_of({2, 2, 8, 8})), Error);
  // Lateral size not divisible by the total stride (4).
  EXPECT_THROW(model.forward(value_of({1, 2, 10, 10})), Error);
}

TEST(TrainerErrors, RejectsEmptyDataAndBadShapes) {
  Rng rng(2);
  core::SdmPebModel model(core::SdmPebConfig::tiny(), rng);
  core::TrainConfig config;
  config.epochs = 1;
  Rng train_rng(3);
  EXPECT_THROW(core::train_model(model, {}, config, train_rng), Error);

  std::vector<core::TrainSample> bad = {
      {Tensor(Shape{2, 8, 8}), Tensor(Shape{2, 8, 4})}};
  EXPECT_THROW(core::train_model(model, bad, config, train_rng), Error);
}

TEST(DatasetErrors, SplitMustLeaveAValidationClip) {
  // Two clips at the default 0.75 split round to two training clips and no
  // validation clip: rejected up front, naming the knobs to change.
  auto config = eval::DatasetConfig::small();
  config.clip_count = 2;
  try {
    config.validate();
    FAIL() << "clip_count 2 validated";
  } catch (const Error& e) {
    const std::string what = e.what();
    for (const char* part :
         {"clip_count", "--clips", "train_fraction", "no validation clip"})
      EXPECT_NE(what.find(part), std::string::npos) << part << " in " << what;
  }
  config.clip_count = 3;
  EXPECT_NO_THROW(config.validate());
}

TEST(OptimErrors, AdamRejectsNonGradParams) {
  auto frozen = nn::constant(Tensor(Shape{2}, 1.0f));
  EXPECT_THROW(nn::Adam({frozen}, nn::Adam::Options{}), Error);
  EXPECT_THROW(nn::Adam({}, nn::Adam::Options{}), Error);
}

// ---------------------------------------------------------------------------
// Corrupted-checkpoint matrix for the v2 container (magic, version,
// payload_size, payload, crc32). Every mutation must be rejected with a
// descriptive Error — never a crash, hang, or silently-wrong load.

class CorruptCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sdmpeb_corrupt_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string slurp(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
  static void spit(const std::string& file, const std::string& bytes) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Rewrite a v2 container as the legacy v1 format: same magic + payload,
  /// version 1, no payload_size framing and no CRC trailer.
  static std::string as_v1(const std::string& v2_bytes) {
    constexpr std::size_t kHeader = 4 + 8 + 8;  // magic + version + size
    std::string v1 = v2_bytes.substr(0, 4);
    const std::int64_t version = 1;
    v1.append(reinterpret_cast<const char*>(&version), sizeof(version));
    v1.append(v2_bytes.substr(kHeader, v2_bytes.size() - kHeader - 4));
    return v1;
  }

  /// Every interesting truncation point: inside each header field, at each
  /// field boundary, mid-payload, and just before/inside the CRC trailer.
  static std::vector<std::size_t> truncation_points(std::size_t size) {
    std::vector<std::size_t> points = {0, 2, 4, 8, 12, 16, 20};
    points.push_back(20 + (size - 24) / 2);  // mid-payload
    points.push_back(size - 5);              // last payload byte gone
    points.push_back(size - 4);              // payload intact, CRC missing
    points.push_back(size - 1);              // partial CRC
    std::vector<std::size_t> valid;
    for (const auto p : points)
      if (p < size) valid.push_back(p);
    return valid;
  }

  std::filesystem::path dir_;
};

TEST_F(CorruptCheckpointTest, GridTruncationAtEveryBoundaryIsRejected) {
  Grid3 grid(2, 3, 4, 0.5);
  grid.at(1, 2, 3) = -7.25;
  io::save_grid(grid, path("grid.sdmv"));
  const auto bytes = slurp(path("grid.sdmv"));
  ASSERT_GT(bytes.size(), 24u);
  for (const auto cut : truncation_points(bytes.size())) {
    spit(path("trunc.sdmv"), bytes.substr(0, cut));
    EXPECT_THROW(io::load_grid(path("trunc.sdmv")), Error)
        << "truncation to " << cut << " bytes was accepted";
  }
}

TEST_F(CorruptCheckpointTest, TensorTruncationAtEveryBoundaryIsRejected) {
  Rng rng(5);
  io::save_tensor(Tensor::normal(Shape{3, 4}, rng), path("t.sdmt"));
  const auto bytes = slurp(path("t.sdmt"));
  for (const auto cut : truncation_points(bytes.size())) {
    spit(path("trunc.sdmt"), bytes.substr(0, cut));
    EXPECT_THROW(io::load_tensor(path("trunc.sdmt")), Error);
  }
}

TEST_F(CorruptCheckpointTest, ParamsTruncationAtEveryBoundaryIsRejected) {
  Rng rng(6);
  core::SdmPebModel model(core::SdmPebConfig::tiny(), rng);
  nn::save_parameters(model, path("m.sdmp"));
  const auto bytes = slurp(path("m.sdmp"));
  for (const auto cut : truncation_points(bytes.size())) {
    spit(path("trunc.sdmp"), bytes.substr(0, cut));
    EXPECT_THROW(nn::load_parameters(model, path("trunc.sdmp")), Error);
  }
}

TEST_F(CorruptCheckpointTest, SingleBitFlipAnywhereIsRejected) {
  Grid3 grid(2, 2, 2, 0.125);
  io::save_grid(grid, path("grid.sdmv"));
  const auto bytes = slurp(path("grid.sdmv"));
  // Flip one bit in the payload (CRC catches it), in the stored CRC itself,
  // and in each header field (magic / version / payload_size checks catch
  // those).
  const std::size_t probes[] = {0, 5, 13, 21, 24, bytes.size() / 2,
                                bytes.size() - 3};
  for (const auto offset : probes) {
    ASSERT_LT(offset, bytes.size());
    auto flipped = bytes;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x10);
    spit(path("flip.sdmv"), flipped);
    EXPECT_THROW(io::load_grid(path("flip.sdmv")), Error)
        << "bit flip at byte " << offset << " was accepted";
  }
}

TEST_F(CorruptCheckpointTest, LegacyV1FilesStillLoad) {
  // The v1 format had no payload_size and no CRC; its payload layout is
  // byte-identical to v2's, so a v1 file rebuilt from a v2 one is exactly
  // what pre-upgrade checkpoints on disk look like.
  Grid3 grid(3, 2, 2, 0.0);
  for (std::int64_t i = 0; i < grid.numel(); ++i)
    grid.data()[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(i);
  io::save_grid(grid, path("grid.sdmv"));
  spit(path("grid_v1.sdmv"), as_v1(slurp(path("grid.sdmv"))));
  const auto loaded = io::load_grid(path("grid_v1.sdmv"));
  ASSERT_EQ(loaded.numel(), grid.numel());
  for (std::int64_t i = 0; i < grid.numel(); ++i)
    EXPECT_EQ(loaded.data()[static_cast<std::size_t>(i)],
              grid.data()[static_cast<std::size_t>(i)]);

  Rng rng(7);
  const Tensor tensor = Tensor::normal(Shape{2, 3}, rng);
  io::save_tensor(tensor, path("t.sdmt"));
  spit(path("t_v1.sdmt"), as_v1(slurp(path("t.sdmt"))));
  const Tensor loaded_t = io::load_tensor(path("t_v1.sdmt"));
  ASSERT_EQ(loaded_t.shape(), tensor.shape());
  for (std::int64_t i = 0; i < tensor.numel(); ++i)
    EXPECT_EQ(loaded_t[i], tensor[i]);

  core::SdmPebModel model(core::SdmPebConfig::tiny(), rng);
  nn::save_parameters(model, path("m.sdmp"));
  spit(path("m_v1.sdmp"), as_v1(slurp(path("m.sdmp"))));
  Rng other(8);
  core::SdmPebModel reloaded(core::SdmPebConfig::tiny(), other);
  nn::load_parameters(reloaded, path("m_v1.sdmp"));
  const auto pa = model.parameters();
  const auto pb = reloaded.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t j = 0; j < pa[i]->value().numel(); ++j)
      ASSERT_EQ(pa[i]->value()[j], pb[i]->value()[j]);
}

TEST_F(CorruptCheckpointTest, RejectsWrongMagicVersionAndSizeFraming) {
  Grid3 grid(2, 2, 2, 1.0);
  io::save_grid(grid, path("grid.sdmv"));
  const auto bytes = slurp(path("grid.sdmv"));

  // A tensor loader pointed at a grid file must refuse on magic.
  EXPECT_THROW(io::load_tensor(path("grid.sdmv")), Error);

  // Future version is refused rather than misparsed.
  auto future = bytes;
  future[4] = 99;
  spit(path("future.sdmv"), future);
  EXPECT_THROW(io::load_grid(path("future.sdmv")), Error);

  // payload_size larger than the file is framing corruption.
  auto oversize = bytes;
  oversize[12] = 127;
  spit(path("oversize.sdmv"), oversize);
  EXPECT_THROW(io::load_grid(path("oversize.sdmv")), Error);

  // Missing file: descriptive error, not a crash.
  EXPECT_THROW(io::load_grid(path("does_not_exist.sdmv")), Error);
}

TEST_F(CorruptCheckpointTest, TrainStateRejectsV1AndCorruptCursors) {
  Rng rng(9);
  core::SdmPebModel model(core::SdmPebConfig::tiny(), rng);
  nn::Adam optimizer(model.parameters(), nn::Adam::Options{});
  nn::TrainState state;
  state.epoch = 1;
  state.rng = rng.state();
  nn::save_train_state(path("s.state"), model, optimizer, state);

  // Train states never existed as v1 — a downgraded file is refused.
  spit(path("s_v1.state"), as_v1(slurp(path("s.state"))));
  EXPECT_THROW(nn::load_train_state(path("s_v1.state"), model, optimizer),
               Error);

  // And the full matrix applies to SDMS files too: truncate + bit-flip.
  const auto bytes = slurp(path("s.state"));
  spit(path("s_trunc.state"), bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(nn::load_train_state(path("s_trunc.state"), model, optimizer),
               Error);
  auto flipped = bytes;
  flipped[bytes.size() / 2] =
      static_cast<char>(flipped[bytes.size() / 2] ^ 0x01);
  spit(path("s_flip.state"), flipped);
  EXPECT_THROW(nn::load_train_state(path("s_flip.state"), model, optimizer),
               Error);
}

TEST_F(CorruptCheckpointTest, ServeFrozenModelRejectsCorruptArtifactsAtStartup) {
  // The serving contract (DESIGN.md §13): a corrupt, truncated, or
  // mismatched checkpoint must fail FrozenModel construction — never load
  // quietly and fail (or mispredict) mid-request.
  Rng rng(11);
  const auto model = serve::make_peb_net("sdm", serve::ModelScale::kTiny, rng);
  nn::save_parameters(*model, path("frozen.ckpt"));
  const Shape shape{2, 8, 8};

  // The pristine checkpoint loads.
  EXPECT_NO_THROW(serve::FrozenModel("sdm", serve::ModelScale::kTiny,
                                     path("frozen.ckpt"), shape));

  const auto bytes = slurp(path("frozen.ckpt"));
  for (const auto cut : truncation_points(bytes.size())) {
    spit(path("frozen_trunc.ckpt"), bytes.substr(0, cut));
    EXPECT_THROW(serve::FrozenModel("sdm", serve::ModelScale::kTiny,
                                    path("frozen_trunc.ckpt"), shape),
                 Error)
        << "truncation to " << cut << " bytes was served";
  }

  auto flipped = bytes;
  flipped[bytes.size() / 2] =
      static_cast<char>(flipped[bytes.size() / 2] ^ 0x04);
  spit(path("frozen_flip.ckpt"), flipped);
  EXPECT_THROW(serve::FrozenModel("sdm", serve::ModelScale::kTiny,
                                  path("frozen_flip.ckpt"), shape),
               Error);

  // Architecture mismatch: a tiny checkpoint does not fit the default-scale
  // model (shape validation in load_parameters), and vice versa for names.
  EXPECT_THROW(serve::FrozenModel("sdm", serve::ModelScale::kDefault,
                                  path("frozen.ckpt"), shape),
               Error);
  EXPECT_THROW(serve::FrozenModel("not-a-model", serve::ModelScale::kTiny,
                                  path("frozen.ckpt"), shape),
               Error);

  // Missing file and a shape the architecture cannot consume.
  EXPECT_THROW(serve::FrozenModel("sdm", serve::ModelScale::kTiny,
                                  path("absent.ckpt"), shape),
               Error);
  EXPECT_THROW(serve::FrozenModel("sdm", serve::ModelScale::kTiny,
                                  path("frozen.ckpt"), Shape{2, 8}),
               Error);
}

}  // namespace
}  // namespace sdmpeb
