#include "apps/jpeg.hpp"

#include <cmath>
#include <vector>

#include "apps/jpeg_codec.hpp"
#include "prof/tracked.hpp"

namespace hybridic::apps {

namespace {

using jpegc::kBlockDim;
using jpegc::kBlockSize;
using prof::QuadProfiler;
using prof::ScopedFunction;
using prof::TrackedBuffer;

/// Memoizing byte source: a bit reader touches the same stream byte up to
/// eight times, but the hardware fetches it once into a shift register —
/// caching the last byte keeps the profiled volume physical.
template <typename T>
class CachedByteAt {
public:
  explicit CachedByteAt(const TrackedBuffer<T>& buffer) : buffer_(&buffer) {}
  std::uint8_t operator()(std::uint64_t index) {
    if (index != last_index_) {
      last_index_ = index;
      last_value_ = static_cast<std::uint8_t>(buffer_->get(index));
    }
    return last_value_;
  }

private:
  const TrackedBuffer<T>* buffer_;
  std::uint64_t last_index_ = UINT64_MAX;
  std::uint8_t last_value_ = 0;
};

/// Rebuild a Huffman code from a tracked lengths buffer.
jpegc::HuffmanCode read_code(const TrackedBuffer<std::uint8_t>& lengths) {
  std::vector<std::uint8_t> raw(lengths.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = lengths.get(i);
  }
  return jpegc::huffman_from_lengths(raw);
}

}  // namespace

ProfiledApp run_jpeg(const JpegConfig& cfg) {
  ProfiledApp app;
  app.name = "jpeg";
  app.profiler = std::make_unique<QuadProfiler>(prof::ProfileMode::kDeferred);
  QuadProfiler& q = *app.profiler;

  const auto fn_read = q.declare("read_bitstream");
  const auto fn_dc = q.declare("huff_dc_dec");
  const auto fn_ac = q.declare("huff_ac_dec");
  const auto fn_dq = q.declare("dquantz_lum");
  const auto fn_idct = q.declare("j_rev_dct");
  const auto fn_out = q.declare("write_output");

  // Encode outside any tracked function: the compressed input "arrives"
  // from storage; the host then publishes it through tracked writes.
  const jpegc::EncodedImage enc =
      jpegc::encode_test_image(cfg.width, cfg.height, cfg.seed);
  const std::uint32_t blocks = enc.blocks;
  const std::uint32_t blocks_x = enc.width / kBlockDim;

  TrackedBuffer<std::uint8_t> dc_stream{q, "dc_stream", enc.dc_stream.size()};
  TrackedBuffer<std::uint8_t> ac_stream{q, "ac_stream", enc.ac_stream.size()};
  TrackedBuffer<std::uint32_t> ac_index{q, "ac_index", blocks};
  TrackedBuffer<std::uint8_t> dc_lengths{q, "dc_lengths",
                                         enc.dc_code_lengths.size()};
  TrackedBuffer<std::uint8_t> ac_lengths{q, "ac_lengths",
                                         enc.ac_code_lengths.size()};
  TrackedBuffer<std::uint32_t> layout{q, "layout", blocks};
  TrackedBuffer<std::int32_t> dc_values{q, "dc_values", blocks};
  TrackedBuffer<std::int32_t> coeff{q, "coeff",
                                    static_cast<std::size_t>(blocks) *
                                        kBlockSize};
  TrackedBuffer<float> dequant{q, "dequant",
                               static_cast<std::size_t>(blocks) * kBlockSize};
  TrackedBuffer<std::uint8_t> pixels{
      q, "pixels", static_cast<std::size_t>(enc.width) * enc.height};

  // ---- read_bitstream (host). ----
  {
    ScopedFunction scope{q, fn_read};
    for (std::size_t i = 0; i < enc.dc_stream.size(); ++i) {
      dc_stream.set(i, enc.dc_stream[i]);
    }
    for (std::size_t i = 0; i < enc.ac_stream.size(); ++i) {
      ac_stream.set(i, enc.ac_stream[i]);
    }
    for (std::uint32_t b = 0; b < blocks; ++b) {
      ac_index.set(b, enc.ac_block_bit_offset[b]);
      // Output layout: pixel base offset of block b.
      const std::uint32_t bx = b % blocks_x;
      const std::uint32_t by = b / blocks_x;
      layout.set(b, by * kBlockDim * enc.width + bx * kBlockDim);
    }
    for (std::size_t i = 0; i < enc.dc_code_lengths.size(); ++i) {
      dc_lengths.set(i, enc.dc_code_lengths[i]);
    }
    for (std::size_t i = 0; i < enc.ac_code_lengths.size(); ++i) {
      ac_lengths.set(i, enc.ac_code_lengths[i]);
    }
    q.add_work(enc.dc_stream.size() + enc.ac_stream.size() + 4 * blocks);
  }

  // ---- huff_dc_dec (kernel): sequential DC entropy decode. ----
  {
    ScopedFunction scope{q, fn_dc};
    const jpegc::HuffmanCode code = read_code(dc_lengths);
    CachedByteAt byte_at{dc_stream};
    jpegc::BitReader reader{byte_at, dc_stream.size()};
    std::int32_t prev = 0;
    for (std::uint32_t b = 0; b < blocks; ++b) {
      const std::uint32_t category =
          jpegc::decode_symbol(code, [&reader] { return reader.bit(); });
      if (category == UINT32_MAX) {
        throw ConfigError{"corrupt JPEG DC stream: no Huffman code matches "
                          "at block " +
                          std::to_string(b) + " of " + std::to_string(blocks) +
                          " (truncated or bit-flipped input?)"};
      }
      const std::int32_t diff =
          jpegc::value_from_bits(reader.get(category), category);
      prev += diff;
      dc_values.set(b, prev);
      q.add_work(6 + category);
    }
  }

  // ---- huff_ac_dec (kernel): per-block AC decode via the offset index,
  // merging the DC values into zigzag position 0. ----
  {
    ScopedFunction scope{q, fn_ac};
    const jpegc::HuffmanCode code = read_code(ac_lengths);
    CachedByteAt byte_at{ac_stream};
    jpegc::BitReader reader{byte_at, ac_stream.size()};
    for (std::uint32_t b = 0; b < blocks; ++b) {
      const std::size_t base = static_cast<std::size_t>(b) * kBlockSize;
      coeff.set(base, dc_values.get(b));
      for (std::uint32_t i = 1; i < kBlockSize; ++i) {
        coeff.set(base + i, 0);
      }
      reader.seek(ac_index.get(b));
      std::uint32_t position = 1;
      while (position < kBlockSize) {
        const std::uint32_t symbol =
            jpegc::decode_symbol(code, [&reader] { return reader.bit(); });
        if (symbol == UINT32_MAX) {
          throw ConfigError{"corrupt JPEG AC stream: no Huffman code matches "
                            "at block " +
                            std::to_string(b) + ", coefficient " +
                            std::to_string(position) +
                            " (truncated or bit-flipped input?)"};
        }
        q.add_work(8);
        if (symbol == jpegc::kEob) {
          break;
        }
        if (symbol == jpegc::kZrl) {
          position += 16;
          continue;
        }
        position += symbol >> 4;
        const std::uint32_t size = symbol & 0x0F;
        if (position >= kBlockSize) {
          throw ConfigError{"corrupt JPEG AC stream: run-length at block " +
                            std::to_string(b) + " advances to coefficient " +
                            std::to_string(position) + " past the " +
                            std::to_string(kBlockSize) + "-entry block"};
        }
        coeff.set(base + position,
                  jpegc::value_from_bits(reader.get(size), size));
        ++position;
      }
    }
  }

  // ---- dquantz_lum (kernel): dequantize + un-zigzag. The quantization
  // table is core-resident ROM (untracked), so the profile shows R1. ----
  {
    ScopedFunction scope{q, fn_dq};
    const auto& zz = jpegc::zigzag_order();
    const auto& qt = jpegc::quant_table();
    for (std::uint32_t b = 0; b < blocks; ++b) {
      const std::size_t base = static_cast<std::size_t>(b) * kBlockSize;
      for (std::uint32_t i = 0; i < kBlockSize; ++i) {
        const std::int32_t v = coeff.get(base + i);
        dequant.set(base + zz[i],
                    static_cast<float>(v) * static_cast<float>(qt[zz[i]]));
        q.add_work(2);
      }
    }
  }

  // ---- j_rev_dct (kernel): inverse DCT per block, placed via the
  // host-provided layout table. ----
  {
    ScopedFunction scope{q, fn_idct};
    float coeffs[kBlockSize];
    float block[kBlockSize];
    for (std::uint32_t b = 0; b < blocks; ++b) {
      const std::size_t base = static_cast<std::size_t>(b) * kBlockSize;
      for (std::uint32_t i = 0; i < kBlockSize; ++i) {
        coeffs[i] = dequant.get(base + i);
      }
      jpegc::idct8x8(coeffs, block);
      const std::uint32_t pixel_base = layout.get(b);
      for (std::uint32_t y = 0; y < kBlockDim; ++y) {
        for (std::uint32_t x = 0; x < kBlockDim; ++x) {
          pixels.set(pixel_base + y * enc.width + x,
                     static_cast<std::uint8_t>(
                         std::lround(block[y * kBlockDim + x])));
        }
      }
      q.add_work(kBlockSize * 18);  // two 8-point transforms per row/col
    }
  }

  // ---- write_output (host): consume and verify. ----
  std::vector<std::uint8_t> decoded(pixels.size());
  {
    ScopedFunction scope{q, fn_out};
    for (std::size_t i = 0; i < pixels.size(); ++i) {
      decoded[i] = pixels.get(i);
    }
    q.add_work(pixels.size());
  }

  // Verification: tracked pipeline must match the untracked reference
  // decoder bit-exactly, and reconstruction must be close to the original.
  const std::vector<std::uint8_t> reference = jpegc::reference_decode(enc);
  const bool matches_reference = decoded == reference;
  const double quality = jpegc::psnr(decoded, enc.original);
  app.verified = matches_reference && quality >= cfg.min_psnr_db;
  app.verification_note =
      std::string("matches reference decoder: ") +
      (matches_reference ? "yes" : "NO") +
      ", PSNR vs original: " + std::to_string(quality) + " dB";

  app.calibration = {
      {"read_bitstream", 2.5, 0.0, 0, 0, false, false, false},
      {"huff_dc_dec", 1.91, 1.25, 980, 1020, true, false, true},
      {"huff_ac_dec", 40.0, 4.17, 5560, 5590, true, true, true},
      {"dquantz_lum", 1.50, 0.136, 760, 780, true, false, true},
      {"j_rev_dct", 1.064, 0.0301, 1400, 1450, true, false, true},
      {"write_output", 2.0, 0.0, 0, 0, false, false, false},
  };
  app.environment.base_infrastructure = core::Resources{2007, 2882};
  q.seal();
  return app;
}

}  // namespace hybridic::apps
