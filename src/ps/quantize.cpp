#include "ps/quantize.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "lowp/round.h"
#include "util/logging.h"

namespace buckwild::ps {

void
validate_comm_bits(int bits)
{
    if (bits != 1 && bits != 8 && bits != 32)
        fatal("comm_bits must be 1, 8, or 32");
}

Codec
Codec::from_bits(int bits)
{
    validate_comm_bits(bits);
    Codec codec;
    codec.bits = bits;
    codec.kind = bits >= 32  ? CodecKind::kDense
                 : bits == 8 ? CodecKind::kLinear
                             : CodecKind::kSign;
    return codec;
}

Codec
Codec::qsgd(int bits)
{
    if (bits < 2 || bits > 8) fatal("CsQ bits must be in [2, 8]");
    return {CodecKind::kQsgd, bits};
}

namespace {

int
parse_tier_int(const std::string& text, const std::string& whole)
{
    char* end = nullptr;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || value < 0 || value > 64)
        fatal("unknown codec tier '" + whole + "'");
    return static_cast<int>(value);
}

} // namespace

Codec
Codec::parse(const std::string& text)
{
    std::string tail = text;
    if (tail.size() >= 2 && (tail[0] == 'C' || tail[0] == 'c') &&
        (tail[1] == 's' || tail[1] == 'S'))
        tail = tail.substr(2);
    if (!tail.empty() && (tail[0] == 'Q' || tail[0] == 'q'))
        return qsgd(parse_tier_int(tail.substr(1), text));
    return from_bits(parse_tier_int(tail, text));
}

std::string
Codec::name() const
{
    if (kind == CodecKind::kQsgd) return "CsQ" + std::to_string(bits);
    return "Cs" + std::to_string(bits);
}

void
validate_codec(const Codec& codec)
{
    switch (codec.kind) {
        case CodecKind::kDense:
            if (codec.bits == 32) return;
            break;
        case CodecKind::kLinear:
            if (codec.bits == 8) return;
            break;
        case CodecKind::kSign:
            if (codec.bits == 1) return;
            break;
        case CodecKind::kQsgd:
            if (codec.bits >= 2 && codec.bits <= 8) return;
            break;
    }
    fatal("invalid codec: kind " +
          std::to_string(static_cast<int>(codec.kind)) + " at " +
          std::to_string(codec.bits) + " bits");
}

std::size_t
payload_bytes(std::size_t count, int bits)
{
    validate_comm_bits(bits);
    if (bits >= 32) return count * sizeof(float);
    if (bits == 8) return count;
    return (count + 7) / 8;
}

namespace {

/**
 * The shared quantization core: writes the transmitted values into
 * q[0..n), the error into residual[0..n) (when non-null), and the packed
 * wire payload into `payload` (when non-null, sized by payload_bytes and
 * zeroed), exactly as the seed emulation computed them. Packing happens
 * here — not from the already-rounded q — so the stored Cs8 level is the
 * very nearbyintf() result whose product with the scale IS q[k], keeping
 * decode bit-identical. Returns the per-message scale.
 */
float
quantize_into(const float* g, std::size_t n, int bits, float* q,
              float* residual, std::uint8_t* payload)
{
    float scale = 0.0f;
    if (bits >= 32) {
        std::copy(g, g + n, q);
        if (residual != nullptr)
            for (std::size_t k = 0; k < n; ++k) residual[k] = 0.0f;
        if (payload != nullptr)
            std::memcpy(payload, g, n * sizeof(float));
        return scale;
    }

    if (bits == 1) {
        // Seide-style 1-bit: transmit sign(g) and one shared magnitude
        // (the mean absolute value); the untransmitted remainder stays in
        // the residual. The magnitude sum stays sequential (its double
        // accumulation order is part of the wire format); the sign pass,
        // residual, and bit packing take the substrate's vectorized path.
        double mag = 0.0;
        for (std::size_t k = 0; k < n; ++k) mag += std::fabs(g[k]);
        scale =
            n > 0 ? static_cast<float>(mag / static_cast<double>(n)) : 0.0f;
        lowp::quantize_sign_1bit(g, n, scale, q, residual, payload);
    } else {
        // k-bit linear quantization with a per-round scale; level
        // rounding, packing, and the error-feedback residual run in the
        // substrate's vectorized kernel.
        const float maxabs = lowp::max_abs(g, n);
        const float levels = static_cast<float>((1 << (bits - 1)) - 1);
        scale = maxabs > 0.0f ? maxabs / levels : 1.0f;
        lowp::round_levels_i8(g, n, scale,
                              reinterpret_cast<std::int8_t*>(payload), q,
                              residual);
    }
    return scale;
}

// ---------------------------------------------------------------------
// QSGD (CsQ<b>): bucketed L2 norm + stochastic Elias-gamma levels
// ---------------------------------------------------------------------

/// Elias-gamma writer over a 64-bit accumulator. gamma(v) for v >= 1 is
/// v itself written MSB-first in 2 * bit_width(v) - 1 bits: the leading
/// bit_width(v) - 1 of them are the zeros that give the code its length.
/// Codes append after whatever `out` already holds, as big-endian 32-bit
/// words; finish() pads the last byte with zero bits.
class GammaWriter
{
  public:
    explicit GammaWriter(std::vector<std::uint8_t>& out)
        : out_(out), pos_(out.size())
    {}

    /// Appends gamma(values[i] + bias) for every i < count (each sum
    /// >= 1). The batch sizes the output once, from the widest value, so
    /// the loop keeps its state in registers and checks no capacity.
    template <typename T>
    void
    put(const T* values, std::size_t count, std::uint32_t bias)
    {
        if (count == 0) return;
        std::uint32_t any = 0;
        for (std::size_t i = 0; i < count; ++i) any |= values[i] + bias;
        const std::size_t max_bits =
            count * static_cast<std::size_t>(2 * std::bit_width(any) - 1);
        const std::size_t need =
            pos_ + (max_bits + static_cast<std::size_t>(pending_)) / 8 + 8;
        if (out_.size() < need) out_.resize(std::max(need, 2 * out_.size()));

        std::uint8_t* out = out_.data() + pos_;
        std::uint64_t acc = acc_; // pending bits in the low `pending`
        int pending = pending_;   // < 32 between codes
        const auto append = [&](std::uint32_t bits, int len) { // len <= 32
            acc = (acc << len) | bits;
            pending += len;
            if (pending < 32) return;
            pending -= 32;
            std::uint32_t word = static_cast<std::uint32_t>(acc >> pending);
            if constexpr (std::endian::native == std::endian::little)
                word = __builtin_bswap32(word);
            std::memcpy(out, &word, 4);
            out += 4;
        };
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint32_t v = values[i] + bias;
            const int width = std::bit_width(v);
            if (width <= 16) {
                append(v, 2 * width - 1);
            } else {
                append(0, width - 1);
                append(v, width);
            }
        }
        pos_ = static_cast<std::size_t>(out - out_.data());
        acc_ = acc;
        pending_ = pending;
    }

    void
    finish()
    {
        if (pos_ + 4 > out_.size()) out_.resize(pos_ + 4);
        for (; pending_ >= 8; pending_ -= 8)
            out_[pos_++] = static_cast<std::uint8_t>(acc_ >> (pending_ - 8));
        if (pending_ > 0)
            out_[pos_++] = static_cast<std::uint8_t>(acc_ << (8 - pending_));
        pending_ = 0;
        out_.resize(pos_);
    }

  private:
    std::vector<std::uint8_t>& out_;
    std::size_t pos_;
    std::uint64_t acc_ = 0;
    int pending_ = 0;
};

/// The gamma codes that fit whole in one byte of the stream, for every
/// byte value: how many, the bits they span, and their values minus one
/// (CsQ levels), packed one per byte. Most CsQ codes are 1 or 3 bits, so
/// one lookup usually decodes several.
struct ByteCodes
{
    std::uint8_t levels[8] = {};
    std::uint8_t count = 0;
    std::uint8_t bits = 0;
    std::uint8_t max_level = 0;
};

const std::array<ByteCodes, 256>&
byte_codes()
{
    static const std::array<ByteCodes, 256> table = [] {
        std::array<ByteCodes, 256> t{};
        for (unsigned byte = 0; byte < 256; ++byte) {
            ByteCodes& e = t[byte];
            for (;;) {
                const unsigned rest = (byte << e.bits) & 0xFFu;
                const int zeros = std::countl_zero(rest) - 24; // 8-bit view
                const int len = 2 * zeros + 1;
                if (rest == 0 || e.bits + len > 8) break;
                const auto level =
                    static_cast<std::uint8_t>((rest >> (8 - len)) - 1u);
                e.levels[e.count++] = level;
                e.max_level = std::max(e.max_level, level);
                e.bits = static_cast<std::uint8_t>(e.bits + len);
            }
        }
        return t;
    }();
    return table;
}

/// Word-at-a-time Elias-gamma reader. It holds up to 64 stream bits
/// MSB-aligned in `window_`, finds each code's length with countl_zero
/// and refills with whole bytes from one 8-byte load, so every bit
/// below the window is zero. Truncation and overlong codes (more than
/// 31 leading zeros: no 32-bit value has one) are wire-format
/// violations, not soft errors.
class GammaReader
{
  public:
    GammaReader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
        refill();
    }

    std::uint32_t
    get()
    {
        if (bits_ < 32) refill();
        const int zeros = std::countl_zero(window_);
        if (zeros > 31 || zeros >= bits_)
            fatal(bits_ >= 32 ? "CsQ gamma code overlong"
                              : "CsQ payload truncated mid-bitstream");
        const int len = 2 * zeros + 1;
        if (len <= bits_) {
            const auto v = static_cast<std::uint32_t>(window_ >> (64 - len));
            consume(len);
            return v;
        }
        // The code outruns the window: a value wider than 28 bits, or
        // the end of the stream.
        consume(zeros);
        refill();
        if (bits_ < zeros + 1) fatal("CsQ payload truncated mid-bitstream");
        const auto v = static_cast<std::uint32_t>(window_ >> (63 - zeros));
        consume(zeros + 1);
        return v;
    }

    /// Reads `count` CsQ levels (gamma values minus one) into `out`,
    /// rejecting any above `s`. Whole bytes of short codes go through
    /// the byte_codes() table; the rest, and the stream's last byte,
    /// through get().
    void
    get_levels(std::uint8_t* out, std::size_t count, std::uint32_t s)
    {
        const auto& table = byte_codes();
        std::size_t j = 0;
        while (j + 8 <= count) {
            if (bits_ < 32) refill();
            if (bits_ < 8) break;
            const ByteCodes& codes = table[window_ >> 56];
            if (codes.count == 0 || codes.max_level > s) {
                out[j++] = get_level(s);
                continue;
            }
            std::memcpy(out + j, codes.levels, 8);
            j += codes.count;
            consume(codes.bits);
        }
        for (; j < count; ++j) out[j] = get_level(s);
    }

    /// Whole bytes the codes read so far span (the last one padded).
    std::size_t
    bytes_read() const
    {
        return (next_ * 8 - static_cast<std::size_t>(bits_) + 7) / 8;
    }

  private:
    std::uint8_t
    get_level(std::uint32_t s)
    {
        const std::uint32_t level = get() - 1;
        if (level > s) fatal("CsQ level exceeds the codec's level count");
        return static_cast<std::uint8_t>(level);
    }

    void
    consume(int len)
    {
        window_ <<= len;
        bits_ -= len;
    }

    void
    refill()
    {
        const std::size_t take = std::min<std::size_t>(
            static_cast<std::size_t>(64 - bits_) / 8, size_ - next_);
        if (take == 0) return;
        std::uint64_t word = 0;
        if (next_ + 8 <= size_) {
            std::memcpy(&word, data_ + next_, 8);
            if constexpr (std::endian::native == std::endian::little)
                word = __builtin_bswap64(word);
        } else {
            for (std::size_t i = 0; i < take; ++i)
                word |= static_cast<std::uint64_t>(data_[next_ + i])
                        << (56 - 8 * i);
        }
        const int taken = static_cast<int>(8 * take);
        window_ |= (word >> (64 - taken)) << (64 - taken - bits_);
        next_ += take;
        bits_ += taken;
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t next_ = 0;    ///< first byte not yet in the window
    std::uint64_t window_ = 0;
    int bits_ = 0;            ///< valid bits at the top of window_
};

WireGradient
encode_qsgd(const float* g, std::size_t n, int bits, float* residual,
            rng::Xorshift128Plus* rng)
{
    // A null rng falls back to a default-seeded local stream so golden
    // tests (and emulation comparisons) stay reproducible.
    rng::Xorshift128Plus fallback;
    if (rng == nullptr) rng = &fallback;

    const int s = (1 << (bits - 1)) - 1;
    WireGradient wire;
    wire.kind = CodecKind::kQsgd;
    wire.bits = bits;
    wire.count = static_cast<std::uint32_t>(n);
    const std::size_t buckets = (n + kQsgdBucket - 1) / kQsgdBucket;
    wire.norms.resize(buckets);
    wire.payload.resize((n + 7) / 8);
    GammaWriter writer(wire.payload);

    std::uint32_t words[kQsgdBucket];
    std::uint8_t levels[kQsgdBucket];
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::size_t begin = b * kQsgdBucket;
        const std::size_t len = std::min(n, begin + kQsgdBucket) - begin;
        double sumsq = 0.0;
        for (std::size_t k = begin; k < begin + len; ++k)
            sumsq += static_cast<double>(g[k]) * static_cast<double>(g[k]);
        const float norm = static_cast<float>(std::sqrt(sumsq));
        wire.norms[b] = norm;

        // Pass 1: the bucket's dither, one word per coordinate in
        // coordinate order (rng consumption is part of the golden).
        for (std::size_t j = 0; j < len; ++j)
            words[j] = static_cast<std::uint32_t>((*rng)() >> 32);
        // Pass 2: levels, sign bits (bit set = negative, NaN included,
        // as for Cs1) and residual in the substrate's kernel; then the
        // levels + 1 go out gamma-coded.
        lowp::qsgd_round(g + begin, len, norm, s, words, levels,
                         wire.payload.data() + begin / 8,
                         residual != nullptr ? residual + begin : nullptr);
        writer.put(levels, len, 1);
    }
    writer.finish();
    return wire;
}

std::vector<float>
decode_qsgd(const WireGradient& wire)
{
    const std::size_t n = wire.count;
    const std::size_t buckets = (n + kQsgdBucket - 1) / kQsgdBucket;
    if (wire.norms.size() != buckets)
        fatal("CsQ norm count does not match the coordinate count");
    const std::size_t sign_bytes = (n + 7) / 8;
    if (wire.payload.size() < sign_bytes)
        fatal("CsQ payload shorter than its sign bitmap");

    const std::uint32_t s = (1u << (wire.bits - 1)) - 1;
    GammaReader reader(wire.payload.data() + sign_bytes,
                       wire.payload.size() - sign_bytes);
    std::vector<float> g(n);
    std::uint8_t levels[kQsgdBucket];
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::size_t begin = b * kQsgdBucket;
        const std::size_t len = std::min(n, begin + kQsgdBucket) - begin;
        reader.get_levels(levels, len, s);
        lowp::qsgd_dequantize(levels, wire.payload.data() + begin / 8, len,
                              wire.norms[b], static_cast<int>(s),
                              g.data() + begin);
    }
    // The stream must end in the payload's last byte, as the sparse
    // index stream must: bytes past the bit padding are a wire-format
    // violation, not slack.
    if (sign_bytes + reader.bytes_read() != wire.payload.size())
        fatal("CsQ payload has trailing bytes");
    return g;
}

/// Decodes the packed value run of `wire` — `count` values, which is the
/// dimension for a dense gradient and the nnz for a sparse one. The
/// value codecs are identical either way; only index decoding differs.
std::vector<float>
decode_values(const WireGradient& wire)
{
    validate_codec({wire.kind, wire.bits});
    if (wire.kind == CodecKind::kQsgd) return decode_qsgd(wire);

    if (!wire.norms.empty())
        fatal("only CsQ wire gradients carry per-bucket norms");
    const std::size_t n = wire.count;
    if (wire.payload.size() != payload_bytes(n, wire.bits))
        fatal("wire gradient payload size does not match its count");
    std::vector<float> g(n);
    if (wire.bits >= 32) {
        if (n != 0) // empty sparse pushes have no payload to copy
            std::memcpy(g.data(), wire.payload.data(), n * sizeof(float));
    } else if (wire.bits == 8) {
        for (std::size_t k = 0; k < n; ++k)
            g[k] = static_cast<float>(
                       static_cast<std::int8_t>(wire.payload[k])) *
                   wire.scale;
    } else {
        for (std::size_t k = 0; k < n; ++k)
            g[k] = (wire.payload[k / 8] >> (k % 8)) & 1u ? -wire.scale
                                                         : wire.scale;
    }
    return g;
}

} // namespace

std::vector<float>
quantize_gradient(const std::vector<float>& g, int bits,
                  std::vector<float>* residual)
{
    validate_comm_bits(bits);
    std::vector<float> q(g.size());
    quantize_into(g.data(), g.size(), bits, q.data(),
                  residual != nullptr ? residual->data() : nullptr, nullptr);
    return q;
}

WireGradient
encode_gradient(const float* g, std::size_t n, const Codec& codec,
                float* residual, rng::Xorshift128Plus* rng)
{
    validate_codec(codec);
    if (codec.kind == CodecKind::kQsgd)
        return encode_qsgd(g, n, codec.bits, residual, rng);
    return encode_gradient(g, n, codec.bits, residual);
}

WireGradient
encode_gradient(const float* g, std::size_t n, int bits, float* residual)
{
    validate_comm_bits(bits);
    std::vector<float> q(n);
    WireGradient wire;
    wire.kind = Codec::from_bits(bits).kind;
    wire.bits = bits;
    wire.count = static_cast<std::uint32_t>(n);
    wire.payload.assign(payload_bytes(n, bits), 0);
    wire.scale = quantize_into(g, n, bits, q.data(), residual,
                               wire.payload.data());
    return wire;
}

std::vector<float>
decode_gradient(const WireGradient& wire)
{
    if (wire.sparse()) {
        const SparseGradient s = decode_sparse_gradient(wire);
        std::vector<float> g(s.dim, 0.0f);
        for (std::size_t j = 0; j < s.nnz(); ++j)
            g[s.index[j]] = s.value[j];
        return g;
    }
    return decode_values(wire);
}

WireGradient
encode_sparse_gradient(const GradientView& view, const Codec& codec,
                       float* residual, rng::Xorshift128Plus* rng)
{
    validate_codec(codec);
    if (view.dim == 0)
        fatal("sparse gradient dimension must be non-zero");
    if (view.count == 0) {
        // The empty push a sparse worker still sends per shard per round
        // (its SSP clock must advance): a zero-length value run and no
        // index stream. Built directly — an empty view's spans may be
        // null, and the value codecs assume valid pointers. The scale
        // matches what the codecs emit for a zero-length run.
        WireGradient wire;
        wire.kind = codec.kind;
        wire.bits = codec.bits;
        wire.count = 0;
        wire.dim = view.dim;
        if (codec.kind == CodecKind::kLinear) wire.scale = 1.0f;
        return wire;
    }
    if (!view.sparse())
        fatal("encode_sparse_gradient requires a sparse view");

    // Normalize the view's index rep/mode to absolute u32 coordinates —
    // the wire form is index-rep independent (always the gamma stream).
    std::vector<std::uint32_t> index(view.count);
    std::size_t j = 0;
    view.for_each([&](std::size_t k, float) {
        index[j++] = static_cast<std::uint32_t>(k);
    });
    for (std::size_t i = 1; i < index.size(); ++i)
        if (index[i] <= index[i - 1])
            fatal("sparse gradient indices must be strictly ascending");

    // Value run: the same codec machinery as a dense gradient of length
    // nnz — CsQ buckets norms over nnz runs, Cs8 scales over the nnz max.
    WireGradient wire = encode_gradient(view.values, view.count, codec,
                                        residual, rng);
    wire.dim = view.dim;
    // Gaps in place: index0 + 1, then each coordinate's distance from
    // its predecessor.
    for (std::size_t i = index.size() - 1; i > 0; --i)
        index[i] -= index[i - 1];
    index[0] += 1;
    GammaWriter writer(wire.index_payload);
    writer.put(index.data(), index.size(), 0);
    writer.finish();
    return wire;
}

SparseGradient
decode_sparse_gradient(const WireGradient& wire)
{
    if (!wire.sparse())
        fatal("decode_sparse_gradient requires a sparse wire gradient");
    SparseGradient s;
    s.dim = wire.dim;
    s.value = decode_values(wire);

    const std::size_t nnz = wire.count;
    s.index.resize(nnz);
    if (nnz == 0) {
        if (!wire.index_payload.empty())
            fatal("empty sparse gradient carries index bytes");
        return s;
    }
    GammaReader reader(wire.index_payload.data(), wire.index_payload.size());
    std::uint64_t cursor = 0;
    for (std::size_t i = 0; i < nnz; ++i) {
        const std::uint32_t gap = reader.get(); // >= 1 by gamma
        cursor = i == 0 ? static_cast<std::uint64_t>(gap) - 1
                        : cursor + gap;
        if (cursor >= s.dim)
            fatal("sparse gradient index exceeds its dimension");
        s.index[i] = static_cast<std::uint32_t>(cursor);
    }
    // The stream must fill the payload to its last byte — anything past
    // bit padding is a wire-format violation, same as a truncated run.
    if (reader.bytes_read() != wire.index_payload.size())
        fatal("sparse gradient index payload has trailing bytes");
    return s;
}

} // namespace buckwild::ps
