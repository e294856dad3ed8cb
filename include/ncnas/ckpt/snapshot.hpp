// Snapshot — the durable on-disk form of a running search.
//
// A snapshot is a single file: a fixed magic + schema version, a small
// header (config fingerprint, search-space name, virtual clock, cumulative
// journal watermark, ordinal), and an opaque payload of driver state. The
// header and payload are covered by one FNV-1a 64 hash, so truncation and
// bit corruption are detected before any state is trusted; the fingerprint
// lets the resume path refuse a snapshot taken under a different search
// configuration. Files are written atomically (temp file + rename), so a
// crash mid-write never leaves a half-snapshot under the real name.
//
// Encoding is explicit little-endian byte shifts — no memcpy of structs, no
// host-endianness in the format — so snapshots are portable and the byte
// stream is canonical: the same search state always serializes to the same
// bytes, which is what makes bit-identical resume testable.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ncnas::ckpt {

/// "NCKP" — refuses files that are not snapshots at all.
inline constexpr std::uint32_t kSnapshotMagic = 0x4E434B50u;
/// Bump when the header or payload layout changes incompatibly.
/// v2: EvalRecord/EvalResult carry a shared-cache-hit flag, SearchResult
/// carries shared_cache_hits, and agent-cache keys are context-prefixed.
/// v3: EvalRecord/EvalResult carry the fidelity rung and SearchResult
/// carries the four ladder counters.
/// v4: SearchResult's cache_hits, shared_cache_hits and timeouts are no
/// longer stored; they are counted over the records at the end of the run.
inline constexpr std::uint32_t kSnapshotVersion = 4;

/// Raised on any malformed, truncated, corrupted, or mismatched snapshot.
/// Never silently loads bad state — the error message says what failed.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only little-endian byte encoder for snapshot payloads.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void flag(bool v) { u8(v ? 1 : 0); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void floats(std::span<const float> v) {
    u64(v.size());
    for (float x : v) f32(x);
  }
  void doubles(std::span<const double> v) {
    u64(v.size());
    for (double x : v) f64(x);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Matching decoder. Every read checks bounds and throws SnapshotError on
/// overrun, so a truncated payload fails loudly instead of reading garbage.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] bool flag() { return u8() != 0; }
  [[nodiscard]] std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] float f32() { return std::bit_cast<float>(u32()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  [[nodiscard]] std::vector<float> floats() {
    const std::uint64_t n = u64();
    std::vector<float> v(n);
    for (auto& x : v) x = f32();
    return v;
  }
  [[nodiscard]] std::vector<double> doubles() {
    const std::uint64_t n = u64();
    std::vector<double> v(n);
    for (auto& x : v) x = f64();
    return v;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// Call after the last field: leftover bytes mean a layout mismatch.
  void require_done() const {
    if (pos_ != data_.size()) throw SnapshotError("snapshot: trailing bytes after payload");
  }

 private:
  void need(std::uint64_t n) const {
    if (pos_ + n > data_.size()) throw SnapshotError("snapshot: truncated payload");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Everything the resume path validates before touching the payload.
struct SnapshotHeader {
  std::string fingerprint;          ///< nas::config_fingerprint of the search
  std::string space_name;           ///< SearchSpace::name()
  double virtual_time = 0.0;        ///< simulated clock at the safe point
  std::uint64_t journal_events = 0; ///< cumulative valid journal events (watermark)
  std::uint64_t ordinal = 0;        ///< 1-based snapshot count of the run
};

struct Snapshot {
  SnapshotHeader header;
  std::vector<std::uint8_t> payload;
};

/// FNV-1a 64 over a byte range (the snapshot integrity hash).
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> data);

/// Writes `header` + `payload` to `path` atomically: the bytes land in
/// `path.tmp` first and are renamed over `path` only after a successful
/// close, so readers never observe a partial file.
void write_snapshot(const std::string& path, const SnapshotHeader& header,
                    const std::vector<std::uint8_t>& payload);

/// Reads and validates a snapshot: magic, schema version, integrity hash.
/// Throws SnapshotError on any mismatch. Fingerprint validation is the
/// caller's job (it owns the SearchConfig to fingerprint against).
[[nodiscard]] Snapshot read_snapshot(const std::string& path);

}  // namespace ncnas::ckpt
