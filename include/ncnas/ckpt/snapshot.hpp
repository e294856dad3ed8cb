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
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
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
/// v5: an agent's in-flight RL batch carries its PPO update's outcome, and
/// its controller is stored as that update left it.
inline constexpr std::uint32_t kSnapshotVersion = 5;

/// Raised on any malformed, truncated, corrupted, or mismatched snapshot.
/// Never silently loads bad state — the error message says what failed.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Field list of a class type, run by ByteWriter (over `const T`) and by
/// ByteReader (over `T`), so one statement names each field for both
/// directions and the writer and the reader cannot drift apart. Define it
/// inside namespace ncnas::ckpt with
///   NCNAS_SNAPSHOT_FIELDS(Point, p, p.x, p.y);
template <class T>
struct Fields;

#define NCNAS_SNAPSHOT_FIELDS(Type, var, ...) \
  template <>                                 \
  struct Fields<Type> {                       \
    template <class IO, class V>              \
    static void apply(IO& io, V& var) {       \
      io(__VA_ARGS__);                        \
    }                                         \
  }

template <class T>
concept Sequence = std::is_same_v<T, std::vector<typename T::value_type>> ||
                   std::is_same_v<T, std::deque<typename T::value_type>>;
template <class T>
concept Pair = std::is_same_v<T, std::pair<typename T::first_type, typename T::second_type>>;

// Integers travel at sizeof(T); the format stores counts and `long` as 8 bytes.
static_assert(sizeof(std::size_t) == 8 && sizeof(long) == 8,
              "the snapshot wire format needs 64-bit std::size_t and long");

/// Append-only little-endian byte encoder for snapshot payloads. The one
/// entry point encodes each argument by its C++ type: `bool` as one 0/1
/// byte, every other integer at its own width (`std::size_t` and `long` as
/// 8 bytes), `float`/`double` as their IEEE bits, `std::string` and
/// `std::vector`/`std::deque` as a u64 count followed by the elements, a
/// `std::pair` as its two members, and any other class through Fields<T>.
class ByteWriter {
 public:
  static constexpr bool kReads = false;

  template <class... Ts>
  void operator()(const Ts&... values) {
    (put(values), ...);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  void raw(std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      raw(v ? 1 : 0, 1);
    } else if constexpr (std::is_integral_v<T>) {
      raw(static_cast<std::uint64_t>(v), sizeof(T));
    } else if constexpr (std::is_same_v<T, float>) {
      raw(std::bit_cast<std::uint32_t>(v), 4);
    } else if constexpr (std::is_same_v<T, double>) {
      raw(std::bit_cast<std::uint64_t>(v), 8);
    } else if constexpr (std::is_same_v<T, std::string>) {
      raw(v.size(), 8);
      buf_.insert(buf_.end(), v.begin(), v.end());
    } else if constexpr (Sequence<T>) {
      raw(v.size(), 8);
      for (const auto& x : v) put(x);
    } else if constexpr (Pair<T>) {
      put(v.first);
      put(v.second);
    } else {
      Fields<T>::apply(*this, v);
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Matching decoder with the same one entry point, reading into its
/// arguments. Every read is bounds-checked, and every length prefix is
/// checked in one place before anything is sized: `n` elements must fit in
/// what is left of the payload at their minimum encoded size. Any violation
/// throws SnapshotError, so a truncated or forged payload fails loudly
/// instead of reading garbage or allocating without bound.
class ByteReader {
 public:
  static constexpr bool kReads = true;

  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <class... Ts>
  void operator()(Ts&... values) {
    (get(values), ...);
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// Call after the last field: leftover bytes mean a layout mismatch.
  void require_done() const {
    if (pos_ != data_.size()) throw SnapshotError("snapshot: trailing bytes after payload");
  }

 private:
  void need(std::uint64_t n) const {
    if (n > remaining()) throw SnapshotError("snapshot: truncated payload");
  }

  std::uint64_t raw(std::size_t width) {
    need(width);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return v;
  }

  /// Bytes a default-constructed T encodes to. Only container lengths make
  /// an encoding longer, and a default T holds empty ones, so this is the
  /// least any T can occupy on the wire.
  template <class T>
  static std::size_t min_encoded_size() {
    static const std::size_t n = [] {
      ByteWriter w;
      w(T{});
      return w.size();
    }();
    return n;
  }

  /// Reads a length prefix of elements that occupy at least `min_bytes` each.
  std::size_t count(std::size_t min_bytes) {
    const std::uint64_t n = raw(8);
    if (n > remaining() / min_bytes) {
      throw SnapshotError("snapshot: length prefix " + std::to_string(n) +
                          " overruns the payload (" + std::to_string(remaining()) +
                          " bytes left)");
    }
    return static_cast<std::size_t>(n);
  }

  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = raw(1) != 0;
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(raw(sizeof(T)));
    } else if constexpr (std::is_same_v<T, float>) {
      v = std::bit_cast<float>(static_cast<std::uint32_t>(raw(4)));
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(raw(8));
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::size_t n = count(1);
      v.assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
      pos_ += n;
    } else if constexpr (Sequence<T>) {
      v.assign(count(min_encoded_size<typename T::value_type>()), {});
      for (auto& x : v) get(x);
    } else if constexpr (Pair<T>) {
      get(v.first);
      get(v.second);
    } else {
      Fields<T>::apply(*this, v);
    }
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
