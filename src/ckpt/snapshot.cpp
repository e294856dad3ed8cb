#include "ncnas/ckpt/snapshot.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace ncnas::ckpt {

NCNAS_SNAPSHOT_FIELDS(SnapshotHeader, h, h.fingerprint, h.space_name, h.virtual_time,
                      h.journal_events, h.ordinal);

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

void write_snapshot(const std::string& path, const SnapshotHeader& header,
                    const std::vector<std::uint8_t>& payload) {
  ByteWriter hw;
  hw(header);
  const std::vector<std::uint8_t>& hb = hw.bytes();

  // One hash over header + payload: a flipped bit anywhere is caught.
  std::vector<std::uint8_t> body;
  body.reserve(hb.size() + payload.size());
  body.insert(body.end(), hb.begin(), hb.end());
  body.insert(body.end(), payload.begin(), payload.end());

  ByteWriter pre;
  pre(kSnapshotMagic, kSnapshotVersion, hb.size(), payload.size(), fnv1a64(body));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError("snapshot: cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(pre.bytes().data()),
              static_cast<std::streamsize>(pre.size()));
    out.write(reinterpret_cast<const char*>(body.data()),
              static_cast<std::streamsize>(body.size()));
    if (!out) throw SnapshotError("snapshot: write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw SnapshotError("snapshot: cannot rename " + tmp + " to " + path + ": " + ec.message());
  }
}

Snapshot read_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotError("snapshot: cannot open " + path);
  std::vector<std::uint8_t> raw((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());

  ByteReader pre(raw);
  if (raw.size() < 4 + 4 + 8 + 8 + 8) throw SnapshotError("snapshot: " + path + " is truncated");
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  pre(magic, version);
  if (magic != kSnapshotMagic) {
    throw SnapshotError("snapshot: " + path + " is not a ncnas snapshot (bad magic)");
  }
  if (version != kSnapshotVersion) {
    throw SnapshotError("snapshot: " + path + " has schema version " + std::to_string(version) +
                        ", expected " + std::to_string(kSnapshotVersion));
  }
  std::uint64_t header_size = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t stored_hash = 0;
  pre(header_size, payload_size, stored_hash);
  if (header_size > pre.remaining() || payload_size != pre.remaining() - header_size) {
    throw SnapshotError("snapshot: " + path + " is truncated or padded (expected " +
                        std::to_string(header_size) + " + " + std::to_string(payload_size) +
                        " body bytes, have " + std::to_string(pre.remaining()) + ")");
  }
  const std::span<const std::uint8_t> body(raw.data() + (raw.size() - pre.remaining()),
                                           pre.remaining());
  if (fnv1a64(body) != stored_hash) {
    throw SnapshotError("snapshot: " + path + " failed its integrity check (corrupted)");
  }

  ByteReader hr(body.subspan(0, header_size));
  Snapshot snap;
  hr(snap.header);
  hr.require_done();
  snap.payload.assign(body.begin() + static_cast<std::ptrdiff_t>(header_size), body.end());
  return snap;
}

}  // namespace ncnas::ckpt
