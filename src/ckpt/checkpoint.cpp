#include "ncnas/ckpt/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

namespace ncnas::ckpt {

namespace {

constexpr const char* kPrefix = "snap-";
constexpr const char* kSuffix = ".ckpt";

/// Parses "snap-<digits>.ckpt"; nullopt for anything else.
std::optional<std::uint64_t> parse_ordinal(const std::string& filename) {
  const std::size_t plen = std::string(kPrefix).size();
  const std::size_t slen = std::string(kSuffix).size();
  if (filename.size() <= plen + slen) return std::nullopt;
  if (filename.compare(0, plen, kPrefix) != 0) return std::nullopt;
  if (filename.compare(filename.size() - slen, slen, kSuffix) != 0) return std::nullopt;
  const std::string digits = filename.substr(plen, filename.size() - plen - slen);
  std::uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

std::string snapshot_name(std::uint64_t ordinal) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06llu%s", kPrefix,
                static_cast<unsigned long long>(ordinal), kSuffix);
  return buf;
}

std::vector<std::pair<std::uint64_t, std::string>> scan(const std::string& directory) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (const auto ord = parse_ordinal(name)) found.emplace_back(*ord, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

double next_checkpoint_time(double t, double interval) {
  return (std::floor(t / interval) + 1.0) * interval;
}

CheckpointWriter::CheckpointWriter(CheckpointConfig config) : config_(std::move(config)) {
  if (config_.interval_seconds <= 0.0) {
    throw SnapshotError("checkpoint: interval_seconds must be positive");
  }
  if (config_.directory.empty()) {
    throw SnapshotError("checkpoint: directory must be set");
  }
  std::error_code ec;
  std::filesystem::create_directories(config_.directory, ec);
  if (ec) {
    throw SnapshotError("checkpoint: cannot create directory " + config_.directory + ": " +
                        ec.message());
  }
}

void CheckpointWriter::write(const SnapshotHeader& header,
                             const std::vector<std::uint8_t>& payload) {
  const std::string path =
      (std::filesystem::path(config_.directory) / snapshot_name(header.ordinal)).string();
  write_snapshot(path, header, payload);

  if (config_.keep_last > 0) {
    auto found = scan(config_.directory);
    if (found.size() > config_.keep_last) {
      for (std::size_t i = 0; i + config_.keep_last < found.size(); ++i) {
        std::error_code ec;
        std::filesystem::remove(found[i].second, ec);  // best-effort rotation
      }
    }
  }
}

std::vector<std::string> list_checkpoints(const std::string& directory) {
  std::vector<std::string> out;
  for (auto& [ord, path] : scan(directory)) out.push_back(std::move(path));
  return out;
}

std::optional<std::string> latest_checkpoint(const std::string& directory) {
  auto found = scan(directory);
  if (found.empty()) return std::nullopt;
  return found.back().second;
}

}  // namespace ncnas::ckpt
