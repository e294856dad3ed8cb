#include "ncnas/obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <istream>
#include <iterator>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "ncnas/obs/json.hpp"

namespace ncnas::obs {

namespace detail {
std::atomic<Profiler*> g_profiler{nullptr};
}  // namespace detail

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::atomic<std::uint64_t> g_epoch_source{1};

}  // namespace

// One call tree per thread. Node 0 is a synthetic root: its children are the
// thread's top-level scopes, and work/allocs recorded outside any scope land
// on it (surfaced as "(unscoped)" in snapshots).
struct Profiler::ThreadTree {
  struct Node {
    std::string name;
    std::uint32_t parent = 0;
    std::vector<std::uint32_t> children;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    double flops = 0.0;
    double bytes = 0.0;
    std::uint64_t alloc_count = 0;
    std::uint64_t alloc_bytes = 0;
  };
  mutable std::mutex mu;
  std::vector<Node> nodes{1};
  std::uint32_t current = 0;

  // Caller holds mu.
  [[nodiscard]] ProfileNode to_profile_node(std::uint32_t idx) const {
    const Node& n = nodes[idx];
    ProfileNode out;
    out.name = n.name;
    out.calls = n.calls;
    out.total_ms = static_cast<double>(n.total_ns) * 1e-6;
    out.flops = n.flops;
    out.bytes_moved = n.bytes;
    out.alloc_count = n.alloc_count;
    out.alloc_bytes = n.alloc_bytes;
    out.children.reserve(n.children.size());
    for (std::uint32_t c : n.children) out.children.push_back(to_profile_node(c));
    return out;
  }
};

struct Profiler::Registry {
  mutable std::mutex mu;
  // Keyed by thread id so a pool thread re-entering the same profiler after
  // a cache miss (e.g. it visited another profiler in between) does not get
  // counted as a second thread.
  std::unordered_map<std::thread::id, std::unique_ptr<ThreadTree>> trees;
};

namespace {
struct TlsCache {
  std::uint64_t epoch = 0;
  void* tree = nullptr;  // Profiler::ThreadTree* (private type; opaque here)
};
thread_local TlsCache t_cache;
}  // namespace

Profiler::Profiler()
    : epoch_(g_epoch_source.fetch_add(1, std::memory_order_relaxed)),
      reg_(std::make_unique<Registry>()) {}

Profiler::~Profiler() = default;

Profiler::ThreadTree* Profiler::tree_for_current_thread() {
  if (t_cache.epoch == epoch_ && t_cache.tree != nullptr) {
    return static_cast<ThreadTree*>(t_cache.tree);
  }
  std::lock_guard<std::mutex> lock(reg_->mu);
  std::unique_ptr<ThreadTree>& slot = reg_->trees[std::this_thread::get_id()];
  if (!slot) slot = std::make_unique<ThreadTree>();
  t_cache = {epoch_, slot.get()};
  return slot.get();
}

Profiler::ThreadTree* Profiler::begin_scope(std::string_view name) {
  ThreadTree* tree = tree_for_current_thread();
  std::lock_guard<std::mutex> lock(tree->mu);
  const std::uint32_t parent = tree->current;
  std::uint32_t child = 0;
  for (std::uint32_t c : tree->nodes[parent].children) {
    if (tree->nodes[c].name == name) {
      child = c;
      break;
    }
  }
  if (child == 0) {
    child = static_cast<std::uint32_t>(tree->nodes.size());
    ThreadTree::Node node;
    node.name.assign(name);
    node.parent = parent;
    tree->nodes.push_back(std::move(node));
    tree->nodes[parent].children.push_back(child);
  }
  tree->current = child;
  return tree;
}

void Profiler::end_scope(ThreadTree* tree, std::uint64_t elapsed_ns, double flops, double bytes) {
  std::lock_guard<std::mutex> lock(tree->mu);
  ThreadTree::Node& node = tree->nodes[tree->current];
  node.calls += 1;
  node.total_ns += elapsed_ns;
  node.flops += flops;
  node.bytes += bytes;
  tree->current = node.parent;
}

void Profiler::add_work(ThreadTree* tree, double flops, double bytes) {
  std::lock_guard<std::mutex> lock(tree->mu);
  ThreadTree::Node& node = tree->nodes[tree->current];
  node.flops += flops;
  node.bytes += bytes;
}

void Profiler::add_alloc(ThreadTree* tree, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(tree->mu);
  ThreadTree::Node& node = tree->nodes[tree->current];
  node.alloc_count += 1;
  node.alloc_bytes += bytes;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(reg_->mu);
  // Trees stay allocated (TLS caches keep raw pointers into them); only the
  // recorded contents are dropped.
  for (auto& [tid, tree] : reg_->trees) {
    std::lock_guard<std::mutex> tree_lock(tree->mu);
    tree->nodes.assign(1, ThreadTree::Node{});
    tree->current = 0;
  }
}

namespace {

void merge_into(std::vector<ProfileNode>& dst, ProfileNode src) {
  for (ProfileNode& d : dst) {
    if (d.name == src.name) {
      d.calls += src.calls;
      d.total_ms += src.total_ms;
      d.flops += src.flops;
      d.bytes_moved += src.bytes_moved;
      d.alloc_count += src.alloc_count;
      d.alloc_bytes += src.alloc_bytes;
      for (ProfileNode& c : src.children) merge_into(d.children, std::move(c));
      return;
    }
  }
  dst.push_back(std::move(src));
}

void fill_self(ProfileNode& node) {
  double child_total = 0.0;
  for (ProfileNode& c : node.children) {
    fill_self(c);
    child_total += c.total_ms;
  }
  node.self_ms = std::max(0.0, node.total_ms - child_total);
}

void accumulate_flat(const ProfileNode& node, std::map<std::string, FlatProfileEntry>& by_name) {
  FlatProfileEntry& e = by_name[node.name];
  e.name = node.name;
  e.calls += node.calls;
  e.total_ms += node.total_ms;
  e.self_ms += node.self_ms;
  e.flops += node.flops;
  e.bytes_moved += node.bytes_moved;
  e.alloc_count += node.alloc_count;
  e.alloc_bytes += node.alloc_bytes;
  for (const ProfileNode& c : node.children) accumulate_flat(c, by_name);
}

}  // namespace

ProfileSnapshot Profiler::snapshot() const {
  ProfileSnapshot snap;
  std::lock_guard<std::mutex> lock(reg_->mu);
  snap.threads_merged = reg_->trees.size();
  for (const auto& [tid, tree] : reg_->trees) {
    std::lock_guard<std::mutex> tree_lock(tree->mu);
    const ThreadTree::Node& root = tree->nodes[0];
    for (std::uint32_t c : root.children) merge_into(snap.roots, tree->to_profile_node(c));
    if (root.flops > 0.0 || root.bytes > 0.0 || root.alloc_count > 0) {
      ProfileNode unscoped;
      unscoped.name = "(unscoped)";
      unscoped.flops = root.flops;
      unscoped.bytes_moved = root.bytes;
      unscoped.alloc_count = root.alloc_count;
      unscoped.alloc_bytes = root.alloc_bytes;
      merge_into(snap.roots, std::move(unscoped));
    }
  }
  for (ProfileNode& r : snap.roots) fill_self(r);
  return snap;
}

std::vector<FlatProfileEntry> ProfileSnapshot::flat() const {
  std::map<std::string, FlatProfileEntry> by_name;
  for (const ProfileNode& r : roots) accumulate_flat(r, by_name);
  std::vector<FlatProfileEntry> out;
  out.reserve(by_name.size());
  for (auto& [name, e] : by_name) out.push_back(std::move(e));
  std::sort(out.begin(), out.end(), [](const FlatProfileEntry& a, const FlatProfileEntry& b) {
    if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
    return a.name < b.name;
  });
  return out;
}

namespace {

void write_tree_text(std::ostream& os, const ProfileNode& node, int depth) {
  std::ostringstream label;
  for (int i = 0; i < depth; ++i) label << "  ";
  label << node.name;
  os << std::left << std::setw(40) << label.str() << std::right << std::fixed
     << std::setprecision(3) << std::setw(12) << node.total_ms << std::setw(12) << node.self_ms
     << std::setw(10) << node.calls << '\n';
  for (const ProfileNode& c : node.children) write_tree_text(os, c, depth + 1);
}

}  // namespace

void ProfileSnapshot::export_text(std::ostream& os) const {
  os << "profile: " << threads_merged << " thread(s) merged\n";
  if (roots.empty()) {
    os << "(no scopes recorded)\n";
    return;
  }
  os << "-- call tree --\n";
  os << std::left << std::setw(40) << "scope" << std::right << std::setw(12) << "total_ms"
     << std::setw(12) << "self_ms" << std::setw(10) << "calls" << '\n';
  for (const ProfileNode& r : roots) write_tree_text(os, r, 0);
  os << "-- flat (by self time) --\n";
  os << std::left << std::setw(28) << "name" << std::right << std::setw(10) << "calls"
     << std::setw(12) << "total_ms" << std::setw(12) << "self_ms" << std::setw(10) << "GFLOP/s"
     << std::setw(10) << "flop/B" << std::setw(10) << "allocs" << std::setw(12) << "alloc_KB"
     << '\n';
  for (const FlatProfileEntry& e : flat()) {
    os << std::left << std::setw(28) << e.name << std::right << std::fixed << std::setprecision(3)
       << std::setw(10) << e.calls << std::setw(12) << e.total_ms << std::setw(12) << e.self_ms
       << std::setw(10) << std::setprecision(2) << e.gflops() << std::setw(10)
       << e.arithmetic_intensity() << std::setw(10) << e.alloc_count << std::setw(12)
       << std::setprecision(1) << static_cast<double>(e.alloc_bytes) / 1024.0 << '\n';
  }
}

void ProfileSnapshot::export_json(std::ostream& os) const {
  os << "{\n\"schema_version\": " << kProfileSchemaVersion
     << ",\n\"threads_merged\": " << threads_merged << ",\n\"flat\": [";
  const std::vector<FlatProfileEntry> entries = flat();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const FlatProfileEntry& e = entries[i];
    if (i) os << ',';
    os << "\n{\"name\": ";
    write_json_string(os, e.name);
    os << ", \"calls\": " << e.calls << ", \"total_ms\": ";
    write_json_number(os, e.total_ms);
    os << ", \"self_ms\": ";
    write_json_number(os, e.self_ms);
    os << ", \"flops\": ";
    write_json_number(os, e.flops);
    os << ", \"bytes_moved\": ";
    write_json_number(os, e.bytes_moved);
    os << ", \"alloc_count\": " << e.alloc_count << ", \"alloc_bytes\": " << e.alloc_bytes << "}";
  }
  os << "\n]\n}\n";
}

ImportedProfile import_profile_json(std::istream& is) {
  const std::string text{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
  const JsonValue doc = parse_json(text, "import_profile_json");
  ImportedProfile out;
  if (!doc.get("schema_version", out.schema_version)) {
    throw std::runtime_error("import_profile_json: missing schema_version");
  }
  if (out.schema_version != kProfileSchemaVersion) {
    throw std::runtime_error("import_profile_json: unsupported schema_version " +
                             std::to_string(out.schema_version));
  }
  doc.get("threads_merged", out.threads_merged);
  if (const JsonValue* flat = doc.find("flat"); flat != nullptr) {
    for (const JsonValue& r : flat->array) {
      FlatProfileEntry& e = out.flat.emplace_back();
      if (!r.get("name", e.name)) {
        throw std::runtime_error("import_profile_json: record without name");
      }
      r.get("calls", e.calls);
      r.get("total_ms", e.total_ms);
      r.get("self_ms", e.self_ms);
      r.get("flops", e.flops);
      r.get("bytes_moved", e.bytes_moved);
      r.get("alloc_count", e.alloc_count);
      r.get("alloc_bytes", e.alloc_bytes);
    }
  }
  return out;
}

ProfileScope::ProfileScope(std::string_view name) noexcept {
  Profiler* p = current_profiler();
  if (p == nullptr || name.empty()) return;
  tree_ = p->begin_scope(name);
  // Timed from after the child lookup so bookkeeping is not billed to the
  // scope itself.
  start_ns_ = now_ns();
}

ProfileScope::~ProfileScope() {
  if (tree_ == nullptr) return;
  const std::uint64_t elapsed = now_ns() - start_ns_;
  Profiler::end_scope(static_cast<Profiler::ThreadTree*>(tree_), elapsed, flops_, bytes_);
}

void profile_work(double flops, double bytes) noexcept {
  Profiler* p = current_profiler();
  if (p == nullptr) return;
  Profiler::add_work(p->tree_for_current_thread(), flops, bytes);
}

void profile_alloc(std::uint64_t bytes) noexcept {
  Profiler* p = current_profiler();
  if (p == nullptr) return;
  Profiler::add_alloc(p->tree_for_current_thread(), bytes);
}

}  // namespace ncnas::obs
