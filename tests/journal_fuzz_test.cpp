// Seeded mutation fuzz harness for the JSON reader (obs/json.hpp), the one
// trust boundary every document the program reads back sits behind.
//
// Three corpora, one per reader: a real exported journal (an A2C search with
// a fault plan and a fidelity ladder, so every event type the driver emits
// appears in it), a /progress document, and a profile JSON document. Each
// iteration mutates one of them — bit flips, truncations, line splices, or
// huge/odd numbers — and requires:
//   - the reader (Journal::import_jsonl, parse_progress_json,
//     import_profile_json) either returns or throws std::runtime_error
//     (nothing else, no crash);
//   - what it returned renders to well-formed JSON (for the journal also
//     through summarize_journal, export_chrome_trace and
//     export_run_summary_json);
//   - what the writer emits for it reads back with no error.
// The same search's telemetry, rendered by openmetrics_text, is the corpus
// for validate_openmetrics: every unmutated body validates, and every
// mutated one returns true, or false with an error, and never throws.
// Raw HTTP requests are the corpus for http_response, the exporter's
// request-to-response step: every answer has a status line the server
// sends, a Content-Length equal to the body's size, and only a GET reaches
// the handler.
// Run under ASan+UBSan, "never crash" includes undefined behaviour.
//
// --seed=N / --runs=N / FAILING SEED replay as in fuzz_seed.hpp.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz_seed.hpp"
#include "json_check.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/exporter.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/rng.hpp"

namespace {

using namespace ncnas;

std::uint64_t g_seed = 0x10C0FFEEULL;
constexpr int kIters = 64;

/// What a small faulty ladder search leaves behind (built once): its
/// exported journal and its final telemetry snapshot.
struct SearchCorpus {
  std::string journal;
  obs::MetricsSnapshot metrics;
};

const SearchCorpus& search_corpus() {
  static const SearchCorpus corpus = [] {
    const space::SearchSpace s = space::nt3_small_space();
    const data::Dataset ds =
        data::make_nt3(5, {.train = 32, .valid = 16, .length = 64, .motif = 6});
    exec::FaultPlan plan;
    plan.seed = 3;
    plan.eval_failure_prob = 0.25;
    plan.lost_result_prob = 0.1;
    plan.slowdown_prob = 0.2;
    plan.slowdown_multiple = 4.0;
    plan.ps_drop_prob = 0.2;
    plan.ps_delay_prob = 0.2;
    plan.ps_delay_seconds = 15.0;
    plan.max_retries = 1;
    plan.barrier_timeout_seconds = 60.0;
    plan.worker_crashes.push_back({.agent = 1, .worker = 0, .time = 120.0});
    const exec::FaultInjector faults(plan);
    nas::SearchConfig cfg;
    cfg.strategy = nas::SearchStrategy::kA2C;
    cfg.cluster = {.num_agents = 2, .workers_per_agent = 2};
    cfg.wall_time_seconds = 300.0;
    cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
    cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 60.0};
    cfg.seed = 5;
    cfg.faults = &faults;
    cfg.ladder.eta = 2;
    cfg.ladder.rungs = {{.epochs = 1, .subset_fraction = 1.0},
                        {.epochs = 2, .subset_fraction = 1.0}};
    obs::Telemetry tel;
    tel.enable_watchdog({.expected_seconds = 20.0});
    cfg.telemetry = &tel;
    (void)nas::SearchDriver(s, ds, cfg).run();
    // train_wall_ms is host wall time; pin it so a seed replays the exact
    // same mutated documents on any machine.
    std::vector<obs::JournalEvent> events = tel.journal()->snapshot();
    for (obs::JournalEvent& e : events) {
      for (obs::JournalField& f : e.payload) {
        if (f.key == "train_wall_ms") f.value = 1.5;
      }
    }
    std::ostringstream os;
    obs::Journal::export_jsonl(events, os);
    // The same pin for the host wall-time histograms: every sample in the
    // first bucket, at 1.5 ms each.
    obs::MetricsSnapshot metrics = tel.metrics_snapshot();
    for (obs::HistogramSample& h : metrics.histograms) {
      if (h.name.find("_wall_") == std::string::npos) continue;
      std::ranges::fill(h.buckets, 0);
      if (!h.buckets.empty()) h.buckets.front() = h.count;
      h.sum = 1.5 * static_cast<double>(h.count);
    }
    return SearchCorpus{os.str(), std::move(metrics)};
  }();
  return corpus;
}

/// The exported journal of the corpus search.
const std::string& corpus() { return search_corpus().journal; }

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

std::string flip_bits(std::string text, tensor::Rng& rng) {
  const std::size_t flips = 1 + rng.uniform_int(8);
  for (std::size_t i = 0; i < flips && !text.empty(); ++i) {
    text[rng.uniform_int(text.size())] ^= static_cast<char>(1u << rng.uniform_int(8));
  }
  return text;
}

std::string truncate(const std::string& text, tensor::Rng& rng) {
  return text.substr(0, rng.uniform_int(text.size() + 1));
}

/// Duplicates, drops, swaps, or cross-splices lines (the tail of one line
/// glued onto the head of another).
std::string splice_lines(const std::string& text, tensor::Rng& rng) {
  std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) return text;
  const std::size_t a = rng.uniform_int(lines.size());
  const std::size_t b = rng.uniform_int(lines.size());
  switch (rng.uniform_int(4)) {
    case 0: lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(a), lines[b]); break;
    case 1: lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(a)); break;
    case 2: std::swap(lines[a], lines[b]); break;
    default: {
      const std::string head = lines[a].substr(0, rng.uniform_int(lines[a].size() + 1));
      const std::string tail = lines[b].substr(rng.uniform_int(lines[b].size() + 1));
      lines[a] = head + tail;
    }
  }
  return join_lines(lines);
}

/// Replaces numeric literals with values at or past the edges of double and
/// integer range.
std::string huge_numbers(const std::string& text, tensor::Rng& rng) {
  static const char* const kValues[] = {
      "1e308",  "-1e308", "1e999",     "-1e999", "1e-400", "-0", "4294967296", "-4294967297",
      "18446744073709551616", "9007199254740993", "123456789012345678901234567890", "2",
      "-1",     "0.5"};
  std::string out = text;
  const std::size_t edits = 1 + rng.uniform_int(6);
  for (std::size_t n = 0; n < edits; ++n) {
    // Find a numeric token starting at a random position.
    std::size_t i = out.find_first_of("-0123456789", rng.uniform_int(out.size() + 1));
    if (i == std::string::npos) break;
    std::size_t j = i + 1;
    while (j < out.size() && std::string_view("0123456789.eE+-").find(out[j]) !=
                                 std::string_view::npos) {
      ++j;
    }
    out.replace(i, j - i, kValues[rng.uniform_int(std::size(kValues))]);
  }
  return out;
}

/// The invariant, checked on one mutated document.
void check_document(const std::string& text, const char* mutation, int iter) {
  SCOPED_TRACE(std::string(mutation) + " iteration " + std::to_string(iter) +
               " (replay with --seed=" + std::to_string(g_seed) + ")");
  std::vector<obs::JournalEvent> events;
  try {
    std::istringstream is(text);
    events = obs::Journal::import_jsonl(is);
  } catch (const std::runtime_error&) {
    return;  // a clean rejection is a valid outcome
  } catch (const std::exception& e) {
    ADD_FAILURE() << "import threw a non-runtime_error: " << e.what();
    return;
  }

  const obs::RunSummary sum = obs::summarize_journal(events);
  std::ostringstream summary;
  obs::export_run_summary_json(sum, summary);
  EXPECT_TRUE(ncnas::testing::is_valid_json(summary.str())) << summary.str();

  std::ostringstream trace;
  obs::export_chrome_trace(events, trace);
  EXPECT_TRUE(ncnas::testing::is_valid_json(trace.str())) << trace.str();

  // Whatever survived import is re-exportable and reads back in full.
  std::stringstream round_trip;
  obs::Journal::export_jsonl(events, round_trip);
  try {
    EXPECT_EQ(obs::Journal::import_jsonl(round_trip).size(), events.size());
  } catch (const std::exception& e) {
    ADD_FAILURE() << "re-import of the writer's own output failed: " << e.what();
  }
}

template <typename Mutate, typename Check = decltype(&check_document)>
void fuzz(std::uint64_t salt, const char* mutation, Mutate mutate,
          const std::string& base = corpus(), Check check = check_document) {
  tensor::Rng rng(g_seed ^ salt);
  for (int i = 0; i < kIters; ++i) check(mutate(base, rng), mutation, i);
}

std::string composed(const std::string& text, tensor::Rng& rng) {
  return flip_bits(huge_numbers(splice_lines(text, rng), rng), rng);
}

TEST(JournalFuzz, CorpusCoversTheDriversEventTypes) {
  std::istringstream is(corpus());
  const std::vector<obs::JournalEvent> events = obs::Journal::import_jsonl(is);
  const obs::RunSummary sum = obs::summarize_journal(events);
  EXPECT_TRUE(sum.has_run_finished);
  EXPECT_GT(sum.evals, 0u);
  EXPECT_GT(sum.ladder_rung_events, 0u);
  EXPECT_TRUE(sum.faulty());
  EXPECT_GT(sum.ps_exchanges, 0u);
}

TEST(JournalFuzz, BitFlips) { fuzz(0xB17F, "bit flip", flip_bits); }

TEST(JournalFuzz, Truncations) { fuzz(0x7256, "truncation", truncate); }

TEST(JournalFuzz, LineSplices) { fuzz(0x5911CE, "line splice", splice_lines); }

TEST(JournalFuzz, HugeNumbers) { fuzz(0x4A6E, "huge number", huge_numbers); }

TEST(JournalFuzz, MutationsCompose) { fuzz(0xC0A1, "composed", composed); }

// ---- /progress and profile JSON ---------------------------------------------

/// A /progress document with every list populated and escapes in its strings.
const std::string& progress_corpus() {
  static const std::string text = [] {
    obs::ProgressSnapshot p;
    p.seq = 17;
    p.virtual_time = 912.25;
    p.wall_time_seconds = 1800.0;
    p.strategy = "A3C";
    p.evals_done = 140;
    p.real_evals = 120;
    p.cache_hits = 20;
    p.timeouts = 2;
    p.ppo_updates = 9;
    p.batches_in_flight = 3;
    p.best_reward = 0.8125f;
    p.has_best = true;
    p.top = {{"1,2,3,", 0.8125f, 4096, 1}, {"0,4,\"q\"\t", -0.25f, 128, 0}};
    p.agents = {{0, "running", 70, 10, 1, 2, 0.75f, true}, {1, "dead", 0, 0, 0, 0, 0.0f, false}};
    p.retries = 4;
    p.crashed_workers = 1;
    p.dead_agents = 1;
    p.healthy = false;
    p.stragglers = 2;
    p.hot_scopes = {{"eval/train", 120, 3050.5, 2800.125}, {"gemm", 90000, 1200.0, 1200.0}};
    p.journal_events = 512;
    return obs::progress_to_json(p);
  }();
  return text;
}

/// A profile JSON document (fixed numbers, so a seed replays anywhere).
const std::string& profile_corpus() {
  static const std::string text = [] {
    obs::ProfileSnapshot snap;
    snap.threads_merged = 3;
    const char* const names[] = {"eval/train", "gemm", "phase \"quoted\"", "(unscoped)"};
    for (int i = 0; i < 4; ++i) {
      obs::ProfileNode& n = snap.roots.emplace_back();
      n.name = names[i];
      n.calls = 10u * static_cast<unsigned>(i) + 1u;
      n.total_ms = 100.5 / (i + 1);
      n.self_ms = n.total_ms / 2.0;
      n.flops = 1e9 * i;
      n.bytes_moved = 3e7 * i;
      n.alloc_count = 7u * static_cast<unsigned>(i);
      n.alloc_bytes = 4096u * static_cast<unsigned>(i);
    }
    std::ostringstream os;
    snap.export_json(os);
    return os.str();
  }();
  return text;
}

/// The reader contract on one mutated document: `read` returns or throws
/// std::runtime_error, and whatever it returned renders to valid JSON that
/// `read` accepts again.
template <typename Read, typename Render>
void check_reader(const std::string& text, const char* mutation, int iter, Read read,
                  Render render) {
  SCOPED_TRACE(std::string(mutation) + " iteration " + std::to_string(iter) +
               " (replay with --seed=" + std::to_string(g_seed) + ")");
  decltype(read(text)) value;
  try {
    value = read(text);
  } catch (const std::runtime_error&) {
    return;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "reader threw a non-runtime_error: " << e.what();
    return;
  }
  const std::string again = render(value);
  EXPECT_TRUE(ncnas::testing::is_valid_json(again)) << again;
  try {
    (void)read(again);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "re-read of the writer's own output failed: " << e.what();
  }
}

void check_progress(const std::string& text, const char* mutation, int iter) {
  check_reader(
      text, mutation, iter, [](const std::string& t) { return obs::parse_progress_json(t); },
      [](const obs::ProgressSnapshot& p) { return obs::progress_to_json(p); });
}

obs::ImportedProfile read_profile(const std::string& text) {
  std::istringstream is(text);
  return obs::import_profile_json(is);
}

/// export_json of a snapshot whose roots are the imported flat records.
std::string render_profile(const obs::ImportedProfile& prof) {
  obs::ProfileSnapshot snap;
  snap.threads_merged = prof.threads_merged;
  for (const obs::FlatProfileEntry& e : prof.flat) {
    obs::ProfileNode& n = snap.roots.emplace_back();
    n.name = e.name;
    n.calls = e.calls;
    n.total_ms = e.total_ms;
    n.self_ms = e.self_ms;
    n.flops = e.flops;
    n.bytes_moved = e.bytes_moved;
    n.alloc_count = e.alloc_count;
    n.alloc_bytes = e.alloc_bytes;
  }
  std::ostringstream os;
  snap.export_json(os);
  return os.str();
}

void check_profile(const std::string& text, const char* mutation, int iter) {
  check_reader(text, mutation, iter, read_profile, render_profile);
}

TEST(ProgressJsonFuzz, CorpusReadsBack) {
  const obs::ProgressSnapshot p = obs::parse_progress_json(progress_corpus());
  EXPECT_EQ(obs::progress_to_json(p), progress_corpus());
}

TEST(ProgressJsonFuzz, BitFlips) {
  fuzz(0x9B17, "bit flip", flip_bits, progress_corpus(), check_progress);
}

TEST(ProgressJsonFuzz, Truncations) {
  fuzz(0x9256, "truncation", truncate, progress_corpus(), check_progress);
}

TEST(ProgressJsonFuzz, HugeNumbers) {
  fuzz(0x9A6E, "huge number", huge_numbers, progress_corpus(), check_progress);
}

TEST(ProgressJsonFuzz, MutationsCompose) {
  fuzz(0x9CA1, "composed", composed, progress_corpus(), check_progress);
}

TEST(ProfileJsonFuzz, CorpusReadsBack) {
  EXPECT_EQ(render_profile(read_profile(profile_corpus())), profile_corpus());
}

TEST(ProfileJsonFuzz, BitFlips) {
  fuzz(0xFB17, "bit flip", flip_bits, profile_corpus(), check_profile);
}

TEST(ProfileJsonFuzz, Truncations) {
  fuzz(0xF256, "truncation", truncate, profile_corpus(), check_profile);
}

TEST(ProfileJsonFuzz, LineSplices) {
  fuzz(0xF911CE, "line splice", splice_lines, profile_corpus(), check_profile);
}

TEST(ProfileJsonFuzz, HugeNumbers) {
  fuzz(0xFA6E, "huge number", huge_numbers, profile_corpus(), check_profile);
}

TEST(ProfileJsonFuzz, MutationsCompose) {
  fuzz(0xFCA1, "composed", composed, profile_corpus(), check_profile);
}

// ---- OpenMetrics validator ---------------------------------------------------

/// Two expositions of the corpus search's telemetry: with an info gauge
/// whose label values need escaping, and without.
const std::vector<std::string>& metrics_corpora() {
  static const std::vector<std::string> bodies = {
      obs::openmetrics_text(search_corpus().metrics,
                            {{"strategy", "A2C"}, {"note", "say \"hi\"\\n\n"}}),
      obs::openmetrics_text(search_corpus().metrics)};
  return bodies;
}

/// The validator's contract on one mutated body: true, or false with an
/// error, and never an exception.
void check_openmetrics(const std::string& text, const char* mutation, int iter) {
  SCOPED_TRACE(std::string(mutation) + " iteration " + std::to_string(iter) +
               " (replay with --seed=" + std::to_string(g_seed) + ")");
  std::string error;
  try {
    if (!obs::validate_openmetrics(text, &error)) {
      EXPECT_FALSE(error.empty()) << text;
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << "validate_openmetrics threw: " << e.what();
  }
}

template <typename Mutate>
void fuzz_openmetrics(std::uint64_t salt, const char* mutation, Mutate mutate) {
  for (std::size_t i = 0; i < metrics_corpora().size(); ++i) {
    fuzz(salt + i, mutation, mutate, metrics_corpora()[i], check_openmetrics);
  }
}

TEST(OpenMetricsFuzz, CorpusValidates) {
  for (const std::string& body : metrics_corpora()) {
    std::string error;
    EXPECT_TRUE(obs::validate_openmetrics(body, &error)) << error << '\n' << body;
    EXPECT_NE(body.find("_bucket{le="), std::string::npos);  // histograms made it in
  }
}

TEST(OpenMetricsFuzz, BitFlips) { fuzz_openmetrics(0x0B17, "bit flip", flip_bits); }

TEST(OpenMetricsFuzz, Truncations) { fuzz_openmetrics(0x0256, "truncation", truncate); }

TEST(OpenMetricsFuzz, LineSplices) { fuzz_openmetrics(0x0911CE, "line splice", splice_lines); }

TEST(OpenMetricsFuzz, MutationsCompose) { fuzz_openmetrics(0x0CA1, "composed", composed); }

// ---- HTTP request path ---------------------------------------------------------

/// Raw requests as scrapers (and strangers) send them: a GET for each
/// exporter endpoint and an unknown path, a POST, an empty request, a 16 KiB
/// request head, and the opening bytes of a TLS handshake.
const std::vector<std::string>& request_corpora() {
  static const std::vector<std::string> requests = [] {
    const auto get = [](const std::string& path) {
      return "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    };
    return std::vector<std::string>{
        get("/metrics"),
        get("/progress"),
        get("/healthz"),
        get("/tenants"),
        get("/no/such/path"),
        "POST /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 4\r\n\r\nbody",
        "",
        "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(16384, 'x') + "\r\n\r\n",
        std::string("\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03\r\n", 13)};
  }();
  return requests;
}

/// The exporter's route table in miniature: /healthz answers 503 so every
/// status the server can send appears, and a 404 echoes the path so the
/// body holds whatever bytes the request carried.
std::tuple<int, std::string, std::string> route(const std::string& path, int& calls) {
  ++calls;
  if (path == "/metrics") return {200, "application/openmetrics-text", "# EOF\n"};
  if (path == "/progress" || path == "/tenants") return {200, "application/json", "{}\n"};
  if (path == "/healthz") return {503, "text/plain", "unhealthy\n"};
  return {404, "text/plain", "not found: " + path + "\n"};
}

/// The server's contract on one request: a well-formed status line with a
/// status the server sends, a Content-Length equal to the body's byte
/// count, and the handler reached by GETs only.
void check_http(const std::string& request, const char* mutation, int iter) {
  SCOPED_TRACE(std::string(mutation) + " iteration " + std::to_string(iter) +
               " (replay with --seed=" + std::to_string(g_seed) + ")");
  int calls = 0;
  const std::string response =
      obs::http_response(request, [&calls](const std::string& path) { return route(path, calls); });

  EXPECT_LE(calls, 1);
  if (!request.starts_with("GET ")) {
    EXPECT_EQ(calls, 0) << "handler reached by a non-GET request";
  } else if (request.find(' ', 4) != std::string::npos) {
    EXPECT_EQ(calls, 1) << "a GET with a path never reached the handler";
  }

  const std::size_t line_end = response.find("\r\n");
  ASSERT_NE(line_end, std::string::npos) << response;
  const std::string status_line = response.substr(0, line_end);
  static const std::vector<std::string> kStatusLines = {
      "HTTP/1.1 200 OK", "HTTP/1.1 400 Bad Request", "HTTP/1.1 404 Not Found",
      "HTTP/1.1 405 Method Not Allowed", "HTTP/1.1 503 Service Unavailable"};
  EXPECT_NE(std::find(kStatusLines.begin(), kStatusLines.end(), status_line), kStatusLines.end())
      << status_line;

  const std::size_t head_end = response.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos) << response;
  const std::string head = response.substr(0, head_end + 2);
  const std::string kLength = "\r\nContent-Length: ";
  const std::size_t at = head.find(kLength);
  ASSERT_NE(at, std::string::npos) << head;
  ASSERT_EQ(head.find(kLength, at + 1), std::string::npos) << "two Content-Length headers";
  const std::size_t digits = at + kLength.size();
  const std::size_t digits_end = head.find("\r\n", digits);
  const std::string length = head.substr(digits, digits_end - digits);
  ASSERT_FALSE(length.empty());
  ASSERT_EQ(length.find_first_not_of("0123456789"), std::string::npos) << length;
  EXPECT_EQ(std::stoull(length), response.size() - (head_end + 4));
}

template <typename Mutate>
void fuzz_http(std::uint64_t salt, const char* mutation, Mutate mutate) {
  for (std::size_t i = 0; i < request_corpora().size(); ++i) {
    fuzz(salt + i, mutation, mutate, request_corpora()[i], check_http);
  }
}

TEST(HttpRequestFuzz, CorpusAnswers) {
  const std::vector<int> want = {200, 200, 503, 200, 404, 405, 400, 200, 405};
  ASSERT_EQ(request_corpora().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    check_http(request_corpora()[i], "corpus", static_cast<int>(i));
    int calls = 0;
    const std::string response = obs::http_response(
        request_corpora()[i], [&calls](const std::string& path) { return route(path, calls); });
    EXPECT_TRUE(response.starts_with("HTTP/1.1 " + std::to_string(want[i]) + ' '))
        << "request " << i << ": " << response.substr(0, 40);
  }
}

TEST(HttpRequestFuzz, BitFlips) { fuzz_http(0x4B17, "bit flip", flip_bits); }

TEST(HttpRequestFuzz, Truncations) { fuzz_http(0x4256, "truncation", truncate); }

TEST(HttpRequestFuzz, LineSplices) { fuzz_http(0x4911CE, "line splice", splice_lines); }

TEST(HttpRequestFuzz, MutationsCompose) { fuzz_http(0x4CA1, "composed", composed); }

}  // namespace

int main(int argc, char** argv) {
  return ncnas::testing::fuzz_main(argc, argv, "journal_fuzz_test", &g_seed);
}
