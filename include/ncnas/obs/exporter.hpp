// Exporter — the live telemetry plane: turns the post-hoc Telemetry bundle
// (metrics / journal / watchdog / profiler) into a stream you can watch while
// the search runs, the in-process analogue of the paper's live Theta
// utilization monitoring (Figs. 5/6b/9).
//
// Two pieces, both strictly read-only over telemetry snapshots:
//
//   HttpExporter — a minimal embedded HTTP server (blocking sockets, no
//   third-party deps) serving the latest rendered payloads: `/metrics` in
//   OpenMetrics text format, `/healthz` fed by the watchdog, and `/progress`
//   as JSON. Requests never touch live telemetry — they read strings rendered
//   at publish time, and each connection's read is time-bounded, so a slow or
//   silent scraper can neither perturb the search nor hold up other scrapes.
//
//   Live JSONL journal sink — see Journal::open_live_export: stream-flushed
//   so `tail -f` mid-run never sees torn lines.
//
// The Exporter only renders: the caller that owns the clock decides when to
// publish (the driver on its virtual clock at the configured cadence, the
// SearchServer once per scheduling round). A publication snapshots the
// metrics, the watchdog and the profiler and renders the three payloads.
//
// Opt-in via Telemetry::enable_exporter(ExporterConfig): a Telemetry without
// an exporter is bit-identical to before, and enabling it must not perturb
// results either — it only reads snapshots
// (Exporter.OnOffLeavesResultsBitIdentical proves this for all 4 strategies).
// Every failure mode (bind in use, write error, dead or silent scraper)
// degrades gracefully into the `ncnas_exporter_errors_total` counter; the
// search never aborts because observation failed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/metrics.hpp"
#include "ncnas/obs/profiler.hpp"

namespace ncnas::obs {

class Telemetry;  // telemetry.hpp includes this header; break the cycle

struct ExporterConfig {
  /// Virtual seconds between the driver's publications; 0 publishes at every
  /// completion. Read by the driver, not the exporter.
  double cadence_seconds = 60.0;
  /// TCP port for the embedded HTTP server: -1 disables it, 0 binds an
  /// ephemeral port (read it back via Exporter::http_port()).
  int http_port = -1;
  std::string bind_address = "127.0.0.1";
  /// Non-empty: open this path (truncated) as a stream-flushed live JSONL
  /// journal sink (enables the journal). `tail -f` on it works mid-run.
  std::string live_journal_path;
};

/// Architectures the driver lists in /progress.
inline constexpr std::size_t kProgressTopK = 5;

/// One of the top-k architectures by estimated reward, as /progress lists it.
struct TopArchProgress {
  std::string arch;  ///< space::arch_key encoding
  float reward = 0.0f;
  std::size_t params = 0;
  std::uint32_t agent = 0;
};

/// Per-agent live status, as /progress lists it.
struct AgentProgress {
  std::uint32_t id = 0;
  std::string status;  ///< "running" | "stopped" | "converged" | "dead"
  std::size_t evals = 0;
  std::size_t cache_hits = 0;
  std::size_t timeouts = 0;
  std::size_t cached_streak = 0;
  float best_reward = 0.0f;
  bool has_best = false;  ///< false until the agent finished an evaluation
};

/// A profiler scope in the /progress hot-scope list (self-time ranked).
struct HotScopeProgress {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// The live run state served at /progress. The counts come from a run's
/// event fold (progress_from), so they apply the driver's deadline filter and
/// equal the ncnas_*_total counters and summarize_journal, live and replayed.
/// The driver adds what the fold cannot know when it publishes; the
/// exporter adds the watchdog verdict, profiler hot scopes, and its own
/// bookkeeping at publish time.
struct ProgressSnapshot {
  std::uint64_t seq = 0;        ///< publication ordinal (exporter-assigned)
  double virtual_time = 0.0;    ///< publication time, simulated seconds
  double wall_time_seconds = 0.0;
  std::string strategy;         ///< filled by the caller (obs does not know strategies)
  bool finished = false;        ///< run_finished has been folded
  bool converged = false;

  std::size_t evals_done = 0;   ///< finished + cached evals inside the deadline
  /// Evals that trained, inside the deadline (ncnas_real_evals_total) — not
  /// the budget meter, which also counts rung trainings and late attempts.
  std::size_t real_evals = 0;
  std::size_t cache_hits = 0;
  std::size_t timeouts = 0;
  std::size_t ppo_updates = 0;
  std::size_t batches_in_flight = 0;  ///< driver-filled: completions still queued
  float best_reward = 0.0f;
  bool has_best = false;
  std::vector<TopArchProgress> top;  ///< driver-filled from the records
  /// One row per agent the fold has seen; the driver lists every agent and
  /// fills in status and cached_streak.
  std::vector<AgentProgress> agents;

  // Fault and recovery accounting (all zero on a fault-free run).
  std::size_t retries = 0;
  std::size_t exhausted = 0;
  std::size_t lost_results = 0;
  std::size_t crashed_workers = 0;
  std::size_t dead_agents = 0;

  // Filled by the exporter at publish time (a journal replay reads the
  // verdict counts from its fold and sets journal_events itself).
  bool healthy = true;
  std::size_t stragglers = 0;
  std::size_t stalls = 0;
  std::vector<HotScopeProgress> hot_scopes;
  std::uint64_t journal_events = 0;
  std::uint64_t exporter_errors = 0;
};

/// The progress view of a run's event fold: every count, the best reward,
/// the fault totals, the watchdog verdict counts and one row per agent that
/// has emitted. The fold cannot know the strategy name, the batches in
/// flight, an agent's cached streak, the top-k or the journal length; the
/// caller fills those in (the driver live, nas_top from a journal replay).
[[nodiscard]] ProgressSnapshot progress_from(const RunSummary& sum);

/// status, content-type, body for a GET of `path`.
using HttpHandler = std::function<std::tuple<int, std::string, std::string>(const std::string&)>;

/// The whole response (status line, headers, body) to one raw request: a
/// `GET <path> ...` goes to `handler`; a GET without a path is 400, any
/// other non-empty request 405, and an empty one 400. The handler is called
/// for requests that start with "GET " only.
[[nodiscard]] std::string http_response(std::string_view request, const HttpHandler& handler);

/// Minimal embedded HTTP/1.1 server: blocking sockets, one short-lived
/// connection at a time, Connection: close. Reading a request is bounded by
/// a fixed deadline: a client that connects and stalls is dropped (and
/// counted as an error) instead of holding up other scrapes or stop(). A
/// bind failure does not throw — port() reports -1 and every failure
/// increments the error counter.
class HttpExporter {
 public:
  using Handler = HttpHandler;

  HttpExporter(const std::string& bind_address, int port, Handler handler,
               Counter* error_counter);
  ~HttpExporter();
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Actual bound port; -1 when the bind failed (the server is then inert).
  [[nodiscard]] int port() const noexcept { return port_; }
  void stop();

 private:
  void serve();

  Handler handler_;
  Counter* errors_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stop_{false};
  std::unique_ptr<std::thread> thread_;
};

/// Blocking HTTP GET against a local exporter (used by nas_top and tests).
/// Returns the body, or nullopt on connect/transport failure; `status_out`
/// (optional) receives the HTTP status code.
[[nodiscard]] std::optional<std::string> http_get(const std::string& host, int port,
                                                  const std::string& path,
                                                  int* status_out = nullptr);

// ---- OpenMetrics text format ------------------------------------------------

/// Renders a metrics snapshot in OpenMetrics text format (counter families
/// lose their `_total` suffix on the TYPE line, histogram buckets are
/// cumulative with a closing `+Inf`, the exposition ends with `# EOF`).
/// `info_labels` (optional) adds one `ncnas_exporter_info{...} 1` gauge with
/// properly escaped label values.
void render_openmetrics(const MetricsSnapshot& m, std::ostream& os,
                        const std::vector<std::pair<std::string, std::string>>& info_labels = {});
[[nodiscard]] std::string openmetrics_text(
    const MetricsSnapshot& m,
    const std::vector<std::pair<std::string, std::string>>& info_labels = {});

/// Textual OpenMetrics conformance check: structure, one trailing `# EOF`,
/// counter samples ending `_total`, cumulative non-decreasing histogram
/// buckets with ascending `le` edges closed by `+Inf`, `_count` equal to the
/// `+Inf` bucket, and label-value escaping. Returns true when the payload
/// conforms; otherwise `error` (optional) receives the first violation.
[[nodiscard]] bool validate_openmetrics(std::string_view text, std::string* error = nullptr);

// ---- /progress JSON ---------------------------------------------------------

[[nodiscard]] std::string progress_to_json(const ProgressSnapshot& p);
/// Parses progress_to_json output (nas_top's poll path). Throws
/// std::runtime_error on malformed input.
[[nodiscard]] ProgressSnapshot parse_progress_json(std::string_view json);

// ---- the exporter facade ----------------------------------------------------

class Exporter {
 public:
  /// Wires the optional HTTP server and the optional live journal
  /// sink against `telemetry` (must outlive the exporter). Registers
  /// `ncnas_exporter_errors_total` immediately so a clean run still exports
  /// the zero. Construction never throws on environmental failure (port in
  /// use, unwritable live path): the affected sink is disabled, the error
  /// counter incremented, and a one-line warning goes to stderr.
  Exporter(ExporterConfig cfg, Telemetry& telemetry);
  ~Exporter();
  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  [[nodiscard]] const ExporterConfig& config() const noexcept { return cfg_; }

  /// Renders /metrics, /progress and /healthz from the current telemetry,
  /// with `progress` completed by the exporter's own fields (seq, the
  /// watchdog verdict, hot scopes, journal length, error count). The
  /// caller owns the clock: the driver publishes at its cadence and once
  /// more at the end of the run, the SearchServer once per round. `vt` is
  /// clamped so publication times never rewind.
  void publish(double vt, ProgressSnapshot progress);

  [[nodiscard]] std::uint64_t publications() const noexcept { return seq_; }
  /// Actual HTTP port; -1 when disabled or the bind failed.
  [[nodiscard]] int http_port() const noexcept { return http_ ? http_->port() : -1; }
  [[nodiscard]] std::uint64_t errors() const noexcept { return errors_->value(); }

  // Latest rendered payloads — what the HTTP endpoints serve. Empty (and
  // healthz 200 "no publication yet") before the first publication.
  [[nodiscard]] std::string metrics_text() const;
  [[nodiscard]] std::string progress_json() const;
  [[nodiscard]] std::string healthz_body() const;
  [[nodiscard]] int healthz_status() const;

  /// Registers (or refreshes) a custom endpoint: a GET of `path` (e.g.
  /// "/tenants") returns 200 with `body` under `content_type`. Like the
  /// built-in payloads, the body is a pre-rendered string — requests never
  /// touch live state. The built-in paths (/metrics, /progress, /healthz)
  /// cannot be overridden. Thread-safe; the SearchServer refreshes its
  /// /tenants JSON through this every scheduling round.
  void set_payload(const std::string& path, std::string content_type, std::string body);
  /// The current body of a custom endpoint (empty when unset).
  [[nodiscard]] std::string payload(const std::string& path) const;

 private:
  ExporterConfig cfg_;
  Telemetry* telemetry_;
  Counter* errors_;
  std::uint64_t seq_ = 0;  // publications so far
  double last_vt_ = 0.0;   // publication clock floor (see publish())
  std::unique_ptr<HttpExporter> http_;

  mutable std::mutex payload_mu_;
  std::string metrics_text_;
  std::string progress_json_;
  std::string healthz_body_ = "ok: no publication yet\n";
  int healthz_status_ = 200;
  /// path -> (content type, body) for set_payload endpoints.
  std::map<std::string, std::pair<std::string, std::string>> custom_payloads_;
};

}  // namespace ncnas::obs
