// Experiment drivers for every table and figure in the paper's evaluation.
//
// Each function runs a complete scenario on the testbed and returns the raw
// numbers; the bench binaries format them into the paper's rows/series.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "apps/catalog.hpp"
#include "eval/testbed.hpp"
#include "fuzz/fuzzer.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace appx::eval {

// Analysis output for one app, computed once and shared by experiments.
struct AnalyzedApp {
  apps::AppSpec spec;
  analysis::AnalysisResult analysis;
};

AnalyzedApp analyze_app(apps::AppSpec spec);
std::vector<AnalyzedApp> analyze_all_apps();

// The deployed proxy configuration (paper §6 methodology): prefetching is
// enabled for the signatures behind the app's launch and main interaction
// (thumbnails, item detail, related items, photos, reviews) and disabled for
// everything else — "for each app, we select a representative user
// interaction ... as the prefetching target and configure the proxy as
// such". `probability` maps to Fig. 17's global prefetch-probability knob.
core::ProxyConfig deployment_config(const AnalyzedApp& app, double probability = 1.0);

// --- Fig. 13 / Fig. 14: microbenchmarks against origin servers ------------------

struct Breakdown {
  double total_ms = 0;
  double network_ms = 0;
  double processing_ms = 0;
  // Distribution of per-run total latency, from an obs::Histogram over the
  // measured runs (paper reports CDFs, not just means).
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;  // with few runs this degenerates to the max — report anyway
  std::size_t runs = 0;
  // Prefetch cost accounting over the whole run (warm-up included): issued
  // jobs, bytes fetched, and the share of those bytes never served to the
  // client — evicted/expired unused plus entries still sitting unused in the
  // cache at the end. All zero for the Orig baseline.
  std::size_t prefetches_issued = 0;
  Bytes prefetch_bytes = 0;
  Bytes wasted_bytes = 0;
  double waste_ratio = 0;  // wasted_bytes / prefetch_bytes, 0 when nothing fetched
  // Admission decisions of the cost-aware policy.
  std::size_t policy_admitted = 0;
  std::size_t policy_rejected_value = 0;
  std::size_t policy_rejected_budget = 0;
};

// User-perceived latency of the app's main interaction, averaged over `runs`
// distinct item selections after the proxy has learned the app (Fig. 13).
Breakdown measure_main_interaction(const AnalyzedApp& app, TestbedConfig config, int runs = 10);

// App-launch latency of a warm session (the proxy has seen one prior session
// of the same user), averaged over `runs` re-launches (Fig. 14).
Breakdown measure_launch(const AnalyzedApp& app, TestbedConfig config, int runs = 10);

// --- Fig. 15 / 16 / 17: user-study trace replay -----------------------------------

struct TraceExperimentResult {
  SampleSet main_latency_ms;   // user-perceived latency of the main interaction
  SampleSet all_latency_ms;    // every interaction
  Bytes origin_bytes = 0;      // proxy<->server down bytes (data usage)
  std::size_t interactions = 0;
  std::size_t skipped_events = 0;
  core::ProxyStats proxy_stats;
};

// Replay all user traces (sequential sessions) through one proxy instance.
TraceExperimentResult run_trace_experiment(const AnalyzedApp& app, TestbedConfig config,
                                           const std::vector<trace::UserTrace>& traces);

// --- multiplexing: concurrent sessions on one edge cell ---------------------------

// The paper's conclusion positions APPx for "lightly multiplexed
// environments, such as the mobile edge cloud". This experiment runs N user
// sessions CONCURRENTLY through one proxy sharing one access link, instead of
// sequentially, to expose the contention behaviour.
struct MultiplexResult {
  int users = 0;
  double orig_median_ms = 0;
  double appx_median_ms = 0;
  double orig_p90_ms = 0;
  double appx_p90_ms = 0;
};

std::vector<MultiplexResult> run_multiplex_experiment(const AnalyzedApp& app,
                                                      const std::vector<int>& user_counts,
                                                      const trace::TraceParams& trace_params);

// --- Table 3: coverage comparison -------------------------------------------------

struct CoverageMetrics {
  std::size_t total = 0;
  std::size_t prefetchable = 0;
  std::size_t dependencies = 0;
  std::size_t max_chain = 0;
};

struct CoverageRow {
  std::string app;
  CoverageMetrics appx;  // static analysis
  CoverageMetrics fuzz;  // 1 h Monkey @ 500 ms
  CoverageMetrics user;  // 30 x 3 min user traces
};

// Metrics over the subgraph induced by a set of observed signature ids.
CoverageMetrics induced_metrics(const core::SignatureSet& signatures,
                                const std::set<std::string>& observed_ids);

// Match a request log against the signature set -> observed signature ids.
std::set<std::string> observed_signatures(const core::SignatureSet& signatures,
                                          const std::vector<ObservedRequest>& log);

CoverageRow run_coverage_experiment(const AnalyzedApp& app, const fuzz::FuzzParams& fuzz_params,
                                    const trace::TraceParams& trace_params);

}  // namespace appx::eval
