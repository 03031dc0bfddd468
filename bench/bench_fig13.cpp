// Figure 13: User-perceived latency of main interactions when communicating
// with origin servers — "Orig" (no prefetching) vs "APPx", split into network
// and processing delay. Average of 10 runs per app.
//
// --policy mode: APPx-vs-APPx comparison of the cost-aware policy engine
// (DESIGN.md §5j). Runs the main-interaction (Fig. 13) and launch (Fig. 14)
// scenarios with value-based admission off and on, and gates on the PR's
// acceptance criteria: policy-on must issue at most 60% of policy-off's
// prefetch bytes while keeping hit-path p99 within 5%.
#include <cstring>
#include <iostream>
#include <vector>

#include "eval/experiments.hpp"
#include "eval/report.hpp"

namespace {

int run_fig13() {
  using namespace appx;
  std::cout << "=== Figure 13: main-interaction latency, Orig vs APPx ===\n\n";

  eval::TablePrinter table({"App", "Setup", "Total (ms)", "Network (ms)", "Processing (ms)",
                            "p50 (ms)", "p95 (ms)", "p99 (ms)", "Reduction"});
  for (const eval::AnalyzedApp& app : eval::analyze_all_apps()) {
    eval::TestbedConfig orig;
    orig.prefetch_enabled = false;
    const auto base = eval::measure_main_interaction(app, orig, 10);

    eval::TestbedConfig accel;
    accel.prefetch_enabled = true;
    accel.proxy_config = eval::deployment_config(app);
    const auto fast = eval::measure_main_interaction(app, accel, 10);

    table.add_row({app.spec.name, "Orig", eval::TablePrinter::fmt(base.total_ms),
                   eval::TablePrinter::fmt(base.network_ms),
                   eval::TablePrinter::fmt(base.processing_ms),
                   eval::TablePrinter::fmt(base.p50_ms), eval::TablePrinter::fmt(base.p95_ms),
                   eval::TablePrinter::fmt(base.p99_ms), ""});
    table.add_row({"", "APPx", eval::TablePrinter::fmt(fast.total_ms),
                   eval::TablePrinter::fmt(fast.network_ms),
                   eval::TablePrinter::fmt(fast.processing_ms),
                   eval::TablePrinter::fmt(fast.p50_ms), eval::TablePrinter::fmt(fast.p95_ms),
                   eval::TablePrinter::fmt(fast.p99_ms),
                   eval::TablePrinter::pct(1.0 - fast.total_ms / base.total_ms)});
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n";
  table.print(std::cout);
  std::cout << "\n(paper Fig. 13: Wish 1.7->0.9 s (47%), Geek 2.4->1.1 (54%), DoorDash\n"
               " 2.1->0.9 (58%), Purple Ocean 2.5->0.9 (62%), Postmates 1.8->0.8 (53%);\n"
               " network-delay speedups of 2.5-8.7x; processing delay unchanged)\n";
  return 0;
}

int run_policy_comparison() {
  using namespace appx;
  std::cout << "=== Policy smoke: value-based admission off vs on ===\n\n";

  // More runs than the headline figure: per-signature hit probabilities only
  // separate once a signature has been prefetched (and not used) repeatedly.
  constexpr int kRuns = 30;

  eval::TablePrinter table({"App", "Scenario", "Setup", "p99 (ms)", "Prefetch (KB)",
                            "Wasted (KB)", "Waste", "Admit", "Rej-val", "Rej-bgt"});
  double bytes_off = 0;
  double bytes_on = 0;
  std::vector<double> p99_ratios;
  for (const eval::AnalyzedApp& app : eval::analyze_all_apps()) {
    // "policy-off" is the library default: the policy admits every
    // candidate, as the paper's proxy does.
    eval::TestbedConfig off;
    off.prefetch_enabled = true;
    off.proxy_config = eval::deployment_config(app);

    eval::TestbedConfig on = off;
    on.proxy_config.policy.learn_expiry = true;
    // Explicit bench tuning rather than the library default: the simulated
    // apps' fan-out signatures are worth ~p_use * saving/KB; this floor keeps
    // the sometimes-used ones while cutting the never-used tail.
    on.proxy_config.policy.min_value = 0.3;

    struct Scenario {
      const char* name;
      eval::Breakdown (*measure)(const eval::AnalyzedApp&, eval::TestbedConfig, int);
    };
    const Scenario scenarios[] = {{"main (Fig13)", eval::measure_main_interaction},
                                  {"launch (Fig14)", eval::measure_launch}};
    for (const Scenario& sc : scenarios) {
      const eval::Breakdown base = sc.measure(app, off, kRuns);
      const eval::Breakdown tuned = sc.measure(app, on, kRuns);
      bytes_off += static_cast<double>(base.prefetch_bytes);
      bytes_on += static_cast<double>(tuned.prefetch_bytes);
      if (base.p99_ms > 0) p99_ratios.push_back(tuned.p99_ms / base.p99_ms);

      const auto kb = [](Bytes b) { return eval::TablePrinter::fmt(b / 1024.0); };
      table.add_row({app.spec.name, sc.name, "policy-off", eval::TablePrinter::fmt(base.p99_ms),
                     kb(base.prefetch_bytes), kb(base.wasted_bytes),
                     eval::TablePrinter::pct(base.waste_ratio), "", "", ""});
      table.add_row({"", "", "policy-on", eval::TablePrinter::fmt(tuned.p99_ms),
                     kb(tuned.prefetch_bytes), kb(tuned.wasted_bytes),
                     eval::TablePrinter::pct(tuned.waste_ratio),
                     std::to_string(tuned.policy_admitted),
                     std::to_string(tuned.policy_rejected_value),
                     std::to_string(tuned.policy_rejected_budget)});
      std::cout << "." << std::flush;
    }
  }
  std::cout << "\n\n";
  table.print(std::cout);

  const double bytes_ratio = bytes_off > 0 ? bytes_on / bytes_off : 0.0;
  double p99_ratio = 0;
  for (const double r : p99_ratios) p99_ratio += r;
  if (!p99_ratios.empty()) p99_ratio /= static_cast<double>(p99_ratios.size());
  std::cout << "\npolicy-on / policy-off: prefetch bytes "
            << eval::TablePrinter::pct(bytes_ratio) << " (gate: <= 60%), mean p99 "
            << eval::TablePrinter::pct(p99_ratio) << " (gate: <= 105%)\n";

  bool ok = true;
  if (bytes_ratio > 0.60) {
    std::cout << "FAIL: policy admitted more than 60% of baseline prefetch bytes\n";
    ok = false;
  }
  if (p99_ratio > 1.05) {
    std::cout << "FAIL: policy-on p99 regressed more than 5% over policy-off\n";
    ok = false;
  }
  std::cout << (ok ? "POLICY SMOKE PASS\n" : "POLICY SMOKE FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--policy") == 0) return run_policy_comparison();
  }
  return run_fig13();
}
