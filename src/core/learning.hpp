// Dynamic learning (paper §4.2, Figs. 6–8).
//
// Static analysis yields signatures whose request templates contain holes —
// values only known at run time. The learning engine watches live
// transactions on the proxy and:
//
//   * predecessor case — when the observed transaction's response feeds other
//     signatures (outgoing dependency edges), it extracts the dependency
//     values from the response body and creates/updates *request instances*
//     of each successor, replicating one instance per element when a
//     dependency path traverses an array ([*], the "30 thumbnails from one
//     feed" case);
//
//   * successor case — when the observed transaction *is* a prefetchable
//     request, it learns the run-time values (host, Cookie, User-Agent,
//     version fields...) and the current branch condition (which optional
//     fields are present, Fig. 8), and adapts existing instances to the most
//     recent condition.
//
// An instance whose required holes are all bound is *ready*; the engine hands
// it to the proxy, which applies policy (probability, conditions, budget) and
// issues the prefetch.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/signature.hpp"
#include "json/json.hpp"
#include "util/byte_io.hpp"

namespace appx::core {

// A prefetch request under construction for one successor signature.
class RequestInstance {
 public:
  RequestInstance(const TransactionSignature* sig, Bindings dependency_bindings);

  const TransactionSignature& signature() const { return *sig_; }
  const Bindings& bindings() const { return bindings_; }
  const Bindings& dependency_bindings() const { return dependency_bindings_; }

  // Merge additional bindings (later wins — "adaptation to recent condition").
  void bind(const Bindings& more);

  // Record the instance class: optional fields currently believed absent.
  void set_absent_optional(const std::vector<std::string>& absent);
  const std::set<std::string>& absent_optional() const { return absent_optional_; }

  // Fingerprint of the *dependency* bindings; identifies the logical target
  // so re-learning the same feed does not duplicate instances.
  const std::string& fingerprint() const { return fingerprint_; }

  // True when every hole required by the present fields is bound.
  bool ready() const;

  // Holes still missing (for diagnostics / tests).
  std::vector<std::string> missing_holes() const;

  // Build the concrete HTTP request. Requires ready().
  http::Request materialize() const;

  // "Issued" here means "emitted to the proxy at least once"; it is used for
  // pool eviction, not for deduplication (the proxy dedups against its cache
  // and in-flight set so expired entries can be re-prefetched).
  bool issued() const { return issued_; }
  void mark_issued() { issued_ = true; }
  void reset_issued() { issued_ = false; }

 private:
  bool field_present(const RequestField& field) const;

  const TransactionSignature* sig_;
  Bindings bindings_;             // dependency + runtime bindings merged
  Bindings dependency_bindings_;  // the subset that identifies the target
  std::set<std::string> absent_optional_;
  std::string fingerprint_;
  bool issued_ = false;
};

// A ready-to-issue prefetch handed to the proxy.
struct ReadyPrefetch {
  const TransactionSignature* signature = nullptr;
  RequestInstance* instance = nullptr;  // owned by the engine
  http::Request request;
  // Body of the predecessor response that triggered this instance (an empty
  // object when triggered by a successor observation); used to evaluate
  // config FieldConditions. Shared by every instance one observation made
  // ready, never null.
  std::shared_ptr<const json::Value> predecessor_body = empty_predecessor_body();

  // The one empty object behind every successor-triggered instance.
  static const std::shared_ptr<const json::Value>& empty_predecessor_body();
};

// Counters exposed for evaluation and tests.
struct LearningStats {
  std::size_t transactions_observed = 0;
  std::size_t signature_matches = 0;
  std::size_t predecessor_events = 0;
  std::size_t successor_events = 0;
  std::size_t instances_created = 0;
  std::size_t instances_ready = 0;
};

// One engine per (app, user) context: run-time values such as cookies are
// user-specific, so learned state is never shared across users (paper §2).
class LearningEngine {
 public:
  // `host_apps` (optional, not owned) routes requests to one app's
  // signatures in multi-app deployments; see ProxyConfig::host_apps.
  explicit LearningEngine(const SignatureSet* signatures,
                          const std::map<std::string, std::string>* host_apps = nullptr);

  // Feed one observed transaction through the Fig. 6 flow. Returns the
  // instances that became ready (not yet issued) as a result.
  std::vector<ReadyPrefetch> observe(const http::Request& request,
                                     const http::Response& response);

  const LearningStats& stats() const { return stats_; }

  // Pending (created, not yet ready or not yet issued) instances of a
  // signature; exposed for tests and for the proxy's bookkeeping.
  std::vector<const RequestInstance*> instances_of(std::string_view sig_id) const;

  // --- Persistence (DESIGN.md §5k) -----------------------------------------
  //
  // Learned state splits into two independently versioned payloads: the
  // resolved wildcards (runtime bindings + instance class per signature) and
  // the dependency flows (live request instances). Both restore by MERGING
  // into the current state — restoring into a fresh engine reproduces the
  // saved one — and silently drop signatures the current signature set does
  // not know (cross-version app updates shrink, never crash).
  static constexpr std::uint32_t kWildcardsPersistVersion = 1;
  static constexpr std::uint32_t kFlowsPersistVersion = 1;
  void persist_wildcards(ByteWriter& out) const;
  void restore_wildcards(ByteReader& in, std::uint32_t version);
  void persist_flows(ByteWriter& out) const;
  void restore_flows(ByteReader& in, std::uint32_t version);

 private:
  struct SignatureState {
    // Most recent values of the signature's run-time holes.
    Bindings runtime_bindings;
    // Most recently observed instance class (absent optional field keys).
    std::vector<std::string> recent_absent;
    bool observed = false;
    // Live instances keyed by dependency fingerprint.
    std::map<std::string, std::unique_ptr<RequestInstance>> instances;
  };

  void learn_from_predecessor(const TransactionSignature& pred, const http::Response& response,
                              std::vector<ReadyPrefetch>& out);
  void learn_from_successor(const TransactionSignature& succ,
                            const TransactionSignature::MatchResult& match);
  void collect_ready(const TransactionSignature& sig,
                     const std::shared_ptr<const json::Value>& predecessor_body,
                     std::vector<ReadyPrefetch>& out);

  // Extract per-instance binding sets for `edges` from a predecessor
  // response body (handles [*] replication and grouped multi-value paths).
  static std::vector<Bindings> binding_sets_for(
      const std::vector<const DependencyEdge*>& edges, const json::Value& body);

  const SignatureSet* signatures_;
  const std::map<std::string, std::string>* host_apps_;
  std::map<std::string, SignatureState, std::less<>> states_;
  LearningStats stats_;
};

}  // namespace appx::core
