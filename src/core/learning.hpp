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
#include <string>
#include <string_view>
#include <vector>

#include "core/signature.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "util/byte_io.hpp"

namespace appx::core {

struct SignatureState;

// A prefetch request under construction for one successor signature. It owns
// only its dependency values, as its key in the signature's instance map; the
// run-time values and instance class are the signature's, so every instance
// follows the most recent observation (Fig. 7 case 2).
class RequestInstance {
 public:
  // Standalone instance, outside any engine: the given holes are its
  // dependency values, every other hole a run-time hole left unbound.
  RequestInstance(const TransactionSignature* sig, const Bindings& dependency_bindings);
  // Instance of an engine's signature state; the engine attaches its key.
  explicit RequestInstance(const SignatureState* state);
  ~RequestInstance();
  RequestInstance(const RequestInstance&) = delete;
  RequestInstance& operator=(const RequestInstance&) = delete;

  // Dependency values merged with the signature's run-time values.
  Bindings bindings() const;
  Bindings dependency_bindings() const;

  // Encoding of the dependency values; identifies the logical target so
  // re-learning the same feed does not duplicate instances.
  const std::string& fingerprint() const { return *key_; }

  // True when every hole required by the present fields is bound.
  bool ready() const;

  // Build the concrete HTTP request. Requires ready().
  http::Request materialize() const;

  // "Issued" here means "emitted to the proxy at least once"; it is used for
  // pool eviction, not for deduplication (the proxy dedups against its cache
  // and in-flight set so expired entries can be re-prefetched).
  bool issued() const { return issued_; }
  void mark_issued() { issued_ = true; }

 private:
  friend class LearningEngine;
  struct Standalone;

  std::unique_ptr<Standalone> owned_;  // null inside an engine
  const SignatureState* state_ = nullptr;
  const std::string* key_ = nullptr;
  bool issued_ = false;
};

// What every instance of one signature shares. std::map nodes are stable, so
// instances keep plain pointers to their state and key.
struct SignatureState {
  SignatureState(const TransactionSignature* sig,
                 std::shared_ptr<const std::vector<std::string>> dependency_holes);
  SignatureState(SignatureState&&) = delete;
  SignatureState& operator=(SignatureState&&) = delete;

  const TransactionSignature* sig;
  // Holes fed by dependency edges, sorted: the layout of an instance key.
  // One list per signature, shared by every user's state.
  std::shared_ptr<const std::vector<std::string>> dependency_holes;
  // Most recent values of the signature's run-time holes (never a
  // dependency hole, so merging with an instance's values cannot clash).
  Bindings runtime_bindings;
  // Most recently observed instance class (absent optional field keys).
  std::vector<std::string> recent_absent;
  bool observed = false;
  // Live instances keyed by their dependency values.
  std::map<std::string, RequestInstance> instances;
};

// A ready-to-issue prefetch handed to the proxy.
struct ReadyPrefetch {
  const TransactionSignature* signature = nullptr;
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
  // `instances` (optional, not owned) counts live instances; engines of one
  // proxy share it, each adding its own by delta.
  explicit LearningEngine(const SignatureSet* signatures,
                          const std::map<std::string, std::string>* host_apps = nullptr,
                          obs::Gauge* instances = nullptr);
  ~LearningEngine();
  LearningEngine(const LearningEngine&) = delete;
  LearningEngine& operator=(const LearningEngine&) = delete;

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
  void learn_from_predecessor(const TransactionSignature& pred, const http::Response& response,
                              std::vector<ReadyPrefetch>& out);
  void learn_from_successor(const TransactionSignature& succ,
                            const TransactionSignature::MatchResult& match);
  void collect_ready(const TransactionSignature& sig,
                     const std::shared_ptr<const json::Value>& predecessor_body,
                     std::vector<ReadyPrefetch>& out);
  SignatureState& state_for(const TransactionSignature& sig);
  // Instance of `state` with these dependency values, created if new.
  void add_instance(SignatureState& state, const Bindings& dependency_bindings);
  void gauge_instances(std::int64_t delta);

  const SignatureSet* signatures_;
  const std::map<std::string, std::string>* host_apps_;
  std::map<std::string, SignatureState, std::less<>> states_;
  obs::Gauge* instances_gauge_;
  LearningStats stats_;
};

}  // namespace appx::core
