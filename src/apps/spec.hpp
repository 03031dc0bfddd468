// Declarative model of a mobile app's network behaviour.
//
// The paper evaluates five commercial Google Play apps; we cannot ship
// those, so each evaluation app is described by an AppSpec sized from the
// paper's measurements (endpoint counts, dependency fan-out and chain depth
// from Table 3; payload sizes and origin RTTs from Table 2 / §6.2). One spec
// is the single source of truth for three artefacts:
//
//   * the SAPK binary (apps/compiler) that static analysis consumes,
//   * the origin-server behaviour (apps/server) with deterministic content,
//   * the client interaction engine (apps/client) that generates the very
//     traffic the signatures describe.
//
// Because all three derive from the same spec, the reproduction has the same
// property as the real system: if the analysis is correct, prefetch requests
// are byte-identical to what the app sends.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/signature.hpp"
#include "util/units.hpp"

namespace appx::apps {

// Where a request field's value comes from.
struct ValueSpec {
  enum class Kind { kConst, kEnv, kDep, kNonce };
  Kind kind = Kind::kConst;
  std::string text;          // const value, or env variable name
  std::string dep_endpoint;  // kDep: predecessor endpoint label
  std::string dep_path;      // kDep: JSON path into the predecessor response

  static ValueSpec constant(std::string value);
  static ValueSpec env(std::string name);
  static ValueSpec dep(std::string endpoint, std::string path);
  // A fresh per-request value (anti-replay token). To the static analysis it
  // is just a run-time value; at run time a *reused* nonce is rejected by the
  // origin — the class of side-effectful requests §4.3's verification phase
  // must catch and disable.
  static ValueSpec nonce();
};

struct FieldSpec {
  core::FieldLocation loc = core::FieldLocation::kBody;
  std::string name;
  ValueSpec value;
  bool conditional = false;  // included only when cond_env flag is set
  std::string cond_env;
};

// How dependency values travel to this endpoint's request builder in the
// generated IR. Purely an analysis-difficulty knob: runtime behaviour is
// identical. Mirrors the paper's three Extractocol extensions.
enum class DepRoute { kDirect, kIntent, kRxFlatMap, kHeapChain };

// A JSON field the endpoint's response carries.
struct ProducesSpec {
  enum class Kind { kId, kName, kNumber, kText, kUrl };
  std::string path;  // "data.products[*].product_info.id"
  Kind kind = Kind::kId;
  // kUrl: the emitted value is url_base + <the kId value of this element>,
  // e.g. "https://img.wish.example/thumb?cid=" + id — the embedded absolute
  // URLs real feeds carry (and all that URL-scanning prefetchers can use).
  std::string url_base = {};
};

struct EndpointSpec {
  std::string label;  // unique within the app, e.g. "wish.feed"
  std::string method = "GET";
  std::string host;      // runtime host, e.g. "api.wish.example"
  std::string host_env;  // env key naming the host in the IR ("api_host")
  std::string path;      // literal URI path
  std::vector<FieldSpec> fields;
  DepRoute route = DepRoute::kDirect;

  // Response model.
  std::string seed_field;  // request field whose value seeds content ("" = static)
  bool opaque = false;     // image/video payload instead of JSON
  Bytes opaque_size = 0;
  Bytes json_padding = 0;  // filler to approximate real payload sizes
  int list_count = 0;      // element count for [*] producers
  std::vector<ProducesSpec> produces;
  Duration proc_delay = milliseconds(10);  // server-side processing time
  // Content churn period: the origin's content for this endpoint changes
  // every content_ttl of simulated time (drives expiration estimation).
  Duration content_ttl = minutes(30);
  // Requires a never-before-seen nonce field value; replays get 403.
  bool requires_nonce = false;

  bool has_dep_fields() const;
  std::vector<const FieldSpec*> dep_fields() const;
};

// One synchronous round of parallel requests within an interaction.
struct WaveStep {
  std::string endpoint;
  // One request per element of the endpoint's dependency list (thumbnails)
  // instead of a single request for the currently selected element.
  bool per_element = false;
  int max_elements = 0;  // cap for per_element (0 = all)
};

struct Interaction {
  std::string name;
  enum class Trigger { kUi, kBackground, kServerPush } trigger = Trigger::kUi;
  double fuzz_weight = 1.0;  // relative pick probability under UI fuzzing
  double user_weight = 1.0;  // relative pick probability in user traces
  std::vector<std::vector<WaveStep>> waves;  // serial waves (render barriers)
  Duration pre_delay = milliseconds(60);     // input handling, sensor wake-up
  Duration render_delay = milliseconds(150);
};

struct AppSpec {
  std::string package;   // "com.wish.app"
  std::string name;      // "Wish"
  std::string category;  // Table 1
  std::string main_interaction_desc;
  std::string main_interaction;  // Interaction name
  // Proxy<->origin RTT per host (Table 2); hosts absent here use default_rtt.
  std::map<std::string, Duration> host_rtt;
  Duration default_rtt = milliseconds(100);
  // Proxy<->origin bottleneck bandwidth (bits/s); per-host overrides for
  // CDN paths that peer close to the proxy.
  double origin_bw = mbps(25);
  std::map<std::string, double> host_bw;

  double bw_for_host(const std::string& host) const;
  std::vector<EndpointSpec> endpoints;
  std::vector<Interaction> interactions;
  // Run-time environment defaults (host values, client version, flags).
  std::map<std::string, std::string> env_defaults;
  std::set<std::string> env_flags;  // set conditional-inclusion flags
  // The service provider's prefetching choice (paper §4.4): endpoint labels
  // whose signatures the deployed proxy configuration enables.
  std::set<std::string> accelerated_labels;

  const EndpointSpec& endpoint(std::string_view label) const;
  const EndpointSpec* find_endpoint(std::string_view label) const;
  const Interaction& interaction(std::string_view name) const;

  Duration rtt_for_host(const std::string& host) const;

  // Endpoints whose fields depend on `label`'s response.
  std::vector<const EndpointSpec*> successors_of(std::string_view label) const;
  // Endpoints with no dependency fields (interaction roots).
  std::vector<const EndpointSpec*> roots() const;

  // Sanity checks: unique labels, dep references resolve, multi-predecessor
  // successors use the Intent route, interactions reference real endpoints.
  // Throws InvalidArgumentError on violations.
  void validate() const;
};

// Split a JSON path at its first "[*]": "a.b[*].c" -> ("a.b", "c").
// Returns false when the path has no wildcard.
bool split_wildcard_path(std::string_view path, std::string& prefix, std::string& remainder);

}  // namespace appx::apps
