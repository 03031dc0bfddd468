#include "core/learning.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

#include "util/error.hpp"
#include "util/log.hpp"

namespace appx::core {

SignatureState::SignatureState(const TransactionSignature* signature,
                               std::shared_ptr<const std::vector<std::string>> holes)
    : sig(signature), dependency_holes(std::move(holes)) {}

// --- instance keys and filling ---------------------------------------------------

namespace {

// An instance key lists the dependency values in the signature's
// dependency-hole order, each as "<decimal length>:<bytes>", or kUnbound for
// a hole without a value: unambiguous for any value bytes.
constexpr char kUnbound = '-';

std::string encode_key(const std::vector<std::string>& holes, const Bindings& values) {
  std::string key;
  for (const std::string& hole : holes) {
    const auto it = values.find(hole);
    if (it == values.end()) {
      key += kUnbound;
      continue;
    }
    key += std::to_string(it->second.size());
    key += ':';
    key += it->second;
  }
  return key;
}

// Calls fn(hole index, value) for every bound hole of a key.
template <typename Fn>
void for_each_bound(std::string_view key, Fn&& fn) {
  for (std::size_t index = 0; !key.empty(); ++index) {
    if (key.front() == kUnbound) {
      key.remove_prefix(1);
      continue;
    }
    const std::size_t colon = key.find(':');
    std::size_t length = 0;
    std::from_chars(key.data(), key.data() + colon, length);
    fn(index, key.substr(colon + 1, length));
    key.remove_prefix(colon + 1 + length);
  }
}

bool is_dependency(const SignatureState& state, std::string_view hole) {
  return std::binary_search(state.dependency_holes->begin(), state.dependency_holes->end(), hole);
}

// Whether `field` is sent under the signature's current instance class.
bool field_present(const SignatureState& state, const RequestField& field) {
  return !field.optional || std::find(state.recent_absent.begin(), state.recent_absent.end(),
                                      field_key(field)) == state.recent_absent.end();
}

// Set the dependency holes in `values` from an instance key, erasing the ones
// it leaves unbound.
void bind_dependencies(const SignatureState& state, std::string_view key, Bindings& values) {
  const std::vector<std::string>& holes = *state.dependency_holes;
  std::size_t next = 0;
  for_each_bound(key, [&](std::size_t index, std::string_view value) {
    while (next < index) values.erase(holes[next++]);
    values[holes[next++]] = value;
  });
  while (next < holes.size()) values.erase(holes[next++]);
}

// The request under the current instance class; nullopt if a sent hole is
// unbound.
std::optional<http::Request> fill(const SignatureState& state, const Bindings& values) {
  const RequestSignature& request = state.sig->request;
  bool complete = true;
  const auto value_of = [&](const FieldTemplate& t) {
    std::optional<std::string> value = t.fill(values);
    complete = complete && value.has_value();
    return std::move(value).value_or(std::string());
  };
  http::Request req;
  req.method = request.method;
  req.uri.scheme = value_of(request.scheme);
  if (req.uri.scheme.empty()) req.uri.scheme = "https";
  req.uri.host = value_of(request.host);
  req.uri.path = value_of(request.path);
  for (const RequestField& f : request.query) {
    if (field_present(state, f)) req.uri.add_query_param(f.name, value_of(f.value));
  }
  for (const RequestField& f : request.headers) {
    if (field_present(state, f)) req.headers.add(f.name, value_of(f.value));
  }
  if (request.body_kind == BodyKind::kForm) {
    http::FormFields fields;
    for (const RequestField& f : request.body) {
      if (field_present(state, f)) fields.emplace_back(f.name, value_of(f.value));
    }
    req.set_form_fields(fields);
  }
  if (!complete) return std::nullopt;
  return req;
}

// --- dependency value extraction ---------------------------------------------------

std::optional<std::string> scalar_at(const std::vector<const json::Value*>& values) {
  if (values.empty() || values.front()->is_array() || values.front()->is_object()) {
    return std::nullopt;
  }
  return values.front()->scalar_to_string();
}

// Per-instance binding sets for `edges` from a predecessor response body.
std::vector<Bindings> binding_sets_for(const std::vector<const DependencyEdge*>& edges,
                                       const json::Value& body) {
  // Scalar paths give one value shared by every instance. Array paths ([*])
  // replicate; they are grouped by their textual prefix so edges reading
  // different fields of the same array element land in the same instance.
  Bindings shared;
  struct MultiGroup {
    std::string prefix_text;
    const json::Array* array = nullptr;  // the array the [*] walks; null if absent
    std::vector<std::pair<const DependencyEdge*, std::vector<json::PathStep>>> members;
  };
  std::vector<MultiGroup> groups;

  for (const DependencyEdge* edge : edges) {
    const json::Path path(edge->pred_path);
    const auto& steps = path.steps();
    const auto wild = std::find_if(steps.begin(), steps.end(),
                                   [](const json::PathStep& step) { return step.wildcard; });
    if (wild == steps.end()) {
      const auto value = scalar_at(path.resolve(body));
      if (value) shared[edge->hole] = *value;
      continue;
    }
    std::string prefix_text;
    for (auto step = steps.begin(); step <= wild; ++step) {
      if (step != steps.begin()) prefix_text += '.';
      prefix_text += step->key;
    }
    auto group = std::find_if(groups.begin(), groups.end(), [&](const MultiGroup& g) {
      return g.prefix_text == prefix_text;
    });
    if (group == groups.end()) {
      std::vector<json::PathStep> prefix(steps.begin(), wild + 1);
      prefix.back().indexed = false;  // stop at the array itself
      prefix.back().wildcard = false;
      const auto arrays = json::Path::resolve(body, prefix);
      const bool found = !arrays.empty() && arrays.front()->is_array();
      groups.push_back({prefix_text, found ? &arrays.front()->as_array() : nullptr, {}});
      group = groups.end() - 1;
    }
    group->members.emplace_back(edge, std::vector<json::PathStep>(wild + 1, steps.end()));
  }

  if (groups.empty() || groups.front().array == nullptr) {
    return shared.empty() ? std::vector<Bindings>{} : std::vector<Bindings>{shared};
  }

  // One instance per element of the first group's array; further groups are
  // zipped by index when their arrays align, otherwise only their first
  // element contributes (distinct arrays rarely feed one request in
  // practice; when they do, element pairing by position is the best
  // information available statically).
  std::vector<Bindings> sets;
  const json::Array& lead = *groups.front().array;
  for (std::size_t i = 0; i < lead.size(); ++i) {
    Bindings bindings = shared;
    bool complete = true;
    for (const MultiGroup& group : groups) {
      const json::Array* arr = group.array;
      const std::size_t index = (arr != nullptr && arr->size() == lead.size()) ? i : 0;
      complete = complete && arr != nullptr && index < arr->size();
      for (const auto& [edge, remainder] : group.members) {
        if (!complete) break;
        const auto value = scalar_at(json::Path::resolve((*arr)[index], remainder));
        complete = value.has_value();
        if (complete) bindings[edge->hole] = *value;
      }
    }
    if (complete) sets.push_back(std::move(bindings));
  }
  return sets;
}

}  // namespace

// --- RequestInstance -----------------------------------------------------------

struct RequestInstance::Standalone {
  SignatureState state;
  std::string key;
};

RequestInstance::RequestInstance(const TransactionSignature* sig,
                                 const Bindings& dependency_bindings) {
  auto holes = std::make_shared<std::vector<std::string>>();  // sorted: map order
  for (const auto& [hole, _] : dependency_bindings) holes->push_back(hole);
  owned_.reset(new Standalone{SignatureState(sig, std::move(holes)), {}});
  owned_->key = encode_key(*owned_->state.dependency_holes, dependency_bindings);
  state_ = &owned_->state;
  key_ = &owned_->key;
}

RequestInstance::RequestInstance(const SignatureState* state) : state_(state) {}

RequestInstance::~RequestInstance() = default;

Bindings RequestInstance::dependency_bindings() const {
  Bindings values;
  bind_dependencies(*state_, *key_, values);
  return values;
}

Bindings RequestInstance::bindings() const {
  Bindings values = state_->runtime_bindings;
  bind_dependencies(*state_, *key_, values);
  return values;
}

bool RequestInstance::ready() const { return fill(*state_, bindings()).has_value(); }

http::Request RequestInstance::materialize() const {
  std::optional<http::Request> request = fill(*state_, bindings());
  if (!request) {
    throw InvalidStateError("RequestInstance: materialize before all holes are bound (" +
                            state_->sig->label + ")");
  }
  return std::move(*request);
}

// --- LearningEngine --------------------------------------------------------------

LearningEngine::LearningEngine(const SignatureSet* signatures,
                               const std::map<std::string, std::string>* host_apps,
                               obs::Gauge* instances)
    : signatures_(signatures), host_apps_(host_apps), instances_gauge_(instances) {
  if (signatures == nullptr) throw InvalidArgumentError("LearningEngine: null signature set");
}

LearningEngine::~LearningEngine() {
  for (const auto& [_, state] : states_) {
    gauge_instances(-static_cast<std::int64_t>(state.instances.size()));
  }
}

void LearningEngine::gauge_instances(std::int64_t delta) {
  if (instances_gauge_ != nullptr) instances_gauge_->add(delta);
}

const std::shared_ptr<const json::Value>& ReadyPrefetch::empty_predecessor_body() {
  static const std::shared_ptr<const json::Value> empty =
      std::make_shared<const json::Value>(json::Object{});
  return empty;
}

std::vector<ReadyPrefetch> LearningEngine::observe(const http::Request& request,
                                                   const http::Response& response) {
  ++stats_.transactions_observed;
  std::vector<ReadyPrefetch> ready;

  // Fig. 6: identify the learning target by matching the incoming
  // transaction against the signatures. Signatures with no dependency in
  // either direction are filtered out implicitly (neither branch fires).
  std::string app_hint;
  if (host_apps_ != nullptr) {
    const auto it = host_apps_->find(request.uri.host);
    if (it != host_apps_->end()) app_hint = it->second;
  }
  const TransactionSignature* sig = signatures_->match_request(request, app_hint);
  if (sig == nullptr) return ready;
  ++stats_.signature_matches;

  const bool successor = signatures_->is_successor(sig->id);
  const bool predecessor = signatures_->is_predecessor(sig->id);

  if (successor) {
    // Learning target is a successor: the observed request is itself an
    // example instance; learn run-time values and the current instance class.
    const auto match = sig->match_ex(request);
    if (match) {
      ++stats_.successor_events;
      learn_from_successor(*sig, *match);
      collect_ready(*sig, ReadyPrefetch::empty_predecessor_body(), ready);
    }
  }
  if (predecessor && response.ok()) {
    ++stats_.predecessor_events;
    learn_from_predecessor(*sig, response, ready);
  }
  return ready;
}

SignatureState& LearningEngine::state_for(const TransactionSignature& sig) {
  auto it = states_.find(sig.id);
  if (it == states_.end()) {
    it = states_.try_emplace(sig.id, &sig, signatures_->sorted_dependency_holes(sig.id)).first;
  }
  return it->second;
}

void LearningEngine::add_instance(SignatureState& state, const Bindings& dependency_bindings) {
  const auto [it, created] = state.instances.try_emplace(
      encode_key(*state.dependency_holes, dependency_bindings), &state);
  if (!created) return;
  it->second.key_ = &it->first;
  ++stats_.instances_created;
  gauge_instances(1);
}

void LearningEngine::learn_from_successor(const TransactionSignature& succ,
                                          const TransactionSignature::MatchResult& match) {
  // Only run-time holes are learned here; dependency holes are bound per
  // instance from predecessor responses (their values differ per target).
  // Every pending instance reads this one record, so it adapts to the most
  // recent condition at once (Fig. 7 case 2).
  SignatureState& state = state_for(succ);
  state.observed = true;
  state.recent_absent = match.absent_optional;
  for (const auto& [hole, value] : match.bindings) {
    if (!is_dependency(state, hole)) state.runtime_bindings[hole] = value;
  }
}

void LearningEngine::learn_from_predecessor(const TransactionSignature& pred,
                                            const http::Response& response,
                                            std::vector<ReadyPrefetch>& out) {
  if (pred.response.body_kind != ResponseBodyKind::kJson) return;
  std::shared_ptr<const json::Value> body;
  try {
    body = std::make_shared<const json::Value>(json::parse(response.body));
  } catch (const ParseError& e) {
    log_warn("learning") << "predecessor " << pred.label << ": unparsable response body: "
                         << e.what();
    return;
  }

  // Group outgoing edges by successor; each group yields one or more
  // instances of that successor.
  std::map<std::string, std::vector<const DependencyEdge*>> by_succ;
  for (const DependencyEdge* e : signatures_->edges_from(pred.id)) {
    by_succ[e->succ_id].push_back(e);
  }

  for (const auto& [succ_id, edges] : by_succ) {
    const TransactionSignature* succ = signatures_->find(succ_id);
    if (succ == nullptr) continue;
    SignatureState& state = state_for(*succ);
    for (const Bindings& bindings : binding_sets_for(edges, *body)) {
      if (!bindings.empty()) add_instance(state, bindings);
    }
    collect_ready(*succ, body, out);

    // Bound memory: drop issued instances once the pool gets large.
    if (state.instances.size() > 2048) {
      const auto erased =
          std::erase_if(state.instances, [](const auto& kv) { return kv.second.issued(); });
      gauge_instances(-static_cast<std::int64_t>(erased));
    }
  }
}

void LearningEngine::collect_ready(const TransactionSignature& sig,
                                   const std::shared_ptr<const json::Value>& predecessor_body,
                                   std::vector<ReadyPrefetch>& out) {
  const auto it = states_.find(sig.id);
  if (it == states_.end()) return;
  // Run-time holes are checked once per call, by a fill with every
  // dependency hole bound; per instance only its dependency values change.
  SignatureState& state = it->second;
  Bindings values = state.runtime_bindings;
  for (const std::string& hole : *state.dependency_holes) values.emplace(hole, "");
  if (!fill(state, values)) return;
  for (auto& [key, instance] : state.instances) {
    bind_dependencies(state, key, values);
    std::optional<http::Request> request = fill(state, values);
    if (!request) continue;  // a sent dependency hole is unbound
    // Note: ready instances are re-emitted on every relevant observation;
    // the proxy deduplicates against its cache and in-flight set. This is
    // what allows re-prefetching after a cached response expires.
    ReadyPrefetch rp;
    rp.signature = &sig;
    rp.request = std::move(*request);
    rp.predecessor_body = predecessor_body;
    instance.mark_issued();
    ++stats_.instances_ready;
    out.push_back(std::move(rp));
  }
}

std::vector<const RequestInstance*> LearningEngine::instances_of(std::string_view sig_id) const {
  std::vector<const RequestInstance*> out;
  const auto it = states_.find(sig_id);
  if (it == states_.end()) return out;
  for (const auto& [_, instance] : it->second.instances) out.push_back(&instance);
  return out;
}

// --- persistence -------------------------------------------------------------------

namespace {

void write_bindings(ByteWriter& out, const Bindings& bindings) {
  out.u32(static_cast<std::uint32_t>(bindings.size()));
  for (const auto& [k, v] : bindings) {
    out.str(k);
    out.str(v);
  }
}

Bindings read_bindings(ByteReader& in) {
  Bindings bindings;
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string k = in.str();
    bindings[std::move(k)] = in.str();
  }
  return bindings;
}

void write_string_list(ByteWriter& out, const std::vector<std::string>& items) {
  out.u32(static_cast<std::uint32_t>(items.size()));
  for (const std::string& s : items) out.str(s);
}

std::vector<std::string> read_string_list(ByteReader& in) {
  std::vector<std::string> items;
  const std::uint32_t count = in.u32();
  items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) items.push_back(in.str());
  return items;
}

}  // namespace

void LearningEngine::persist_wildcards(ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(states_.size()));
  for (const auto& [sig_id, state] : states_) {
    out.str(sig_id);
    out.u8(state.observed ? 1 : 0);
    write_bindings(out, state.runtime_bindings);
    write_string_list(out, state.recent_absent);
  }
}

void LearningEngine::restore_wildcards(ByteReader& in, std::uint32_t version) {
  (void)version;  // v1 is the only layout so far
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string sig_id = in.str();
    const bool observed = in.u8() != 0;
    Bindings runtime = read_bindings(in);
    std::vector<std::string> absent = read_string_list(in);
    // A signature the current set no longer carries: consume and drop.
    const TransactionSignature* sig = signatures_->find(sig_id);
    if (sig == nullptr) continue;
    SignatureState& state = state_for(*sig);
    state.observed = state.observed || observed;
    for (auto& [k, v] : runtime) {
      if (!is_dependency(state, k)) state.runtime_bindings[k] = std::move(v);
    }
    state.recent_absent = std::move(absent);
  }
}

void LearningEngine::persist_flows(ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(states_.size()));
  for (const auto& [sig_id, state] : states_) {
    out.str(sig_id);
    out.u32(static_cast<std::uint32_t>(state.instances.size()));
    // Per instance: dependency values, merged values and the instance class
    // (sorted), the layout of v1 when each instance carried its own copies.
    std::vector<std::string> absent = state.recent_absent;
    std::sort(absent.begin(), absent.end());
    absent.erase(std::unique(absent.begin(), absent.end()), absent.end());
    for (const auto& [_, instance] : state.instances) {
      write_bindings(out, instance.dependency_bindings());
      write_bindings(out, instance.bindings());
      write_string_list(out, absent);
      // No issued flag: a snapshot outlives the cache, so restored instances
      // always come back un-issued (collect_ready + proxy dedup re-issue
      // them exactly once). Keeping the flag out of the format makes
      // persist(restore(x)) byte-identical to x.
    }
  }
}

void LearningEngine::restore_flows(ByteReader& in, std::uint32_t version) {
  (void)version;  // v1 is the only layout so far
  const std::uint32_t sig_count = in.u32();
  for (std::uint32_t s = 0; s < sig_count; ++s) {
    const std::string sig_id = in.str();
    const TransactionSignature* sig = signatures_->find(sig_id);
    const std::uint32_t instance_count = in.u32();
    for (std::uint32_t i = 0; i < instance_count; ++i) {
      const Bindings dep = read_bindings(in);
      const Bindings merged = read_bindings(in);
      std::vector<std::string> absent = read_string_list(in);
      if (sig == nullptr) continue;  // dropped signature: consume and skip
      // Fold the instance's run-time values and class into the signature.
      // The wildcards section, restored first, wins where both carry one.
      SignatureState& state = state_for(*sig);
      for (const auto& [k, v] : merged) {
        if (!is_dependency(state, k)) state.runtime_bindings.emplace(k, v);
      }
      if (!state.observed && state.recent_absent.empty()) state.recent_absent = std::move(absent);
      add_instance(state, dep);
    }
  }
}

}  // namespace appx::core
