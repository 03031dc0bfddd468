#include "core/signature.hpp"

#include <algorithm>
#include <functional>
#include <set>

#include "core/signature_index.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace appx::core {

namespace strings = appx::strings;

std::string_view to_string(FieldLocation location) {
  switch (location) {
    case FieldLocation::kQuery: return "query";
    case FieldLocation::kHeader: return "header";
    case FieldLocation::kBody: return "body";
  }
  return "?";
}

// --- RequestSignature ---------------------------------------------------------

std::vector<std::string> RequestSignature::hole_names() const {
  std::vector<std::string> out;
  const auto absorb = [&out](const FieldTemplate& t) {
    for (const std::string& name : t.hole_names()) {
      if (std::find(out.begin(), out.end(), name) == out.end()) out.push_back(name);
    }
  };
  absorb(scheme);
  absorb(host);
  absorb(path);
  for (const auto* group : {&query, &headers, &body}) {
    for (const RequestField& f : *group) absorb(f.value);
  }
  return out;
}

// --- TransactionSignature -------------------------------------------------------

namespace {

void serialize_template(ByteWriter& out, const FieldTemplate& t) { t.serialize(out); }

void serialize_fields(ByteWriter& out, const std::vector<RequestField>& fields) {
  out.u32(static_cast<std::uint32_t>(fields.size()));
  for (const RequestField& f : fields) {
    out.u8(static_cast<std::uint8_t>(f.location));
    out.str(f.name);
    f.value.serialize(out);
    out.u8(f.optional ? 1 : 0);
  }
}

std::vector<RequestField> deserialize_fields(ByteReader& in) {
  std::vector<RequestField> fields;
  const std::uint32_t n = in.u32();
  fields.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RequestField f;
    f.location = static_cast<FieldLocation>(in.u8());
    f.name = in.str();
    f.value = FieldTemplate::deserialize(in);
    f.optional = in.u8() != 0;
    fields.push_back(std::move(f));
  }
  return fields;
}

std::string canonical_form(const TransactionSignature& sig) {
  // A deterministic rendering of everything except id/label, used for the
  // stable content hash.
  std::string out = sig.app;
  out += '\x1f';
  out += sig.request.method;
  out += '\x1f';
  out += sig.request.scheme.to_display_string();
  out += '\x1f';
  out += sig.request.host.to_display_string();
  out += '\x1f';
  out += sig.request.path.to_display_string();
  const auto emit_fields = [&out](const std::vector<RequestField>& fields) {
    for (const RequestField& f : fields) {
      out += '\x1e';
      out += to_string(f.location);
      out += ':';
      out += f.name;
      out += '=';
      out += f.value.to_display_string();
      if (f.optional) out += '?';
    }
  };
  emit_fields(sig.request.query);
  emit_fields(sig.request.headers);
  out += '\x1f';
  out += std::to_string(static_cast<int>(sig.request.body_kind));
  emit_fields(sig.request.body);
  out += '\x1f';
  out += std::to_string(static_cast<int>(sig.response.body_kind));
  emit_fields(sig.response.headers);
  for (const ResponseField& f : sig.response.fields) {
    out += '\x1e';
    out += f.path;
    out += '~';
    out += f.shape;
  }
  return out;
}

}  // namespace

void TransactionSignature::finalize() { id = short_digest(canonical_form(*this)); }

std::string TransactionSignature::uri_regex() const {
  std::string out = request.scheme.to_regex_string();
  if (!out.empty()) out += "://";
  out += request.host.to_regex_string();
  out += request.path.to_regex_string();
  return out;
}

std::optional<Bindings> TransactionSignature::match(const http::Request& req) const {
  auto result = match_ex(req);
  if (!result) return std::nullopt;
  return std::move(result->bindings);
}

std::optional<TransactionSignature::MatchResult> TransactionSignature::match_ex(
    const http::Request& req) const {
  if (req.method != request.method) return std::nullopt;
  MatchResult result;
  Bindings& bindings = result.bindings;

  // Origin-form requests (the on-the-wire shape, "POST /x HTTP/1.1" + Host)
  // carry no scheme — the transport implies it — so an empty scheme matches
  // any scheme template.
  if (!request.scheme.segments().empty() && !req.uri.scheme.empty()) {
    const auto b = request.scheme.extract(req.uri.scheme);
    if (!b) return std::nullopt;
    bindings.insert(b->begin(), b->end());
  }
  // Host: match against the concrete host (without port).
  {
    const auto b = request.host.extract(req.uri.host);
    if (!b) return std::nullopt;
    for (const auto& [k, v] : *b) {
      const auto it = bindings.find(k);
      if (it != bindings.end() && it->second != v) return std::nullopt;
      bindings[k] = v;
    }
  }
  {
    const auto b = request.path.extract(req.uri.path);
    if (!b) return std::nullopt;
    for (const auto& [k, v] : *b) {
      const auto it = bindings.find(k);
      if (it != bindings.end() && it->second != v) return std::nullopt;
      bindings[k] = v;
    }
  }

  if (!match_fields(request.query, req.uri.query, /*case_insensitive_names=*/false,
                    /*allow_extra=*/false, bindings, &result.absent_optional)) {
    return std::nullopt;
  }
  // Headers: the signature enumerates interesting headers; live requests can
  // carry more (transport headers etc.), so extras are allowed.
  if (!match_fields(request.headers, req.headers.items(), /*case_insensitive_names=*/true,
                    /*allow_extra=*/true, bindings, &result.absent_optional)) {
    return std::nullopt;
  }
  if (request.body_kind == BodyKind::kNone) {
    if (!req.body.empty()) return std::nullopt;
  } else {
    if (!match_fields(request.body, req.form_fields(), /*case_insensitive_names=*/false,
                      /*allow_extra=*/false, bindings, &result.absent_optional)) {
      return std::nullopt;
    }
  }
  return result;
}

void TransactionSignature::serialize(ByteWriter& out) const {
  out.str(id);
  out.str(app);
  out.str(label);
  out.str(request.method);
  serialize_template(out, request.scheme);
  serialize_template(out, request.host);
  serialize_template(out, request.path);
  serialize_fields(out, request.query);
  serialize_fields(out, request.headers);
  out.u8(static_cast<std::uint8_t>(request.body_kind));
  serialize_fields(out, request.body);
  serialize_fields(out, response.headers);
  out.u8(static_cast<std::uint8_t>(response.body_kind));
  out.u32(static_cast<std::uint32_t>(response.fields.size()));
  for (const ResponseField& f : response.fields) {
    out.str(f.path);
    out.str(f.shape);
  }
}

TransactionSignature TransactionSignature::deserialize(ByteReader& in) {
  TransactionSignature sig;
  sig.id = in.str();
  sig.app = in.str();
  sig.label = in.str();
  sig.request.method = in.str();
  sig.request.scheme = FieldTemplate::deserialize(in);
  sig.request.host = FieldTemplate::deserialize(in);
  sig.request.path = FieldTemplate::deserialize(in);
  sig.request.query = deserialize_fields(in);
  sig.request.headers = deserialize_fields(in);
  sig.request.body_kind = static_cast<BodyKind>(in.u8());
  sig.request.body = deserialize_fields(in);
  sig.response.headers = deserialize_fields(in);
  sig.response.body_kind = static_cast<ResponseBodyKind>(in.u8());
  const std::uint32_t n = in.u32();
  sig.response.fields.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ResponseField f;
    f.path = in.str();
    f.shape = in.str();
    sig.response.fields.push_back(std::move(f));
  }
  return sig;
}

// --- field matching helper ------------------------------------------------------

std::string field_key(const RequestField& field) {
  return std::string(to_string(field.location)) + ":" + field.name;
}

bool match_fields(const std::vector<RequestField>& fields,
                  const std::vector<std::pair<std::string, std::string>>& concrete,
                  bool case_insensitive_names, bool allow_extra, Bindings& bindings,
                  std::vector<std::string>* absent_out) {
  const auto names_equal = [&](std::string_view a, std::string_view b) {
    return case_insensitive_names ? strings::iequals(a, b) : a == b;
  };
  const auto mark_absent = [&](const RequestField& field) {
    if (absent_out != nullptr) absent_out->push_back(field_key(field));
  };

  std::vector<bool> concrete_used(concrete.size(), false);
  // Repeated field names (e.g. "_cap[]") are matched positionally within the
  // name: the k-th signature field named N matches the k-th concrete pair
  // named N.
  for (const RequestField& field : fields) {
    std::size_t found = concrete.size();
    for (std::size_t i = 0; i < concrete.size(); ++i) {
      if (!concrete_used[i] && names_equal(concrete[i].first, field.name)) {
        found = i;
        break;
      }
    }
    if (found == concrete.size()) {
      if (field.optional) {
        mark_absent(field);
        continue;
      }
      return false;  // required field missing
    }
    // Try to match this concrete value with consistent bindings.
    Bindings trial = bindings;
    const auto extracted = field.value.extract(concrete[found].second);
    bool fits = false;
    if (extracted) {
      fits = true;
      for (const auto& [k, v] : *extracted) {
        const auto it = trial.find(k);
        if (it != trial.end() && it->second != v) {
          fits = false;
          break;
        }
        trial[k] = v;
      }
    }
    if (!fits) {
      if (field.optional) {
        mark_absent(field);  // treat mismatch of optional as absent
        continue;
      }
      return false;
    }
    concrete_used[found] = true;
    bindings = std::move(trial);
  }
  if (!allow_extra) {
    for (std::size_t i = 0; i < concrete.size(); ++i) {
      if (!concrete_used[i]) return false;
    }
  }
  return true;
}

// --- SignatureSet ----------------------------------------------------------------

SignatureSet::SignatureSet() = default;
SignatureSet::SignatureSet(SignatureSet&&) noexcept = default;
SignatureSet& SignatureSet::operator=(SignatureSet&&) noexcept = default;
SignatureSet::~SignatureSet() = default;

const TransactionSignature& SignatureSet::add(TransactionSignature sig) {
  if (sig.id.empty()) sig.finalize();
  if (by_id_.contains(sig.id)) {
    throw InvalidArgumentError("SignatureSet: duplicate signature id " + sig.id);
  }
  signatures_.push_back(std::make_unique<TransactionSignature>(std::move(sig)));
  const TransactionSignature& ref = *signatures_.back();
  by_id_.emplace(ref.id, &ref);
  index_.reset();  // the dispatch index no longer covers every signature
  sorted_dependency_holes_.clear();
  return ref;
}

void SignatureSet::add_edge(DependencyEdge edge) {
  if (!by_id_.contains(edge.pred_id)) {
    throw InvalidArgumentError("SignatureSet: edge from unknown signature " + edge.pred_id);
  }
  if (!by_id_.contains(edge.succ_id)) {
    throw InvalidArgumentError("SignatureSet: edge to unknown signature " + edge.succ_id);
  }
  json::Path(edge.pred_path);  // validate
  edges_.push_back(std::move(edge));
  sorted_dependency_holes_.clear();
}

const TransactionSignature* SignatureSet::find(std::string_view id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

const TransactionSignature& SignatureSet::get(std::string_view id) const {
  const TransactionSignature* sig = find(id);
  if (sig == nullptr) throw NotFoundError("SignatureSet: no signature " + std::string(id));
  return *sig;
}

const TransactionSignature* SignatureSet::find_by_label(std::string_view label) const {
  for (const auto& sig : signatures_) {
    if (sig->label == label) return sig.get();
  }
  return nullptr;
}

std::vector<const DependencyEdge*> SignatureSet::edges_from(std::string_view pred_id) const {
  std::vector<const DependencyEdge*> out;
  for (const DependencyEdge& e : edges_) {
    if (e.pred_id == pred_id) out.push_back(&e);
  }
  return out;
}

std::vector<const DependencyEdge*> SignatureSet::edges_to(std::string_view succ_id) const {
  std::vector<const DependencyEdge*> out;
  for (const DependencyEdge& e : edges_) {
    if (e.succ_id == succ_id) out.push_back(&e);
  }
  return out;
}

bool SignatureSet::is_successor(std::string_view id) const {
  return std::any_of(edges_.begin(), edges_.end(),
                     [&](const DependencyEdge& e) { return e.succ_id == id; });
}

bool SignatureSet::is_predecessor(std::string_view id) const {
  return std::any_of(edges_.begin(), edges_.end(),
                     [&](const DependencyEdge& e) { return e.pred_id == id; });
}

std::vector<const TransactionSignature*> SignatureSet::prefetchable() const {
  std::vector<const TransactionSignature*> out;
  for (const auto& sig : signatures_) {
    if (is_successor(sig->id)) out.push_back(sig.get());
  }
  return out;
}

std::vector<std::string> SignatureSet::runtime_holes(std::string_view id) const {
  const TransactionSignature& sig = get(id);
  std::set<std::string> bound;
  for (const DependencyEdge* e : edges_to(id)) bound.insert(e->hole);
  std::vector<std::string> out;
  for (const std::string& hole : sig.request.hole_names()) {
    if (!bound.contains(hole)) out.push_back(hole);
  }
  return out;
}

std::vector<std::string> SignatureSet::dependency_holes(std::string_view id) const {
  const TransactionSignature& sig = get(id);
  std::set<std::string> bound;
  for (const DependencyEdge* e : edges_to(id)) bound.insert(e->hole);
  std::vector<std::string> out;
  for (const std::string& hole : sig.request.hole_names()) {
    if (bound.contains(hole)) out.push_back(hole);
  }
  return out;
}

std::shared_ptr<const std::vector<std::string>> SignatureSet::sorted_dependency_holes(
    std::string_view id) const {
  auto it = sorted_dependency_holes_.find(id);
  if (it == sorted_dependency_holes_.end()) {
    std::vector<std::string> holes = dependency_holes(id);
    std::sort(holes.begin(), holes.end());
    it = sorted_dependency_holes_
             .emplace(std::string(id),
                      std::make_shared<const std::vector<std::string>>(std::move(holes)))
             .first;
  }
  return it->second;
}

std::size_t SignatureSet::max_chain_length() const {
  // Longest path in edge count over the dependency graph. The graph is a DAG
  // in practice; we guard against cycles with a visiting mark.
  std::map<std::string, std::vector<std::string>> adjacency;
  for (const DependencyEdge& e : edges_) adjacency[e.pred_id].push_back(e.succ_id);

  std::map<std::string, std::size_t> memo;
  std::set<std::string> visiting;

  // Depth = longest edge-path starting at node.
  const std::function<std::size_t(const std::string&)> depth =
      [&](const std::string& node) -> std::size_t {
    const auto it = memo.find(node);
    if (it != memo.end()) return it->second;
    if (visiting.contains(node)) return 0;  // cycle guard
    visiting.insert(node);
    std::size_t best = 0;
    const auto adj = adjacency.find(node);
    if (adj != adjacency.end()) {
      for (const std::string& next : adj->second) best = std::max(best, 1 + depth(next));
    }
    visiting.erase(node);
    memo[node] = best;
    return best;
  };

  std::size_t best = 0;
  for (const auto& sig : signatures_) best = std::max(best, depth(sig->id));
  return best;
}

const TransactionSignature* SignatureSet::match_request(const http::Request& request,
                                                        std::string_view app) const {
  return index().match(request, app);
}

const TransactionSignature* SignatureSet::match_request_linear(const http::Request& request,
                                                               std::string_view app) const {
  for (const auto& sig : signatures_) {
    if (!app.empty() && sig->app != app) continue;
    if (sig->match(request)) return sig.get();
  }
  return nullptr;
}

const SignatureIndex& SignatureSet::index() const {
  if (!index_) index_ = std::make_unique<SignatureIndex>(signatures_);
  return *index_;
}

SignatureSet SignatureSet::subset_for_app(std::string_view app) const {
  SignatureSet out;
  for (const auto& sig : signatures_) {
    if (sig->app == app) out.add(*sig);
  }
  for (const DependencyEdge& e : edges_) {
    if (out.find(e.pred_id) != nullptr && out.find(e.succ_id) != nullptr) out.add_edge(e);
  }
  return out;
}

void SignatureSet::absorb(const SignatureSet& other) {
  for (const auto& sig : other.all()) add(*sig);
  for (const DependencyEdge& e : other.edges()) add_edge(e);
}

std::vector<std::uint8_t> SignatureSet::serialize() const {
  ByteWriter out;
  out.u32(0x53474953);  // 'SIGS'
  out.u32(1);           // version
  out.u32(static_cast<std::uint32_t>(signatures_.size()));
  for (const auto& sig : signatures_) sig->serialize(out);
  out.u32(static_cast<std::uint32_t>(edges_.size()));
  for (const DependencyEdge& e : edges_) {
    out.str(e.pred_id);
    out.str(e.pred_path);
    out.str(e.succ_id);
    out.str(e.hole);
  }
  return out.take();
}

SignatureSet SignatureSet::deserialize(const std::vector<std::uint8_t>& data) {
  ByteReader in(data);
  if (in.u32() != 0x53474953) throw ParseError("SignatureSet: bad magic");
  if (in.u32() != 1) throw ParseError("SignatureSet: unsupported version");
  SignatureSet out;
  const std::uint32_t nsigs = in.u32();
  for (std::uint32_t i = 0; i < nsigs; ++i) out.add(TransactionSignature::deserialize(in));
  const std::uint32_t nedges = in.u32();
  for (std::uint32_t i = 0; i < nedges; ++i) {
    DependencyEdge e;
    e.pred_id = in.str();
    e.pred_path = in.str();
    e.succ_id = in.str();
    e.hole = in.str();
    out.add_edge(std::move(e));
  }
  return out;
}

}  // namespace appx::core
