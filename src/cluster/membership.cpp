#include "cluster/membership.hpp"

#include <unordered_set>

#include "json/json.hpp"
#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace appx::cluster {

Membership Membership::parse(std::string_view json_text) {
  const json::Value doc = json::parse(json_text);
  if (!doc.is_object()) throw InvalidArgumentError("Membership: document is not an object");
  Membership m;
  const json::Value* gen = doc.find("generation");
  if (gen == nullptr || !gen->is_int() || gen->as_int() < 0) {
    throw InvalidArgumentError("Membership: missing or invalid generation");
  }
  m.generation_ = static_cast<std::uint64_t>(gen->as_int());
  const json::Value* nodes = doc.find("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->size() == 0) {
    throw InvalidArgumentError("Membership: missing or empty nodes list");
  }
  std::unordered_set<std::string_view> seen;
  for (std::size_t i = 0; i < nodes->size(); ++i) {
    const json::Value& entry = nodes->at(i);
    if (!entry.is_object()) throw InvalidArgumentError("Membership: node is not an object");
    MemberNode node;
    const json::Value* name = entry.find("name");
    const json::Value* host = entry.find("host");
    const json::Value* port = entry.find("port");
    if (name == nullptr || !name->is_string() || name->as_string().empty()) {
      throw InvalidArgumentError("Membership: node without a name");
    }
    if (host == nullptr || !host->is_string() || host->as_string().empty()) {
      throw InvalidArgumentError("Membership: node without a host");
    }
    if (port == nullptr || !port->is_int() || port->as_int() < 0 || port->as_int() > 65535) {
      throw InvalidArgumentError("Membership: node without a valid port");
    }
    node.name = name->as_string();
    node.host = host->as_string();
    node.port = static_cast<std::uint16_t>(port->as_int());
    m.nodes_.push_back(std::move(node));
  }
  for (const MemberNode& node : m.nodes_) {
    if (!seen.insert(node.name).second) {
      throw InvalidArgumentError("Membership: duplicate node name: " + node.name);
    }
  }
  return m;
}

Membership Membership::load(const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  return parse(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

std::string Membership::dump() const {
  json::Array nodes;
  for (const MemberNode& node : nodes_) {
    json::Object entry;
    entry.emplace("name", node.name);
    entry.emplace("host", node.host);
    entry.emplace("port", static_cast<std::int64_t>(node.port));
    nodes.emplace_back(std::move(entry));
  }
  json::Object doc;
  doc.emplace("generation", static_cast<std::int64_t>(generation_));
  doc.emplace("nodes", json::Value(std::move(nodes)));
  return json::Value(std::move(doc)).dump(2);
}

const MemberNode* Membership::find(std::string_view name) const {
  for (const MemberNode& node : nodes_) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

Ring Membership::ring(std::size_t vnodes) const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const MemberNode& node : nodes_) names.push_back(node.name);
  return Ring(std::move(names), vnodes);
}

}  // namespace appx::cluster
