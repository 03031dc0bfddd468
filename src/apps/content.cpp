#include "apps/content.hpp"

#include "util/hash.hpp"

namespace appx::apps {

std::string derive_value(ProducesSpec::Kind kind, std::string_view endpoint_label,
                         std::string_view seed, std::size_t index, std::uint64_t epoch) {
  std::string material;
  material.reserve(endpoint_label.size() + seed.size() + 24);
  material += endpoint_label;
  material += '|';
  material += seed;
  material += '|';
  material += std::to_string(index);
  material += '|';
  material += std::to_string(epoch);

  switch (kind) {
    case ProducesSpec::Kind::kId:
    // A kUrl value's variable part is the element's id; the caller (the
    // origin server) prefixes the spec's url_base.
    case ProducesSpec::Kind::kUrl:
      return short_digest(material, 8);
    case ProducesSpec::Kind::kName:
      return "n_" + short_digest("name:" + material, 6);
    case ProducesSpec::Kind::kNumber:
      return std::to_string(fnv1a("num:" + material) % 5000);
    case ProducesSpec::Kind::kText:
      return "t_" + short_digest("text:" + material, 16);
  }
  return short_digest(material, 8);
}

}  // namespace appx::apps
