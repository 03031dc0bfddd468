#include "harness/spans.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <type_traits>
#include <utility>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace perfbench {

using appx::fnv1a;
using appx::hash_combine;

std::uint64_t request_key(const appx::http::Request& request) {
  std::string target;
  request.uri.path_and_query_into(target);
  std::uint64_t h = fnv1a(request.method);
  h = hash_combine(h, fnv1a(request.uri.host));
  h = hash_combine(h, fnv1a(target));
  return hash_combine(h, fnv1a(request.body));
}

std::uint64_t user_key(std::string_view user) { return fnv1a(user); }

namespace {

using Key = std::pair<std::uint64_t, std::uint64_t>;  // (user, request key)

bool in_window(std::int64_t t, std::int64_t start, std::int64_t end) {
  return t >= start && t < end;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Indices of `items` grouped by key, each group in ascending `time` order.
template <typename T, typename KeyFn, typename TimeFn>
std::map<Key, std::vector<std::size_t>> group(const std::vector<T>& items, KeyFn key_of,
                                              TimeFn time_of) {
  std::map<Key, std::vector<std::size_t>> out;
  for (std::size_t i = 0; i < items.size(); ++i) out[key_of(items[i])].push_back(i);
  for (auto& [key, idx] : out) {
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return time_of(items[a]) < time_of(items[b]);
    });
  }
  return out;
}

}  // namespace

LayerSamples join_spans(const std::vector<ClientSpan>& clients,
                        const std::vector<EngineSpan>& engine,
                        const std::vector<EmittedJob>& emitted, std::int64_t window_start_ns,
                        std::int64_t window_end_ns) {
  LayerSamples out;
  const auto span_key = [](const EngineSpan& s) { return Key{s.user, s.key}; };
  const auto span_start = [](const EngineSpan& s) { return s.start_ns; };

  // Per-kind span lists, then per-(user, key) order within each kind.
  std::vector<EngineSpan> requests, responses, completions;
  for (const EngineSpan& s : engine) {
    switch (s.kind) {
      case SpanKind::kRequest: requests.push_back(s); break;
      case SpanKind::kResponse: responses.push_back(s); break;
      case SpanKind::kPrefetchResponse:
      case SpanKind::kPrefetchDropped: completions.push_back(s); break;
      case SpanKind::kPump: break;
    }
    if (in_window(s.start_ns, window_start_ns, window_end_ns)) {
      out.engine_ms_total += ms(s.end_ns - s.start_ns);
      out.jobs_emitted += s.jobs;
      const double d = us(s.end_ns - s.start_ns);
      if (s.kind == SpanKind::kRequest) out.on_request_us.push_back(d);
      if (s.kind == SpanKind::kResponse) out.on_response_us.push_back(d);
      if (s.kind == SpanKind::kPrefetchResponse) {
        out.on_prefetch_response_us.push_back(d);
        out.prefetch_fetch_ms.push_back(s.fetch_ms);
      }
    }
  }

  // Prefetch jobs: the k-th job emitted for (user, key) is resolved by the
  // k-th completion or drop for it. Unresolved jobs stay in flight forever.
  struct Flight {
    std::int64_t emitted_ns;
    std::int64_t resolved_ns;  // max() while unresolved
  };
  std::map<Key, std::vector<Flight>> flights;
  {
    const auto jobs = group(
        emitted, [](const EmittedJob& j) { return Key{j.user, j.key}; },
        [](const EmittedJob& j) { return j.at_ns; });
    const auto done = group(completions, span_key, span_start);
    for (const auto& [key, idx] : jobs) {
      const auto it = done.find(key);
      std::vector<Flight>& list = flights[key];
      for (std::size_t k = 0; k < idx.size(); ++k) {
        Flight f{emitted[idx[k]].at_ns, std::numeric_limits<std::int64_t>::max()};
        if (it != done.end() && k < it->second.size()) {
          const EngineSpan& c = completions[it->second[k]];
          f.resolved_ns = c.start_ns;
          if (c.kind == SpanKind::kPrefetchResponse &&
              in_window(c.start_ns, window_start_ns, window_end_ns)) {
            const auto fetch_start =
                c.start_ns - static_cast<std::int64_t>(c.fetch_ms * 1e6);
            out.prefetch_queue_wait_ms.push_back(ms(fetch_start - f.emitted_ns));
          }
        }
        list.push_back(f);
      }
    }
  }

  // Client requests <-> on_request spans <-> on_response spans.
  const auto client_groups = group(
      clients, [](const ClientSpan& c) { return Key{c.user, c.key}; },
      [](const ClientSpan& c) { return c.send_ns; });
  const auto request_groups = group(requests, span_key, span_start);
  const auto response_groups = group(responses, span_key, span_start);
  std::map<Key, std::vector<std::int64_t>> served_at;  // hits, by on_request start
  for (const auto& [key, req_idx] : request_groups) {
    for (const std::size_t r : req_idx) {
      if (requests[r].served) served_at[key].push_back(requests[r].start_ns);
    }
  }
  for (const auto& [key, req_idx] : request_groups) {
    const auto cit = client_groups.find(key);
    const std::size_t clients_for_key = cit == client_groups.end() ? 0 : cit->second.size();
    if (req_idx.size() > clients_for_key) {
      out.engine_spans_unmatched += req_idx.size() - clients_for_key;
    }
  }

  for (const auto& [key, idx] : client_groups) {
    const auto rit = request_groups.find(key);
    const auto pit = response_groups.find(key);
    std::size_t next_response = 0;  // misses consume on_response spans in order
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const ClientSpan& c = clients[idx[k]];
      const EngineSpan* req =
          rit != request_groups.end() && k < rit->second.size() ? &requests[rit->second[k]]
                                                                : nullptr;
      const EngineSpan* resp = nullptr;
      if (req != nullptr && !req->served && pit != response_groups.end() &&
          next_response < pit->second.size()) {
        resp = &responses[pit->second[next_response++]];
      }
      if (!c.in_window || c.recv_ns == 0) continue;
      ++out.client_requests;
      if (req == nullptr) continue;
      ++out.joined;
      out.net_in_us.push_back(us(req->start_ns - c.send_ns));
      if (req->served) {
        out.net_out_us.push_back(us(c.recv_ns - req->end_ns));
        continue;
      }
      ++out.misses;
      if (resp != nullptr) {
        out.upstream_fetch_ms.push_back(ms(resp->start_ns - req->end_ns));
        out.net_out_us.push_back(us(c.recv_ns - resp->end_ns));
      }
      if (const auto fit = flights.find(key); fit != flights.end()) {
        const bool late = std::any_of(fit->second.begin(), fit->second.end(), [&](const Flight& f) {
          return f.emitted_ns < req->start_ns && f.resolved_ns > req->start_ns;
        });
        if (late) ++out.late_misses;
      }
    }
  }

  // Useful prefetches: completed inside the window and served to the client
  // by a later cache hit on the same key.
  for (const EngineSpan& c : completions) {
    if (c.kind != SpanKind::kPrefetchResponse ||
        !in_window(c.start_ns, window_start_ns, window_end_ns)) {
      continue;
    }
    ++out.prefetches_completed;
    const auto it = served_at.find(Key{c.user, c.key});
    if (it != served_at.end() &&
        std::any_of(it->second.begin(), it->second.end(),
                    [&](std::int64_t t) { return t > c.start_ns; })) {
      ++out.prefetches_useful;
    }
  }
  return out;
}

namespace {

static_assert(std::is_trivially_copyable_v<EngineSpan>);
static_assert(std::is_trivially_copyable_v<EmittedJob>);

template <typename T>
void write_vector(std::ofstream& out, const std::vector<T>& items) {
  const std::uint64_t n = items.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(items.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
void read_vector(std::ifstream& in, std::vector<T>* items) {
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  if (!in || n > (std::uint64_t{1} << 32)) throw appx::Error("span file: bad record count");
  items->resize(n);
  in.read(reinterpret_cast<char*>(items->data()), static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) throw appx::Error("span file: truncated");
}

}  // namespace

void write_span_file(const std::string& path, const std::vector<EngineSpan>& spans,
                     const std::vector<EmittedJob>& jobs) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  write_vector(out, spans);
  write_vector(out, jobs);
  if (!out) throw appx::Error("span file: cannot write " + path);
}

void read_span_file(const std::string& path, std::vector<EngineSpan>* spans,
                    std::vector<EmittedJob>* jobs) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw appx::Error("span file: cannot open " + path);
  read_vector(in, spans);
  read_vector(in, jobs);
}

}  // namespace perfbench
