// Property-based tests: randomized cross-checks of the foundational engines.
//
//   * the Thompson-NFA regex engine against a naive backtracking reference
//     interpreter over randomly generated pattern ASTs,
//   * JSON dump/parse round-trips over randomly generated documents,
//   * field-template fill/extract round-trips over random templates,
//   * the prefetch scheduler's queue against a stable-sorted-vector model.
//
// All randomness is seeded appx::Rng, so failures are reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "json/json.hpp"
#include "pattern/regex.hpp"
#include "pattern/template.hpp"
#include "util/rng.hpp"

namespace appx {
namespace {

// --- random regex ASTs with a reference matcher -------------------------------------

struct Ast {
  enum class Kind { kChar, kAny, kClass, kConcat, kAlt, kStar, kPlus, kOpt };
  Kind kind = Kind::kChar;
  char ch = 'a';
  std::set<char> cls;
  bool negate = false;
  std::vector<std::unique_ptr<Ast>> children;
};

constexpr const char* kAlphabet = "abc";

std::unique_ptr<Ast> random_ast(Rng& rng, int depth) {
  auto node = std::make_unique<Ast>();
  const int pick = static_cast<int>(rng.uniform_int(0, depth <= 0 ? 2 : 7));
  switch (pick) {
    case 0:
      node->kind = Ast::Kind::kChar;
      node->ch = kAlphabet[rng.index(3)];
      break;
    case 1:
      node->kind = Ast::Kind::kAny;
      break;
    case 2: {
      node->kind = Ast::Kind::kClass;
      node->negate = rng.chance(0.3);
      const std::size_t n = 1 + rng.index(3);
      for (std::size_t i = 0; i < n; ++i) node->cls.insert(kAlphabet[rng.index(3)]);
      break;
    }
    case 3: {
      node->kind = Ast::Kind::kConcat;
      const std::size_t n = 2 + rng.index(2);
      for (std::size_t i = 0; i < n; ++i) node->children.push_back(random_ast(rng, depth - 1));
      break;
    }
    case 4: {
      node->kind = Ast::Kind::kAlt;
      node->children.push_back(random_ast(rng, depth - 1));
      node->children.push_back(random_ast(rng, depth - 1));
      break;
    }
    case 5:
      node->kind = Ast::Kind::kStar;
      node->children.push_back(random_ast(rng, depth - 1));
      break;
    case 6:
      node->kind = Ast::Kind::kPlus;
      node->children.push_back(random_ast(rng, depth - 1));
      break;
    default:
      node->kind = Ast::Kind::kOpt;
      node->children.push_back(random_ast(rng, depth - 1));
      break;
  }
  return node;
}

std::string render(const Ast& node) {
  switch (node.kind) {
    case Ast::Kind::kChar: return std::string(1, node.ch);
    case Ast::Kind::kAny: return ".";
    case Ast::Kind::kClass: {
      std::string out = "[";
      if (node.negate) out += '^';
      for (char c : node.cls) out += c;
      out += ']';
      return out;
    }
    case Ast::Kind::kConcat: {
      std::string out;
      for (const auto& child : node.children) out += render(*child);
      return out;
    }
    case Ast::Kind::kAlt:
      return "(" + render(*node.children[0]) + "|" + render(*node.children[1]) + ")";
    case Ast::Kind::kStar: return "(" + render(*node.children[0]) + ")*";
    case Ast::Kind::kPlus: return "(" + render(*node.children[0]) + ")+";
    case Ast::Kind::kOpt: return "(" + render(*node.children[0]) + ")?";
  }
  return "";
}

// Reference matcher: all end positions reachable by matching `node` at `pos`.
std::set<std::size_t> ref_match(const Ast& node, const std::string& s, std::size_t pos);

std::set<std::size_t> ref_match_seq(const std::vector<std::unique_ptr<Ast>>& seq,
                                    std::size_t index, const std::string& s, std::size_t pos) {
  if (index == seq.size()) return {pos};
  std::set<std::size_t> out;
  for (std::size_t mid : ref_match(*seq[index], s, pos)) {
    const auto rest = ref_match_seq(seq, index + 1, s, mid);
    out.insert(rest.begin(), rest.end());
  }
  return out;
}

std::set<std::size_t> ref_match(const Ast& node, const std::string& s, std::size_t pos) {
  switch (node.kind) {
    case Ast::Kind::kChar:
      if (pos < s.size() && s[pos] == node.ch) return {pos + 1};
      return {};
    case Ast::Kind::kAny:
      if (pos < s.size()) return {pos + 1};
      return {};
    case Ast::Kind::kClass:
      if (pos < s.size() && node.cls.contains(s[pos]) != node.negate) return {pos + 1};
      return {};
    case Ast::Kind::kConcat:
      return ref_match_seq(node.children, 0, s, pos);
    case Ast::Kind::kAlt: {
      auto a = ref_match(*node.children[0], s, pos);
      const auto b = ref_match(*node.children[1], s, pos);
      a.insert(b.begin(), b.end());
      return a;
    }
    case Ast::Kind::kStar:
    case Ast::Kind::kPlus: {
      std::set<std::size_t> out;
      std::set<std::size_t> frontier{pos};
      if (node.kind == Ast::Kind::kStar) out.insert(pos);
      // Iterate to fixpoint; positions only grow or repeat, input is short.
      while (!frontier.empty()) {
        std::set<std::size_t> next;
        for (std::size_t p : frontier) {
          for (std::size_t q : ref_match(*node.children[0], s, p)) {
            if (!out.contains(q)) {
              out.insert(q);
              if (q > p) next.insert(q);  // guard against empty-match loops
            }
          }
        }
        frontier = std::move(next);
      }
      return out;
    }
    case Ast::Kind::kOpt: {
      auto out = ref_match(*node.children[0], s, pos);
      out.insert(pos);
      return out;
    }
  }
  return {};
}

bool ref_full_match(const Ast& node, const std::string& s) {
  return ref_match(node, s, 0).contains(s.size());
}

// Sample a string the AST matches.
std::string sample_match(const Ast& node, Rng& rng) {
  switch (node.kind) {
    case Ast::Kind::kChar: return std::string(1, node.ch);
    case Ast::Kind::kAny: return std::string(1, kAlphabet[rng.index(3)]);
    case Ast::Kind::kClass: {
      if (!node.negate) {
        std::vector<char> members(node.cls.begin(), node.cls.end());
        return std::string(1, members[rng.index(members.size())]);
      }
      for (char c : {'x', 'y', 'z', 'a', 'b', 'c'}) {
        if (!node.cls.contains(c)) return std::string(1, c);
      }
      return "q";
    }
    case Ast::Kind::kConcat: {
      std::string out;
      for (const auto& child : node.children) out += sample_match(*child, rng);
      return out;
    }
    case Ast::Kind::kAlt:
      return sample_match(*node.children[rng.index(2)], rng);
    case Ast::Kind::kStar: {
      std::string out;
      const std::size_t reps = rng.index(3);
      for (std::size_t i = 0; i < reps; ++i) out += sample_match(*node.children[0], rng);
      return out;
    }
    case Ast::Kind::kPlus: {
      std::string out = sample_match(*node.children[0], rng);
      if (rng.chance(0.4)) out += sample_match(*node.children[0], rng);
      return out;
    }
    case Ast::Kind::kOpt:
      return rng.chance(0.5) ? sample_match(*node.children[0], rng) : "";
  }
  return "";
}

std::string random_input(Rng& rng, std::size_t max_len) {
  std::string out;
  const std::size_t n = rng.index(max_len + 1);
  for (std::size_t i = 0; i < n; ++i) out += kAlphabet[rng.index(3)];
  return out;
}

class RegexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegexProperty, AgreesWithReferenceMatcher) {
  Rng rng(GetParam());
  for (int round = 0; round < 60; ++round) {
    const auto ast = random_ast(rng, 3);
    const std::string pattern_text = render(*ast);
    const pattern::Regex re(pattern_text);

    // Positive samples drawn from the AST itself.
    for (int s = 0; s < 4; ++s) {
      const std::string sample = sample_match(*ast, rng);
      if (sample.size() > 16) continue;  // keep the reference matcher fast
      EXPECT_TRUE(re.full_match(sample))
          << "pattern '" << pattern_text << "' must match its own sample '" << sample << "'";
    }
    // Random inputs: engine and reference must agree exactly.
    for (int s = 0; s < 12; ++s) {
      const std::string input = random_input(rng, 8);
      EXPECT_EQ(re.full_match(input), ref_full_match(*ast, input))
          << "pattern '" << pattern_text << "' input '" << input << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// The lazy DFA (longest_prefix_match) and the Thompson-NFA simulation
// (longest_prefix_match_nfa) must agree byte-for-byte on every pattern/input
// pair: the DFA is a cache of the NFA's subset construction, nothing more.
// 10 seeds x 25 patterns x 8 inputs >= 2000 randomized pairs.
class RegexDfaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegexDfaProperty, DfaAgreesWithNfaSimulation) {
  Rng rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    const auto ast = random_ast(rng, 4);
    const std::string pattern_text = render(*ast);
    const pattern::Regex re(pattern_text);

    for (int s = 0; s < 8; ++s) {
      // Mix AST-derived matches (often long) with uniform noise so both
      // accepting and rejecting DFA paths are exercised, cold and warm.
      const std::string input =
          (s % 2 == 0) ? sample_match(*ast, rng) + random_input(rng, 4) : random_input(rng, 12);
      const std::ptrdiff_t nfa = re.longest_prefix_match_nfa(input);
      const std::ptrdiff_t dfa = re.longest_prefix_match(input);
      ASSERT_EQ(dfa, nfa) << "pattern '" << pattern_text << "' input '" << input << "'";

      // A cold copy (empty DFA cache) must also agree.
      const pattern::Regex cold(re);
      ASSERT_EQ(cold.longest_prefix_match(input), nfa)
          << "cold pattern '" << pattern_text << "' input '" << input << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexDfaProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808, 909, 1010));

// --- random JSON round-trips -----------------------------------------------------------

json::Value random_json(Rng& rng, int depth) {
  const int pick = static_cast<int>(rng.uniform_int(0, depth <= 0 ? 4 : 6));
  switch (pick) {
    case 0: return json::Value(nullptr);
    case 1: return json::Value(rng.chance(0.5));
    case 2: return json::Value(rng.uniform_int(-1'000'000, 1'000'000));
    case 3: return json::Value(rng.uniform(-1e6, 1e6));
    case 4: {
      std::string s;
      const std::size_t n = rng.index(12);
      static const char* chars = "abc\"\\\n\t {}[]:,0é";
      for (std::size_t i = 0; i < n; ++i) s += chars[rng.index(16)];
      return json::Value(std::move(s));
    }
    case 5: {
      json::Array arr;
      const std::size_t n = rng.index(5);
      for (std::size_t i = 0; i < n; ++i) arr.push_back(random_json(rng, depth - 1));
      return json::Value(std::move(arr));
    }
    default: {
      json::Object obj;
      const std::size_t n = rng.index(5);
      for (std::size_t i = 0; i < n; ++i) {
        obj["k" + std::to_string(rng.index(10))] = random_json(rng, depth - 1);
      }
      return json::Value(std::move(obj));
    }
  }
}

class JsonProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonProperty, DumpParseRoundTrip) {
  Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    const json::Value v = random_json(rng, 4);
    EXPECT_EQ(json::parse(v.dump()), v) << v.dump();
    EXPECT_EQ(json::parse(v.dump(2)), v) << v.dump(2);
    // Canonical form is a fixpoint.
    EXPECT_EQ(json::parse(v.dump()).dump(), v.dump());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonProperty, ::testing::Values(7, 11, 17, 23, 31));

// --- random template round-trips --------------------------------------------------------

class TemplateProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TemplateProperty, FillExtractFillIsIdentity) {
  Rng rng(GetParam());
  static const char* kSeparators[] = {"/", "-", "?", "&", "=", "://", ".json"};
  for (int round = 0; round < 150; ++round) {
    pattern::FieldTemplate t;
    pattern::Bindings bindings;
    const std::size_t segments = 1 + rng.index(6);
    for (std::size_t i = 0; i < segments; ++i) {
      // Alternate literal separators and holes so extraction is unambiguous.
      t.append_literal(kSeparators[rng.index(7)]);
      const std::string hole = std::string("h").append(std::to_string(i));
      t.append_hole(hole);
      std::string value;
      const std::size_t len = rng.index(6);
      for (std::size_t j = 0; j < len; ++j) value += kAlphabet[rng.index(3)];
      bindings[hole] = value;
    }
    const auto filled = t.fill(bindings);
    ASSERT_TRUE(filled.has_value());
    const auto extracted = t.extract(*filled);
    ASSERT_TRUE(extracted.has_value()) << t.to_display_string() << " vs " << *filled;
    // The extracted bindings may legitimately differ from the originals when
    // a value contains a separator-like prefix, but refilling must reproduce
    // the identical string.
    EXPECT_EQ(t.fill(*extracted).value(), *filled) << t.to_display_string();
    // And the serialized template round-trips.
    ByteWriter w;
    t.serialize(w);
    ByteReader r(w.data());
    EXPECT_EQ(pattern::FieldTemplate::deserialize(r), t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemplateProperty, ::testing::Values(41, 43, 47, 53));

// --- prefetch scheduler against a reference model --------------------------------------

// The scheduler's queue as a vector kept stable-sorted by priority: insert
// after every job of priority >= ours, dequeue the front, evict the back.
struct ReferenceScheduler {
  core::PrefetchScheduler::Weights weights;
  std::size_t max_outstanding;
  std::size_t max_queued;
  std::vector<core::PrefetchJob> queue;
  std::size_t outstanding = 0;
  std::size_t completed = 0;
  std::size_t dropped = 0;

  std::optional<core::PrefetchJob> enqueue(core::PrefetchJob job,
                                           const core::SignatureStats& stats) {
    job.priority = weights.time_weight * stats.avg_response_time_ms(job.sig_id) +
                   weights.hit_weight * stats.hit_rate(job.sig_id);
    const auto pos = std::find_if(queue.begin(), queue.end(), [&](const core::PrefetchJob& o) {
      return o.priority < job.priority;
    });
    queue.insert(pos, std::move(job));
    if (max_queued > 0 && queue.size() > max_queued) {
      core::PrefetchJob evicted = std::move(queue.back());
      queue.pop_back();
      return evicted;
    }
    return std::nullopt;
  }

  std::optional<core::PrefetchJob> dequeue() {
    if (queue.empty() || outstanding >= max_outstanding) return std::nullopt;
    core::PrefetchJob job = std::move(queue.front());
    queue.erase(queue.begin());
    ++outstanding;
    return job;
  }
};

// Job identity for comparisons: the cache key carries a unique serial.
std::string id_of(const std::optional<core::PrefetchJob>& job) {
  return job ? job->cache_key : "(none)";
}

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperty, MatchesStableSortedVector) {
  Rng rng(GetParam());
  // Few signatures and integral samples: most enqueues tie with a queued job.
  static const char* kSigs[] = {"a", "b", "c", "d"};
  for (std::size_t max_queued = 0; max_queued <= 4; ++max_queued) {
    core::SignatureStats stats;
    const core::PrefetchScheduler::Weights weights{1.0, rng.chance(0.5) ? 200.0 : 0.0};
    const std::size_t max_outstanding = 1 + rng.index(4);
    obs::Gauge queued_gauge;
    obs::Gauge outstanding_gauge;
    {
      core::PrefetchScheduler sched(weights, max_outstanding, max_queued);
      sched.bind_metrics({&queued_gauge, &outstanding_gauge});
      ReferenceScheduler ref{weights, max_outstanding, max_queued, {}};
      std::size_t serial = 0;
      for (int step = 0; step < 400; ++step) {
        const std::size_t op = rng.index(10);
        if (op < 4) {
          core::PrefetchJob job;
          job.sig_id = kSigs[rng.index(4)];
          job.cache_key = std::string("job").append(std::to_string(serial++));
          const auto got = sched.enqueue(job, stats);
          const auto want = ref.enqueue(job, stats);
          ASSERT_EQ(id_of(got), id_of(want)) << "evicted job, step " << step;
          if (got) {
            EXPECT_EQ(got->priority, want->priority);
          }
        } else if (op < 7) {
          const auto got = sched.dequeue();
          const auto want = ref.dequeue();
          ASSERT_EQ(id_of(got), id_of(want)) << "dequeued job, step " << step;
          if (got) {
            EXPECT_EQ(got->priority, want->priority);
          }
        } else if (op < 9) {
          // Resolve a dequeued job exactly once, as the engine must.
          if (ref.outstanding == 0) continue;
          --ref.outstanding;
          if (op == 7) {
            sched.on_completed();
            ++ref.completed;
          } else {
            sched.on_dropped();
            ++ref.dropped;
          }
        } else {
          // Move a signature's priority; already-queued jobs keep theirs.
          const char* sig = kSigs[rng.index(4)];
          if (rng.chance(0.5)) {
            stats.record_response_time(sig, static_cast<double>(rng.uniform_int(0, 3) * 10));
          } else {
            stats.record_lookup(sig, rng.chance(0.5));
          }
        }
        ASSERT_EQ(sched.queued(), ref.queue.size());
        ASSERT_EQ(sched.outstanding(), ref.outstanding);
        ASSERT_EQ(sched.completed(), ref.completed);
        ASSERT_EQ(sched.dropped(), ref.dropped);
        ASSERT_EQ(queued_gauge.value(), static_cast<std::int64_t>(ref.queue.size()));
        ASSERT_EQ(outstanding_gauge.value(), static_cast<std::int64_t>(ref.outstanding));
      }
      // Free the window, then drain resolving each job at once: the
      // remaining order must match too.
      for (; ref.outstanding > 0; --ref.outstanding) sched.on_dropped();
      while (true) {
        const auto got = sched.dequeue();
        const auto want = ref.dequeue();
        ASSERT_EQ(id_of(got), id_of(want));
        if (!got) break;
        sched.on_completed();
        --ref.outstanding;
      }
      ASSERT_EQ(sched.queued(), 0u);
    }
    // A destroyed scheduler gives back its share of the shared gauges.
    EXPECT_EQ(queued_gauge.value(), 0);
    EXPECT_EQ(outstanding_gauge.value(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Values(3, 7, 19, 61, 97, 131, 257, 509, 1021, 2053));

}  // namespace
}  // namespace appx
