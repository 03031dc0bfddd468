// Durable learned state (DESIGN.md §5k): snapshot container robustness and
// engine-level warm restart / user handoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/learning.hpp"
#include "core/persist.hpp"
#include "core/proxy.hpp"
#include "core/sharded_proxy.hpp"
#include "util/hash.hpp"
#include "wish_fixture.hpp"

namespace appx::core {
namespace {

using testfix::make_feed_request;
using testfix::make_feed_response;
using testfix::make_product_request;
using testfix::make_product_response;
using testfix::make_wish_set;

ByteWriter payload_of(std::string_view text) {
  ByteWriter w;
  w.raw(text.data(), text.size());
  return w;
}

std::vector<std::uint8_t> two_section_blob() {
  SnapshotBuilder builder;
  builder.add_raw("alpha", 1, payload_of("aaaa"));
  builder.add_raw("beta", 3, payload_of("bb"));
  return builder.finish();
}

// Re-stamp the trailing checksum after test-side surgery on the blob, so the
// corruption under test (and only it) is what the parser sees.
void refresh_checksum(std::vector<std::uint8_t>& blob) {
  const std::uint64_t sum = fnv1a(blob.data(), blob.size() - 8);
  for (int i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

// --- container robustness --------------------------------------------------------

TEST(SnapshotContainer, RoundTripsSectionsAndVersions) {
  const auto blob = two_section_blob();
  const SnapshotView view(blob);
  EXPECT_EQ(view.container_version(), kSnapshotFormatVersion);
  ASSERT_EQ(view.section_count(), 2u);
  const SnapshotView::Section* alpha = view.find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->version, 1u);
  EXPECT_EQ(std::string_view(reinterpret_cast<const char*>(alpha->data), alpha->size), "aaaa");
  const SnapshotView::Section* beta = view.find("beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->version, 3u);
  EXPECT_EQ(view.find("gamma"), nullptr);
}

TEST(SnapshotContainer, EmptySnapshotParses) {
  const auto blob = SnapshotBuilder().finish();
  EXPECT_EQ(SnapshotView(blob).section_count(), 0u);
}

TEST(SnapshotContainer, TruncationIsCorruptNotACrash) {
  const auto blob = two_section_blob();
  // Every proper prefix must be rejected cleanly — a torn write can stop at
  // any byte.
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, blob.size() / 2, blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + static_cast<long>(len));
    EXPECT_THROW(SnapshotView{cut}, SnapshotCorruptError) << "prefix of " << len;
  }
}

TEST(SnapshotContainer, BitFlipFailsTheChecksum) {
  auto blob = two_section_blob();
  blob[blob.size() / 2] ^= 0x40;
  EXPECT_THROW(SnapshotView{blob}, SnapshotCorruptError);
}

TEST(SnapshotContainer, BadMagicIsCorrupt) {
  auto blob = two_section_blob();
  blob[0] = 'Z';
  EXPECT_THROW(SnapshotView{blob}, SnapshotCorruptError);
}

TEST(SnapshotContainer, FutureContainerVersionIsAnExplicitError) {
  auto blob = two_section_blob();
  // Container version is the LE u32 right after the 8-byte magic.
  blob[8] = static_cast<std::uint8_t>(kSnapshotFormatVersion + 1);
  refresh_checksum(blob);
  EXPECT_THROW(SnapshotView{blob}, SnapshotVersionError);
}

TEST(SnapshotContainer, LyingSectionLengthIsCorrupt) {
  SnapshotBuilder builder;
  builder.add_raw("alpha", 1, payload_of("aaaa"));
  auto blob = builder.finish();
  // Grow the section's declared length past the end of the file.
  const char* name = "alpha";
  auto it = std::search(blob.begin(), blob.end(), name, name + 5);
  ASSERT_NE(it, blob.end());
  // str is u32 length + bytes; the section version (u32) follows, then the
  // u64 payload length.
  const std::size_t len_at = static_cast<std::size_t>(it - blob.begin()) + 5 + 4;
  blob[len_at] = 0xff;
  refresh_checksum(blob);
  EXPECT_THROW(SnapshotView{blob}, SnapshotCorruptError);
}

TEST(SnapshotContainer, UnknownAndFutureSectionsLeaveComponentsCold) {
  SnapshotBuilder builder;
  builder.add_raw("known", 1, payload_of("data"));
  builder.add_raw("from.the.future", 9, payload_of("????"));
  const auto blob = builder.finish();
  const SnapshotView view(blob);

  std::string seen;
  PersistableFn known("known", 2, [](ByteWriter&) {},
                      [&seen](ByteReader& in, std::uint32_t version) {
                        EXPECT_EQ(version, 1u);  // the version it was written with
                        seen = std::string(reinterpret_cast<const char*>(in.cursor()), 4);
                      });
  EXPECT_TRUE(view.restore_into(known));
  EXPECT_EQ(seen, "data");

  // Same name, but the payload was written by a newer component revision.
  PersistableFn stale("from.the.future", 2, [](ByteWriter&) {},
                      [](ByteReader&, std::uint32_t) { FAIL() << "must stay cold"; });
  EXPECT_FALSE(view.restore_into(stale));
  // Absent name: cold, not an error.
  PersistableFn absent("never.written", 1, [](ByteWriter&) {}, {});
  EXPECT_FALSE(view.restore_into(absent));
}

TEST(SnapshotContainer, DecodeErrorInsideSectionIsCorrupt) {
  SnapshotBuilder builder;
  builder.add_raw("tiny", 1, payload_of("ab"));
  const auto blob = builder.finish();
  const SnapshotView view(blob);
  PersistableFn overreader("tiny", 1, [](ByteWriter&) {},
                           [](ByteReader& in, std::uint32_t) { in.u64(); });
  EXPECT_THROW(view.restore_into(overreader), SnapshotCorruptError);
}

// --- engine snapshot / restore ---------------------------------------------------

class PersistEngineTest : public ::testing::Test {
 protected:
  PersistEngineTest() : set_(make_wish_set()), restored_set_(make_wish_set()) {
    config_.default_expiration = seconds(3600);
    engine_ = std::make_unique<ProxyEngine>(&set_, &config_, 7);
  }

  // Feed + first product: resolves wildcards, learns the dependency flows and
  // feeds the value model — the state a warm restart must preserve.
  void teach(ProxyLike& engine, const std::string& user) {
    run(engine, user, make_feed_request(), make_feed_response({"09cf", "3gf3"}), 0);
    run(engine, user, make_product_request("09cf"), make_product_response("Silk", 1), 1000);
  }

  // After a feed re-arms the instances, the sibling product must be a hit —
  // i.e. the engine acts on learned state instead of relearning it.
  bool serves_sibling_from_cache(ProxyLike& engine, const std::string& user, SimTime base) {
    run(engine, user, make_feed_request(), make_feed_response({"09cf", "3gf3"}), base);
    bool hit = false;
    run(engine, user, make_product_request("3gf3"), make_product_response("Silk", 1), base + 1,
        &hit);
    return hit;
  }

  void run(ProxyLike& engine, const std::string& user, const http::Request& req,
           const http::Response& origin_response, SimTime now, bool* hit = nullptr) {
    Session session = engine.session(user, now);
    Decision d = session.on_request(req, now);
    if (hit != nullptr) *hit = d.served != nullptr;
    std::vector<PrefetchJob> jobs = std::move(d.prefetches);
    if (!d.served) {
      Decision r = session.on_response(req, origin_response, now);
      for (auto& job : r.prefetches) jobs.push_back(std::move(job));
    }
    while (!jobs.empty()) {
      std::vector<PrefetchJob> next;
      for (const auto& job : jobs) {
        http::Response resp;
        if (job.request.uri.path == "/product/get") {
          resp = make_product_response("m_" + job.request.form_fields()[0].second, 1500);
        } else if (job.request.uri.path == "/img") {
          resp.opaque_payload = kilobytes(300);
        } else {
          resp.body = "{}";
        }
        Decision f = session.on_prefetch_response(job, resp, now, 165.0);
        for (auto& follow : f.prefetches) next.push_back(std::move(follow));
      }
      for (auto& job : session.take_prefetches(now)) next.push_back(std::move(job));
      jobs = std::move(next);
    }
  }

  std::vector<std::uint8_t> snapshot(const ProxyLike& engine) {
    SnapshotBuilder builder;
    engine.snapshot_to(builder);
    return builder.finish();
  }

  SignatureSet set_;
  SignatureSet restored_set_;  // restored engines need their own copy
  ProxyConfig config_;
  std::unique_ptr<ProxyEngine> engine_;
};

TEST_F(PersistEngineTest, WarmRestartActsOnRestoredLearning) {
  teach(*engine_, "u1");
  const auto blob = snapshot(*engine_);

  ProxyEngine fresh(&restored_set_, &config_, 7);
  // Cold control: without the snapshot the sibling product is a miss.
  EXPECT_FALSE(serves_sibling_from_cache(fresh, "u1", minutes(10)));

  ProxyEngine warmed(&restored_set_, &config_, 7);
  const SnapshotView view(blob);
  EXPECT_EQ(warmed.restore_from(view, minutes(10)), 1u);
  EXPECT_TRUE(serves_sibling_from_cache(warmed, "u1", minutes(10)));
}

TEST_F(PersistEngineTest, SnapshotRoundTripIsByteIdentical) {
  teach(*engine_, "u1");
  const auto blob = snapshot(*engine_);

  ProxyEngine warmed(&restored_set_, &config_, 7);
  warmed.restore_from(SnapshotView(blob), minutes(10));
  // Persist the restored engine: learned sections must reproduce the exact
  // bytes (resolved wildcards, flows, EWMAs, counters — nothing lossy).
  const auto reblob = snapshot(warmed);
  EXPECT_EQ(blob, reblob);
}

TEST_F(PersistEngineTest, RestoreIsMergeNotReplace) {
  teach(*engine_, "u1");
  const auto blob = snapshot(*engine_);
  ProxyEngine warmed(&restored_set_, &config_, 7);
  teach(warmed, "u2");  // pre-existing local user
  warmed.restore_from(SnapshotView(blob), minutes(10));
  EXPECT_TRUE(serves_sibling_from_cache(warmed, "u1", minutes(10)));
  EXPECT_TRUE(serves_sibling_from_cache(warmed, "u2", minutes(20)));
}

TEST_F(PersistEngineTest, FutureUsersSectionLeavesUsersCold) {
  teach(*engine_, "u1");
  SnapshotBuilder builder;
  engine_->snapshot_to(builder);
  // Re-render with the users section replaced by a future revision.
  SnapshotBuilder future;
  ByteWriter bogus;
  bogus.u32(1);
  future.add_raw("users", ProxyEngine::kUsersSectionVersion + 1, bogus);
  ProxyEngine warmed(&restored_set_, &config_, 7);
  EXPECT_EQ(warmed.restore_from(SnapshotView(future.finish()), minutes(10)), 0u);
}

TEST_F(PersistEngineTest, ExportImportHandsUserToAnotherEngine) {
  teach(*engine_, "mover");
  EXPECT_TRUE(engine_->export_user("never-seen").empty());
  const std::vector<std::uint8_t> shard = engine_->export_user("mover");
  ASSERT_FALSE(shard.empty());

  ProxyEngine successor(&restored_set_, &config_, 7);
  EXPECT_TRUE(successor.import_user(shard, minutes(10)));
  EXPECT_TRUE(serves_sibling_from_cache(successor, "mover", minutes(10)));
}

TEST_F(PersistEngineTest, LegacyBudgetSpendIsReadAndDropped) {
  // "users" v1 entries open with a u64 that was the removed budget cliff's
  // byte spend. Hand-build an entry whose spend is non-zero: it must restore,
  // and the re-persisted entry carries 0 there and nothing else changed.
  teach(*engine_, "mover");
  const std::vector<std::uint8_t> original = engine_->export_user("mover");
  const SnapshotView view(original);
  const SnapshotView::Section* section = view.find("user");
  ASSERT_NE(section, nullptr);
  ByteReader in(section->data, section->size);
  const std::string name = in.str();
  const std::uint64_t len = in.u64();
  ByteReader payload(in.cursor(), len);
  EXPECT_EQ(payload.u64(), 0u);

  ByteWriter entry;
  entry.str(name);
  entry.u64(len);
  entry.u64(123456);  // a spend the parent would have written
  entry.raw(payload.cursor(), payload.remaining());
  SnapshotBuilder legacy;
  legacy.add_raw("user", ProxyEngine::kUsersSectionVersion, entry);

  ProxyEngine successor(&restored_set_, &config_, 7);
  ASSERT_TRUE(successor.import_user(legacy.finish(), minutes(10)));
  EXPECT_EQ(successor.export_user("mover"), original);
  EXPECT_TRUE(serves_sibling_from_cache(successor, "mover", minutes(10)));
}

TEST_F(PersistEngineTest, ImportRejectsCorruptBlobsCleanly) {
  teach(*engine_, "mover");
  auto shard = engine_->export_user("mover");
  shard[shard.size() / 2] ^= 0x10;
  ProxyEngine successor(&restored_set_, &config_, 7);
  EXPECT_THROW(successor.import_user(shard, 0), SnapshotCorruptError);
  // The failed import left no trace.
  EXPECT_EQ(successor.user_count(), 0u);
}

TEST_F(PersistEngineTest, SingleShardSnapshotRestoresIntoShardedEngine) {
  teach(*engine_, "u1");
  teach(*engine_, "u2");
  const auto blob = snapshot(*engine_);

  EngineOptions options;
  options.shards = 3;
  ShardedProxyEngine fleet(&restored_set_, &config_, options);
  EXPECT_EQ(fleet.restore_from(SnapshotView(blob), minutes(10)), 2u);
  // Users land on whatever shard the fleet's hash picks; both serve warm.
  EXPECT_TRUE(serves_sibling_from_cache(fleet, "u1", minutes(10)));
  EXPECT_TRUE(serves_sibling_from_cache(fleet, "u2", minutes(20)));
}

TEST_F(PersistEngineTest, ShardedSnapshotRestoresIntoSingleEngine) {
  EngineOptions options;
  options.shards = 3;
  ShardedProxyEngine fleet(&set_, &config_, options);
  teach(fleet, "u1");
  teach(fleet, "u2");
  teach(fleet, "u3");
  SnapshotBuilder builder;
  fleet.snapshot_to(builder);

  ProxyEngine single(&restored_set_, &config_, 7);
  EXPECT_EQ(single.restore_from(SnapshotView(builder.finish()), minutes(10)), 3u);
  EXPECT_TRUE(serves_sibling_from_cache(single, "u2", minutes(10)));
}

// --- learning-state payloads -------------------------------------------------------

void write_bindings(ByteWriter& out, const Bindings& bindings) {
  out.u32(static_cast<std::uint32_t>(bindings.size()));
  for (const auto& [k, v] : bindings) {
    out.str(k);
    out.str(v);
  }
}

void write_strings(ByteWriter& out, const std::vector<std::string>& items) {
  out.u32(static_cast<std::uint32_t>(items.size()));
  for (const std::string& item : items) out.str(item);
}

TEST(LearningPersist, RestoredEngineRepersistsByteIdentically) {
  const SignatureSet set = make_wish_set();
  LearningEngine taught(&set);
  taught.observe(make_feed_request(), make_feed_response({"a", "b", "c"}));
  taught.observe(make_product_request("a", /*with_credit=*/true), make_product_response("m", 1));
  taught.observe(make_product_request("b"), make_product_response("n", 2));  // no credit_id
  ByteWriter wildcards;
  ByteWriter flows;
  taught.persist_wildcards(wildcards);
  taught.persist_flows(flows);

  LearningEngine restored(&set);
  ByteReader wildcards_in(wildcards.data());
  restored.restore_wildcards(wildcards_in, LearningEngine::kWildcardsPersistVersion);
  ByteReader flows_in(flows.data());
  restored.restore_flows(flows_in, LearningEngine::kFlowsPersistVersion);
  ByteWriter wildcards_again;
  ByteWriter flows_again;
  restored.persist_wildcards(wildcards_again);
  restored.persist_flows(flows_again);
  EXPECT_EQ(wildcards_again.data(), wildcards.data());
  EXPECT_EQ(flows_again.data(), flows.data());

  std::size_t ready = 0;
  for (const auto& sig : set.all()) {
    const auto before = taught.instances_of(sig->id);
    const auto after = restored.instances_of(sig->id);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      ASSERT_EQ(after[i]->ready(), before[i]->ready());
      if (!before[i]->ready()) continue;
      ++ready;
      EXPECT_EQ(after[i]->materialize().serialize(), before[i]->materialize().serialize());
    }
  }
  EXPECT_GT(ready, 0u);
}

// v1 flows carry each instance's merged (dependency + run-time) values. A
// run-time value found there but not in the wildcards section still reaches
// the restored instances.
TEST(LearningPersist, RuntimeValueOnlyInFlowsIsRestored) {
  const SignatureSet set = make_wish_set();
  const auto* product = set.find_by_label("wish.product");
  const auto match = product->match_ex(make_product_request("x"));
  ASSERT_TRUE(match && match->bindings.contains("wish.cookie"));
  Bindings runtime = match->bindings;
  runtime.erase("wish.product.cid");
  runtime.erase("wish.cookie");

  ByteWriter wildcards;
  wildcards.u32(1);
  wildcards.str(product->id);
  wildcards.u8(1);
  write_bindings(wildcards, runtime);
  write_strings(wildcards, match->absent_optional);
  ByteWriter flows;
  flows.u32(1);
  flows.str(product->id);
  flows.u32(1);
  write_bindings(flows, {{"wish.product.cid", "x"}});
  write_bindings(flows, match->bindings);
  write_strings(flows, match->absent_optional);

  LearningEngine engine(&set);
  ByteReader wildcards_in(wildcards.data());
  engine.restore_wildcards(wildcards_in, 1);
  ByteReader flows_in(flows.data());
  engine.restore_flows(flows_in, 1);
  const auto instances = engine.instances_of(product->id);
  ASSERT_EQ(instances.size(), 1u);
  ASSERT_TRUE(instances[0]->ready());
  EXPECT_EQ(instances[0]->materialize().serialize(), make_product_request("x").serialize());
}

}  // namespace
}  // namespace appx::core
