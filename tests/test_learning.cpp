// Unit tests for dynamic learning (paper §4.2, Figs. 6-8): predecessor and
// successor learning, instance replication, branch-condition adaptation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/learning.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "wish_fixture.hpp"

namespace appx::core {
namespace {

using testfix::make_feed_request;
using testfix::make_feed_response;
using testfix::make_product_request;
using testfix::make_product_response;
using testfix::make_wish_set;

class LearningTest : public ::testing::Test {
 protected:
  LearningTest() : set_(make_wish_set()), engine_(&set_) {}

  SignatureSet set_;
  LearningEngine engine_;
};

TEST_F(LearningTest, UnknownTransactionIsIgnored) {
  http::Request req;
  req.uri = http::Uri::parse("https://elsewhere.com/unknown");
  http::Response resp;
  EXPECT_TRUE(engine_.observe(req, resp).empty());
  EXPECT_EQ(engine_.stats().transactions_observed, 1u);
  EXPECT_EQ(engine_.stats().signature_matches, 0u);
}

TEST_F(LearningTest, PredecessorAloneDoesNotReadyInstances) {
  // The feed response provides cids, but the successor's run-time holes
  // (cookie, client, version...) are still unknown -> nothing ready.
  const auto ready = engine_.observe(make_feed_request(), make_feed_response({"09cf", "3gf3"}));
  EXPECT_TRUE(ready.empty());
  // Instances were created but are incomplete.
  const auto* product = set_.find_by_label("wish.product");
  EXPECT_EQ(engine_.instances_of(product->id).size(), 2u);
  for (const auto* instance : engine_.instances_of(product->id)) {
    EXPECT_FALSE(instance->ready());
    EXPECT_TRUE(instance->dependency_bindings().contains("wish.product.cid"))
        << "dependency hole should already be bound";
  }
}

TEST_F(LearningTest, SuccessorObservationCompletesInstances) {
  engine_.observe(make_feed_request(), make_feed_response({"09cf", "3gf3", "vm98"}));
  // Client now issues a real product request for one of the ids; the other
  // two instances learn the run-time values and become ready.
  const auto ready =
      engine_.observe(make_product_request("09cf"), make_product_response("Silk", 1200));

  std::vector<std::string> cids;
  for (const auto& rp : ready) {
    if (rp.signature->label == "wish.product") {
      const auto fields = rp.request.form_fields();
      cids.push_back(fields[0].second);
    }
  }
  // All three instances are now complete; the proxy's cache dedup (not the
  // engine) suppresses the one the client already fetched.
  std::sort(cids.begin(), cids.end());
  EXPECT_EQ(cids, (std::vector<std::string>{"09cf", "3gf3", "vm98"}));
}

TEST_F(LearningTest, ReconstructedRequestIsIdenticalToOriginal) {
  engine_.observe(make_feed_request(), make_feed_response({"09cf"}));
  const auto ready =
      engine_.observe(make_product_request("09cf"), make_product_response("Silk", 10));
  const auto it = std::find_if(ready.begin(), ready.end(), [](const ReadyPrefetch& rp) {
    return rp.signature->label == "wish.product";
  });
  ASSERT_NE(it, ready.end());
  // Paper R2: the prefetch request must be identical to the original.
  EXPECT_EQ(it->request.cache_key(), make_product_request("09cf").cache_key());
  EXPECT_EQ(it->request.serialize(), make_product_request("09cf").serialize());
}

TEST_F(LearningTest, ImageInstancesReadyWithoutRuntimeHolesOnceHostKnown) {
  // wish.image has only host + cid holes; cid comes from the feed and host
  // can only be learned from an image observation... host hole is runtime.
  engine_.observe(make_feed_request(), make_feed_response({"09cf"}));
  const auto* image = set_.find_by_label("wish.image");
  ASSERT_EQ(engine_.instances_of(image->id).size(), 1u);
  EXPECT_FALSE(engine_.instances_of(image->id)[0]->ready());

  // Observe one concrete image transaction; its host resolves the hole.
  http::Request img;
  img.uri = http::Uri::parse("https://img.wish.com/img?cid=09cf");
  http::Response img_resp;
  img_resp.opaque_payload = kilobytes(300);
  const auto ready = engine_.observe(img, img_resp);
  // The single known instance matches the one just fetched; it becomes ready.
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].request.uri.host, "img.wish.com");
}

TEST_F(LearningTest, ReplicationCreatesOneInstancePerArrayElement) {
  std::vector<std::string> ids;
  for (int i = 0; i < 30; ++i) ids.push_back("id" + std::to_string(i));
  engine_.observe(make_feed_request(), make_feed_response(ids));
  const auto* product = set_.find_by_label("wish.product");
  const auto* image = set_.find_by_label("wish.image");
  EXPECT_EQ(engine_.instances_of(product->id).size(), 30u);
  EXPECT_EQ(engine_.instances_of(image->id).size(), 30u);
}

TEST_F(LearningTest, RefetchingSameFeedDoesNotDuplicateInstances) {
  engine_.observe(make_feed_request(), make_feed_response({"a", "b"}));
  engine_.observe(make_feed_request(), make_feed_response({"a", "b"}));
  const auto* product = set_.find_by_label("wish.product");
  EXPECT_EQ(engine_.instances_of(product->id).size(), 2u);
}

TEST_F(LearningTest, ChainedDependencyThroughMiddleSignature) {
  // product response carries merchant_name -> related.get instance.
  engine_.observe(make_product_request("556e"), make_product_response("Silk", 1200));
  const auto* related = set_.find_by_label("wish.related");
  const auto instances = engine_.instances_of(related->id);
  ASSERT_EQ(instances.size(), 1u);
  // related has host hole (runtime) unbound; bind via successor observation.
  http::Request rel;
  rel.method = "POST";
  rel.uri = http::Uri::parse("https://wish.com/related/get");
  rel.set_form_fields({{"merchant", "Silk"}});
  http::Response rel_resp;
  rel_resp.body = "{}";
  const auto ready = engine_.observe(rel, rel_resp);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].signature->label, "wish.related");
}

TEST_F(LearningTest, AdaptsToMostRecentCondition) {
  // First product request carries credit_id (one branch class)...
  engine_.observe(make_product_request("a", /*with_credit=*/true),
                  make_product_response("m", 1));
  // ...then the app switches to the class without credit_id (Fig. 8).
  engine_.observe(make_product_request("b", /*with_credit=*/false),
                  make_product_response("m", 1));
  const auto ready = engine_.observe(make_feed_request(), make_feed_response({"zz"}));
  const auto it = std::find_if(ready.begin(), ready.end(), [](const ReadyPrefetch& rp) {
    return rp.signature->label == "wish.product";
  });
  ASSERT_NE(it, ready.end());
  // The reconstructed request must mimic the most recent instance class:
  // no credit_id field.
  const auto fields = it->request.form_fields();
  EXPECT_TRUE(std::none_of(fields.begin(), fields.end(),
                           [](const auto& kv) { return kv.first == "credit_id"; }));
  EXPECT_EQ(it->request.cache_key(), make_product_request("zz", false).cache_key());
}

TEST_F(LearningTest, RuntimeValueUpdatesFollowLatestObservation) {
  engine_.observe(make_feed_request(), make_feed_response({"x1"}));
  // First successor observation with version 4.13.0.
  engine_.observe(make_product_request("x1"), make_product_response("m", 1));
  // App updates: version changes.
  auto req2 = make_product_request("x2");
  auto fields = req2.form_fields();
  fields[2].second = "4.14.0";  // _ver
  req2.set_form_fields(fields);
  engine_.observe(req2, make_product_response("m", 1));

  const auto ready = engine_.observe(make_feed_request(), make_feed_response({"x3"}));
  const auto it = std::find_if(ready.begin(), ready.end(), [](const ReadyPrefetch& rp) {
    return rp.signature->label == "wish.product";
  });
  ASSERT_NE(it, ready.end());
  const auto out_fields = it->request.form_fields();
  const auto ver = std::find_if(out_fields.begin(), out_fields.end(),
                                [](const auto& kv) { return kv.first == "_ver"; });
  ASSERT_NE(ver, out_fields.end());
  EXPECT_EQ(ver->second, "4.14.0");
}

// Run-time values and the instance class are per signature: one successor
// observation re-targets every pending instance at once (Fig. 7 case 2).
TEST_F(LearningTest, SuccessorObservationRetargetsEveryPendingInstance) {
  const std::vector<std::string> ids{"p1", "p2", "p3", "p4", "p5"};
  engine_.observe(make_feed_request(), make_feed_response(ids));
  engine_.observe(make_product_request("p1", /*with_credit=*/true), make_product_response("m", 1));
  const auto* product = set_.find_by_label("wish.product");
  const auto expect_all = [&](bool with_credit, const std::string& version) {
    const auto instances = engine_.instances_of(product->id);
    ASSERT_EQ(instances.size(), ids.size());
    for (const RequestInstance* instance : instances) {
      ASSERT_TRUE(instance->ready());
      const std::string cid = instance->dependency_bindings().at("wish.product.cid");
      http::Request want = make_product_request(cid, with_credit);
      auto fields = want.form_fields();
      fields[2].second = version;  // _ver
      want.set_form_fields(fields);
      EXPECT_EQ(instance->materialize().serialize(), want.serialize());
    }
  };
  expect_all(/*with_credit=*/true, "4.13.0");

  // The app updates and switches to the branch without credit_id.
  http::Request update = make_product_request("other", /*with_credit=*/false);
  auto fields = update.form_fields();
  fields[2].second = "4.14.0";
  update.set_form_fields(fields);
  engine_.observe(update, make_product_response("m", 1));
  expect_all(/*with_credit=*/false, "4.14.0");
}

TEST_F(LearningTest, ReadyInstancesReemittedForProxyDedup) {
  engine_.observe(make_feed_request(), make_feed_response({"a"}));
  const auto first = engine_.observe(make_product_request("a"), make_product_response("m", 1));
  EXPECT_FALSE(first.empty());
  // Re-observing re-emits ready instances: deduplication is the proxy's job
  // (cache + in-flight set), which is what permits re-prefetch after expiry.
  const auto again = engine_.observe(make_product_request("a"), make_product_response("m", 1));
  const auto products = std::count_if(again.begin(), again.end(), [](const ReadyPrefetch& rp) {
    return rp.signature->label == "wish.product";
  });
  EXPECT_EQ(products, 1);
}

TEST_F(LearningTest, MalformedPredecessorBodyIsTolerated) {
  auto resp = make_feed_response({"a"});
  resp.body = "{not json";
  EXPECT_NO_THROW(engine_.observe(make_feed_request(), resp));
  const auto* product = set_.find_by_label("wish.product");
  EXPECT_TRUE(engine_.instances_of(product->id).empty());
}

TEST_F(LearningTest, ErrorResponseNotLearnedAsPredecessor) {
  auto resp = make_feed_response({"a"});
  resp.status = 500;
  engine_.observe(make_feed_request(), resp);
  const auto* product = set_.find_by_label("wish.product");
  EXPECT_TRUE(engine_.instances_of(product->id).empty());
}

TEST_F(LearningTest, StatsAreTracked) {
  engine_.observe(make_feed_request(), make_feed_response({"a", "b"}));
  engine_.observe(make_product_request("a"), make_product_response("m", 1));
  const LearningStats& stats = engine_.stats();
  EXPECT_EQ(stats.transactions_observed, 2u);
  EXPECT_EQ(stats.signature_matches, 2u);
  EXPECT_EQ(stats.predecessor_events, 2u);  // feed and product both predecessors
  EXPECT_EQ(stats.successor_events, 1u);    // product
  EXPECT_GE(stats.instances_created, 3u);   // 2 products + 2 images + 1 related
  EXPECT_GT(stats.instances_ready, 0u);
}

TEST(RequestInstance, MaterializeBeforeReadyThrows) {
  const auto set = make_wish_set();
  const auto* product = set.find_by_label("wish.product");
  RequestInstance instance(product, {{"wish.product.cid", "x"}});
  EXPECT_FALSE(instance.ready());
  EXPECT_THROW(instance.materialize(), InvalidStateError);
}

TEST(RequestInstance, FingerprintDependsOnDependencyBindingsOnly) {
  const auto set = make_wish_set();
  const auto* product = set.find_by_label("wish.product");
  RequestInstance a(product, {{"wish.product.cid", "x"}});
  RequestInstance b(product, {{"wish.product.cid", "x"}});
  RequestInstance c(product, {{"wish.product.cid", "y"}});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  // Learning run-time values leaves an engine instance's fingerprint alone.
  LearningEngine engine(&set);
  engine.observe(make_feed_request(), make_feed_response({"x"}));
  ASSERT_EQ(engine.instances_of(product->id).size(), 1u);
  const std::string before = engine.instances_of(product->id)[0]->fingerprint();
  engine.observe(make_product_request("y"), make_product_response("m", 1));
  ASSERT_EQ(engine.instances_of(product->id).size(), 1u);
  EXPECT_TRUE(engine.instances_of(product->id)[0]->ready());
  EXPECT_EQ(engine.instances_of(product->id)[0]->fingerprint(), before);
}

TEST_F(LearningTest, InstancePoolEvictionKeepsMemoryBounded) {
  // Streams of huge feeds must not grow the instance pool without bound:
  // issued instances are evicted once the pool passes its cap.
  obs::Gauge live;
  {
    LearningEngine engine(&set_, nullptr, &live);
    std::vector<std::string> ids;
    for (int round = 0; round < 5; ++round) {
      ids.clear();
      for (int i = 0; i < 600; ++i) {
        ids.push_back(
            std::string("r").append(std::to_string(round)).append("_").append(std::to_string(i)));
      }
      engine.observe(make_feed_request(), make_feed_response(ids));
      // Mark everything ready+issued by teaching the run-time values.
      engine.observe(make_product_request(ids[0]), make_product_response("m", 1));
    }
    const auto* product = set_.find_by_label("wish.product");
    EXPECT_LE(engine.instances_of(product->id).size(), 2700u);
    // Survivors still reach their keys (instances point into the map's key
    // nodes, so an eviction that left one dangling shows up here under
    // ASan), and the gauge followed every creation and eviction.
    std::int64_t total = 0;
    for (const auto& sig : set_.all()) {
      for (const RequestInstance* instance : engine.instances_of(sig->id)) {
        ++total;
        const Bindings deps = instance->dependency_bindings();
        ASSERT_EQ(deps.size(), 1u);
        if (instance->ready()) {
          EXPECT_NE(instance->materialize().serialize().find(deps.begin()->second),
                    std::string::npos);
        }
      }
    }
    EXPECT_GT(total, 0);
    EXPECT_EQ(live.value(), total);
  }
  EXPECT_EQ(live.value(), 0);  // a destroyed engine takes its share with it
}

TEST(LearningEngine, NullSignatureSetRejected) {
  EXPECT_THROW(LearningEngine(nullptr), InvalidArgumentError);
}

// A list endpoint whose items each feed one item request through two
// fields (paper Fig. 12: id and merchant_name of one product).
SignatureSet make_grouped_set() {
  SignatureSet set;
  TransactionSignature pred;
  pred.app = "t";
  pred.label = "t.list";
  pred.request.method = "GET";
  pred.request.scheme = pattern::FieldTemplate::literal("https");
  pred.request.host = pattern::FieldTemplate::literal("a.example");
  pred.request.path = pattern::FieldTemplate::literal("/list");
  pred.response.fields = {{"items[*].id", ".*"}, {"items[*].token", ".*"}};
  const auto& pred_ref = set.add(pred);

  TransactionSignature succ;
  succ.app = "t";
  succ.label = "t.item";
  succ.request.method = "GET";
  succ.request.scheme = pattern::FieldTemplate::literal("https");
  succ.request.host = pattern::FieldTemplate::literal("a.example");
  succ.request.path = pattern::FieldTemplate::literal("/item");
  succ.request.query = {
      {FieldLocation::kQuery, "id", pattern::FieldTemplate::hole("d.id"), false},
      {FieldLocation::kQuery, "tok", pattern::FieldTemplate::hole("d.tok"), false},
  };
  const auto& succ_ref = set.add(succ);
  set.add_edge({pred_ref.id, "items[*].id", succ_ref.id, "d.id"});
  set.add_edge({pred_ref.id, "items[*].token", succ_ref.id, "d.tok"});
  return set;
}

// Grouped extraction: two dependency fields reading different paths of the
// SAME array element must land in the same instance (paper Fig. 12: id and
// merchant_name of one product feed three different pages).
TEST(LearningEngine, GroupedArrayFieldsStayTogether) {
  const SignatureSet set = make_grouped_set();
  LearningEngine engine(&set);
  http::Request req;
  req.uri = http::Uri::parse("https://a.example/list");
  http::Response resp;
  resp.body = R"({"items":[{"id":"i1","token":"t1"},{"id":"i2","token":"t2"}]})";
  const auto ready = engine.observe(req, resp);
  ASSERT_EQ(ready.size(), 2u);  // no run-time holes: immediately ready
  // Each instance pairs the id and token of ONE element.
  for (const auto& rp : ready) {
    const auto id = rp.request.uri.query_param("id");
    const auto tok = rp.request.uri.query_param("tok");
    ASSERT_TRUE(id && tok);
    EXPECT_EQ(id->substr(1), tok->substr(1)) << "mismatched element pairing";
  }
}

// Values holding separator bytes must not make two different binding sets
// share one key: under a "k=v\x1f" join the first two items below collided
// and merged into one instance.
TEST(LearningEngine, SeparatorBytesInValuesKeepInstancesApart) {
  const SignatureSet set = make_grouped_set();
  LearningEngine engine(&set);
  http::Request req;
  req.uri = http::Uri::parse("https://a.example/list");
  http::Response resp;
  resp.body = R"({"items":[{"id":"1\u001fd.tok=2","token":"3"},)"
              R"({"id":"1","token":"2\u001fd.tok=3"},{"id":"4:ab","token":"-"},)"
              R"({"id":"\u0000","token":""}]})";
  const auto ready = engine.observe(req, resp);
  ASSERT_EQ(ready.size(), 4u);
  std::set<std::pair<std::string, std::string>> got;
  std::set<std::string> requests;
  for (const auto& rp : ready) {
    got.emplace(rp.request.uri.query_param("id").value(),
                rp.request.uri.query_param("tok").value());
    requests.insert(rp.request.serialize());
  }
  const std::set<std::pair<std::string, std::string>> want{{"1\x1f" "d.tok=2", "3"},
                                                           {"1", "2\x1f" "d.tok=3"},
                                                           {"4:ab", "-"},
                                                           {std::string(1, '\0'), ""}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(requests.size(), 4u);
}

// A scalar dependency shared by every replicated instance (the paper's
// "merchant login name" alongside per-item ids).
TEST(LearningEngine, ScalarDependencySharedAcrossReplicas) {
  SignatureSet set;
  TransactionSignature pred;
  pred.app = "t";
  pred.label = "t.page";
  pred.request.method = "GET";
  pred.request.scheme = pattern::FieldTemplate::literal("https");
  pred.request.host = pattern::FieldTemplate::literal("a.example");
  pred.request.path = pattern::FieldTemplate::literal("/page");
  pred.response.fields = {{"session", ".*"}, {"rows[*].id", ".*"}};
  const auto& pred_ref = set.add(pred);

  TransactionSignature succ;
  succ.app = "t";
  succ.label = "t.row";
  succ.request.method = "GET";
  succ.request.scheme = pattern::FieldTemplate::literal("https");
  succ.request.host = pattern::FieldTemplate::literal("a.example");
  succ.request.path = pattern::FieldTemplate::literal("/row");
  succ.request.query = {
      {FieldLocation::kQuery, "id", pattern::FieldTemplate::hole("d.id"), false},
      {FieldLocation::kQuery, "s", pattern::FieldTemplate::hole("d.s"), false},
  };
  const auto& succ_ref = set.add(succ);
  set.add_edge({pred_ref.id, "rows[*].id", succ_ref.id, "d.id"});
  set.add_edge({pred_ref.id, "session", succ_ref.id, "d.s"});

  LearningEngine engine(&set);
  http::Request req;
  req.uri = http::Uri::parse("https://a.example/page");
  http::Response resp;
  resp.body = R"({"session":"s77","rows":[{"id":"r1"},{"id":"r2"},{"id":"r3"}]})";
  const auto ready = engine.observe(req, resp);
  ASSERT_EQ(ready.size(), 3u);
  for (const auto& rp : ready) {
    EXPECT_EQ(rp.request.uri.query_param("s").value(), "s77");
  }
}

}  // namespace
}  // namespace appx::core
