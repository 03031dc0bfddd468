// Tests for the §7 baseline engines (Looxy-style URL prefetching and the
// PALOMA-flavoured static-only prefetcher) and the URL extraction helper.
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "wish_fixture.hpp"

namespace appx::core {
namespace {

using testfix::make_wish_set;

// --- URL extraction ------------------------------------------------------------------

TEST(ExtractUrls, FindsUrlsInJson) {
  const auto urls = extract_urls(
      R"({"items":[{"thumb":"https://img.example/t?cid=a"},{"thumb":"http://img.example/t?cid=b"}]})");
  ASSERT_EQ(urls.size(), 2u);
  EXPECT_EQ(urls[0], "https://img.example/t?cid=a");
  EXPECT_EQ(urls[1], "http://img.example/t?cid=b");
}

TEST(ExtractUrls, IgnoresNonUrls) {
  EXPECT_TRUE(extract_urls("no urls here").empty());
  EXPECT_TRUE(extract_urls("httpx://nope http:/almost https:").empty());
  EXPECT_TRUE(extract_urls("").empty());
}

TEST(ExtractUrls, StopsAtDelimiters) {
  const auto urls = extract_urls("see https://a.com/x<b> and 'https://b.com/y' done");
  ASSERT_EQ(urls.size(), 2u);
  EXPECT_EQ(urls[0], "https://a.com/x");
  EXPECT_EQ(urls[1], "https://b.com/y");
}

// --- LooxyEngine ----------------------------------------------------------------------

http::Request get_request(const std::string& url) {
  http::Request req;
  req.uri = http::Uri::parse(url);
  return req;
}

TEST(LooxyEngine, PrefetchesEmbeddedUrlsAndServesThem) {
  LooxyEngine looxy;
  http::Request feed = get_request("https://api.example/feed");
  http::Response feed_resp;
  feed_resp.body = R"({"thumb":"https://img.example/t?cid=a"})";

  Session session = looxy.session("u", 0);
  EXPECT_EQ(session.on_request(feed, 0).served, nullptr);
  auto jobs = session.on_response(feed, feed_resp, 0).prefetches;
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].request.method, "GET");
  EXPECT_EQ(jobs[0].request.uri.serialize(), "https://img.example/t?cid=a");

  http::Response img;
  img.opaque_payload = kilobytes(40);
  session.on_prefetch_response(jobs[0], img, 10, 20.0);

  const Decision decision = session.on_request(get_request("https://img.example/t?cid=a"), 20);
  ASSERT_NE(decision.served, nullptr);
  EXPECT_EQ(decision.served->opaque_payload, kilobytes(40));
  EXPECT_EQ(looxy.stats().cache_hits, 1u);
}

TEST(LooxyEngine, CannotServePostRequests) {
  // The paper's criticism: dependencies inside request bodies are invisible
  // to URL scanning.
  LooxyEngine looxy;
  http::Request feed = get_request("https://api.example/feed");
  http::Response resp;
  resp.body = R"({"id":"09cf"})";  // the dependency value, but no URL
  Session session = looxy.session("u", 0);
  EXPECT_TRUE(session.on_response(feed, resp, 0).prefetches.empty());
}

TEST(LooxyEngine, DeduplicatesUrlsAcrossResponses) {
  LooxyEngine looxy;
  http::Request feed = get_request("https://api.example/feed");
  http::Response resp;
  resp.body = R"({"a":"https://img.example/t?cid=a","b":"https://img.example/t?cid=a"})";
  Session session = looxy.session("u", 0);
  EXPECT_EQ(session.on_response(feed, resp, 0).prefetches.size(), 1u);
  EXPECT_TRUE(session.on_response(feed, resp, 1).prefetches.empty());
}

TEST(LooxyEngine, UsersAreIsolated) {
  LooxyEngine looxy;
  http::Request feed = get_request("https://api.example/feed");
  http::Response resp;
  resp.body = R"({"t":"https://img.example/t?cid=a"})";
  Session u1 = looxy.session("u1", 0);
  auto jobs = u1.on_response(feed, resp, 0).prefetches;
  ASSERT_EQ(jobs.size(), 1u);
  http::Response img;
  u1.on_prefetch_response(jobs[0], img, 0, 1.0);
  Session u2 = looxy.session("u2", 1);
  EXPECT_FALSE(u2.on_request(get_request("https://img.example/t?cid=a"), 1).served);
  EXPECT_TRUE(u1.on_request(get_request("https://img.example/t?cid=a"), 1).served);
}

TEST(LooxyEngine, FailedPrefetchNotCached) {
  LooxyEngine looxy;
  http::Request feed = get_request("https://api.example/feed");
  http::Response resp;
  resp.body = R"({"t":"https://img.example/missing"})";
  Session session = looxy.session("u", 0);
  auto jobs = session.on_response(feed, resp, 0).prefetches;
  ASSERT_EQ(jobs.size(), 1u);
  http::Response fail;
  fail.status = 404;
  session.on_prefetch_response(jobs[0], fail, 0, 1.0);
  EXPECT_GT(looxy.stats().prefetch_failures, 0u);
  EXPECT_FALSE(session.on_request(get_request("https://img.example/missing"), 1).served);
}

// --- StaticOnlyEngine ------------------------------------------------------------------

TEST(StaticOnlyEngine, NothingReconstructibleFromRealSignatures) {
  const auto set = make_wish_set();
  StaticOnlyEngine engine(&set);
  // Every fixture signature carries run-time holes.
  EXPECT_EQ(engine.statically_complete(), 0u);
  EXPECT_TRUE(engine.session("u", 0).take_prefetches(0).empty());
}

TEST(StaticOnlyEngine, PrefetchesFullyConcreteSignatures) {
  SignatureSet set;
  TransactionSignature sig;
  sig.app = "a";
  sig.label = "static.ping";
  sig.request.method = "GET";
  sig.request.scheme = pattern::FieldTemplate::literal("https");
  sig.request.host = pattern::FieldTemplate::literal("api.example");
  sig.request.path = pattern::FieldTemplate::literal("/ping");
  set.add(sig);

  StaticOnlyEngine engine(&set);
  EXPECT_EQ(engine.statically_complete(), 1u);

  Session session = engine.session("u", 0);
  auto jobs = session.take_prefetches(0);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].request.uri.path, "/ping");
  // Seeded once per user.
  EXPECT_TRUE(session.take_prefetches(0).empty());

  http::Response resp;
  resp.body = "pong";
  session.on_prefetch_response(jobs[0], resp, 0, 1.0);
  const Decision decision = session.on_request(jobs[0].request, 1);
  ASSERT_NE(decision.served, nullptr);
  EXPECT_EQ(decision.served->body, "pong");
}

// The seeded request is the signature's template rendered as-is: literal
// query, header and form fields in order, optional fields included (no
// instance class has been observed).
TEST(StaticOnlyEngine, SeedsEachCompleteSignatureRenderedInFull) {
  SignatureSet set;
  TransactionSignature sig;
  sig.app = "a";
  sig.label = "static.search";
  sig.request.method = "POST";
  sig.request.scheme = pattern::FieldTemplate::literal("https");
  sig.request.host = pattern::FieldTemplate::literal("api.example");
  sig.request.path = pattern::FieldTemplate::literal("/search");
  sig.request.query = {
      {FieldLocation::kQuery, "q", pattern::FieldTemplate::literal("shoes"), false}};
  sig.request.headers = {
      {FieldLocation::kHeader, "X-Client", pattern::FieldTemplate::literal("android"), false},
      {FieldLocation::kHeader, "X-Debug", pattern::FieldTemplate::literal("1"), true},
  };
  sig.request.body_kind = BodyKind::kForm;
  sig.request.body = {{FieldLocation::kBody, "page", pattern::FieldTemplate::literal("1"), false}};
  set.add(sig);
  TransactionSignature holed = sig;
  holed.label = "static.item";
  holed.request.path = pattern::FieldTemplate::parse("/item/{id}");
  set.add(holed);

  StaticOnlyEngine engine(&set);
  EXPECT_EQ(engine.statically_complete(), 1u);
  const auto jobs = engine.session("u", 0).take_prefetches(0);
  ASSERT_EQ(jobs.size(), 1u);
  http::Request want;
  want.method = "POST";
  want.uri.scheme = "https";
  want.uri.host = "api.example";
  want.uri.path = "/search";
  want.uri.add_query_param("q", "shoes");
  want.headers.add("X-Client", "android");
  want.headers.add("X-Debug", "1");
  want.set_form_fields({{"page", "1"}});
  EXPECT_EQ(jobs[0].request.serialize(), want.serialize());
}

}  // namespace
}  // namespace appx::core
