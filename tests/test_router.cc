/// Tests for the `--shard-procs` ProcessRouter: round-robin routing with
/// in-order merging, and its fault paths (a dead child, a stalled child,
/// dead replicas in the health roster, query ids injected for replicas).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "serve/router.h"
#include "serve/sample_bank.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/timer.h"

namespace infoflow::serve {
namespace {

std::shared_ptr<const DirectedGraph> Share(DirectedGraph g) {
  return std::make_shared<const DirectedGraph>(std::move(g));
}

PointIcm SmallRandomModel(std::uint64_t seed, NodeId nodes, EdgeId edges) {
  Rng rng(seed);
  auto g = Share(UniformRandomGraph(nodes, edges, rng));
  std::vector<double> probs(g->num_edges());
  for (double& p : probs) p = rng.Uniform(0.1, 0.9);
  return PointIcm(g, probs);
}

/// "q<j>", the id the tests give request line j (built without
/// `"q" + std::to_string(j)`, which trips a GCC 12 -Wrestrict false
/// positive once inlined here).
std::string LineId(std::size_t j) {
  std::string id = std::to_string(j);
  id.insert(id.begin(), 'q');
  return id;
}

BankOptions FastBank(std::size_t states, std::size_t chains = 4) {
  BankOptions options;
  options.num_states = states;
  options.chain.num_chains = chains;
  return options;
}

/// An in-process "shard child": a real Server draining one socketpair end
/// via ServeFd until the router closes its side.
struct ChildHarness {
  std::unique_ptr<Server> server;
  std::thread thread;
  int router_fd = -1;

  static ChildHarness Spawn(const PointIcm& model) {
    ChildHarness child;
    int sv[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    child.router_fd = sv[0];
    auto bank = SampleBank::Create(model, FastBank(64, 2), /*seed=*/14);
    EXPECT_TRUE(bank.ok());
    auto server = Server::Create(std::move(bank).ValueOrDie(), {});
    EXPECT_TRUE(server.ok());
    child.server = std::make_unique<Server>(std::move(server).ValueOrDie());
    child.thread = std::thread([s = child.server.get(), fd = sv[1]] {
      (void)s->ServeFd(fd, fd);
      close(fd);
    });
    return child;
  }

  void Join() {
    if (thread.joinable()) thread.join();
  }
};

TEST(ShardRouter, MergesRoundRobinResponsesInInputOrder) {
  const PointIcm model = SmallRandomModel(41, 10, 24);
  ChildHarness a = ChildHarness::Spawn(model);
  ChildHarness b = ChildHarness::Spawn(model);
  {
    ProcessRouter router({a.router_fd, b.router_fd}, {});
    const std::vector<std::string> lines = {
        "{\"id\":\"q0\",\"source\":0,\"sink\":5}",
        "{\"id\":\"q1\",\"source\":1,\"sink\":6}",
        "garbage line",
        "{\"id\":\"q3\",\"sources\":[0,1],\"sinks\":[5,7]}",
        "{\"id\":\"q4\",\"source\":2,\"sink\":8}",
    };
    const std::vector<std::string> responses = router.RouteBatch(lines);
    ASSERT_EQ(responses.size(), lines.size());
    for (std::size_t j = 0; j < responses.size(); ++j) {
      auto parsed = ParseJson(responses[j]);
      ASSERT_TRUE(parsed.ok()) << responses[j];
      if (j == 2) {
        EXPECT_TRUE(parsed->Find("id")->is_null());
        EXPECT_FALSE(parsed->Find("ok")->AsBool());
      } else {
        EXPECT_EQ(parsed->Find("id")->AsString(), LineId(j));
        EXPECT_TRUE(parsed->Find("ok")->AsBool());
      }
    }
    EXPECT_EQ(router.num_live_children(), 2u);
  }
  a.Join();
  b.Join();
}

TEST(ShardRouter, DeadChildYieldsDescriptiveErrorsNotAHang) {
  const PointIcm model = SmallRandomModel(41, 10, 24);
  ChildHarness live = ChildHarness::Spawn(model);
  // The dying "child": accepts the batch, then closes without answering.
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::thread dying([fd = sv[1]] {
    char buffer[256];
    (void)!read(fd, buffer, sizeof(buffer));
    close(fd);
  });
  const std::uint64_t failures_before =
      obs::GetCounter("router.child_failures_total").Value();
  const std::uint64_t replica1_before =
      obs::GetCounter("router.child_failures_total.replica1").Value();
  {
    ProcessRouter router({live.router_fd, sv[0]}, {});
    const std::vector<std::string> lines = {
        "{\"id\":\"q0\",\"source\":0,\"sink\":5}",
        "{\"id\":\"q1\",\"source\":1,\"sink\":6}",
        "{\"id\":\"q2\",\"source\":2,\"sink\":7}",
        "{\"id\":\"q3\",\"source\":3,\"sink\":8}",
    };
    const std::vector<std::string> responses = router.RouteBatch(lines);
    ASSERT_EQ(responses.size(), 4u);
    std::size_t failed = 0;
    for (std::size_t j = 0; j < responses.size(); ++j) {
      auto parsed = ParseJson(responses[j]);
      ASSERT_TRUE(parsed.ok()) << responses[j];
      EXPECT_EQ(parsed->Find("id")->AsString(), LineId(j));
      if (!parsed->Find("ok")->AsBool()) {
        ++failed;
        const std::string message =
            parsed->Find("error")->Find("message")->AsString();
        // The error names the replica that died, not just "a child".
        EXPECT_NE(message.find("shard child 1"), std::string::npos)
            << message;
        EXPECT_NE(message.find("died mid-batch"), std::string::npos)
            << message;
      }
    }
    EXPECT_EQ(failed, 2u);  // the dead child's round-robin share
    EXPECT_EQ(router.num_live_children(), 1u);
    if (obs::MetricsEnabled()) {
      // Counter deltas (the registry is process-global): one death, one
      // bump on the aggregate and on the per-replica series.
      EXPECT_EQ(obs::GetCounter("router.child_failures_total").Value() -
                    failures_before,
                1u);
      EXPECT_EQ(
          obs::GetCounter("router.child_failures_total.replica1").Value() -
              replica1_before,
          1u);
    }
    // Later batches exclude the dead child and keep answering.
    const std::vector<std::string> retry =
        router.RouteBatch({"{\"id\":\"q4\",\"source\":0,\"sink\":5}"});
    auto parsed = ParseJson(retry.at(0));
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed->Find("ok")->AsBool());
  }
  live.Join();
  dying.join();
}

TEST(ShardRouter, DeadlineBindsOnAStalledChild) {
  // The child reads its lines and never answers: the router must return
  // within its deadline with descriptive errors, not hang the batch.
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::thread stalled([fd = sv[1]] {
    char buffer[256];
    while (read(fd, buffer, sizeof(buffer)) > 0) {
    }
    close(fd);
  });
  WallTimer timer;
  {
    ProcessRouter::Options options;
    options.child_timeout_ms = 100.0;
    ProcessRouter router({sv[0]}, options);
    const std::vector<std::string> responses = router.RouteBatch(
        {"{\"id\":\"q0\",\"source\":0,\"sink\":5}",
         "{\"id\":\"q1\",\"source\":1,\"sink\":6}"});
    ASSERT_EQ(responses.size(), 2u);
    for (const std::string& response : responses) {
      auto parsed = ParseJson(response);
      ASSERT_TRUE(parsed.ok()) << response;
      EXPECT_FALSE(parsed->Find("ok")->AsBool());
      EXPECT_EQ(parsed->Find("error")->Find("code")->AsString(),
                "deadline-exceeded");
      EXPECT_NE(parsed->Find("error")->Find("message")->AsString().find(
                    "router deadline"),
                std::string::npos);
    }
    EXPECT_EQ(router.num_live_children(), 0u);
    // With no child left the router still answers every line.
    const std::vector<std::string> drained =
        router.RouteBatch({"{\"id\":\"q2\",\"source\":0,\"sink\":5}"});
    auto parsed = ParseJson(drained.at(0));
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(parsed->Find("ok")->AsBool());
    EXPECT_NE(parsed->Find("error")->Find("message")->AsString().find(
                  "no shard children alive"),
              std::string::npos);
  }
  EXPECT_LT(timer.Millis(), 5000.0);
  stalled.join();
}

TEST(ShardRouter, HealthVerbKeepsDeadReplicasVisible) {
  const PointIcm model = SmallRandomModel(41, 10, 24);
  ChildHarness live = ChildHarness::Spawn(model);
  // Replica 1 dies on first contact, as in the dead-child test above.
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::thread dying([fd = sv[1]] {
    char buffer[256];
    (void)!read(fd, buffer, sizeof(buffer));
    close(fd);
  });
  {
    ProcessRouter router({live.router_fd, sv[0]}, {});
    (void)router.RouteBatch({"{\"id\":\"q0\",\"source\":0,\"sink\":5}",
                             "{\"id\":\"q1\",\"source\":1,\"sink\":6}"});
    ASSERT_EQ(router.num_live_children(), 1u);

    const std::vector<std::string> responses =
        router.RouteBatch({"{\"id\":\"h\",\"health\":true}"});
    ASSERT_EQ(responses.size(), 1u);
    auto parsed = ParseJson(responses[0]);
    ASSERT_TRUE(parsed.ok()) << responses[0];
    EXPECT_EQ(parsed->Find("id")->AsString(), "h");
    EXPECT_TRUE(parsed->Find("ok")->AsBool());
    const JsonValue* health = parsed->Find("health");
    ASSERT_NE(health, nullptr);
    EXPECT_EQ(health->Find("role")->AsString(), "router");
    EXPECT_EQ(health->Find("num_replicas")->AsNumber(), 2.0);
    EXPECT_EQ(health->Find("num_live_replicas")->AsNumber(), 1.0);

    // The dead replica stays listed with alive:false — exclusion must be
    // visible to a scraper, not silently elided from the roster.
    const JsonValue::Array& replicas = health->Find("replicas")->AsArray();
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_TRUE(replicas[0].Find("alive")->AsBool());
    EXPECT_EQ(replicas[1].Find("replica")->AsNumber(), 1.0);
    EXPECT_FALSE(replicas[1].Find("alive")->AsBool());

    // Per-replica health: the live child answers as a server, the dead
    // slot is null.
    const JsonValue::Array& details =
        health->Find("replica_health")->AsArray();
    ASSERT_EQ(details.size(), 2u);
    ASSERT_FALSE(details[0].is_null());
    EXPECT_EQ(details[0].Find("health")->Find("role")->AsString(), "server");
    EXPECT_TRUE(details[1].is_null());
  }
  live.Join();
  dying.join();
}

TEST(ShardRouter, InjectsQueryIdsThatReplicasEchoBack) {
  const PointIcm model = SmallRandomModel(41, 10, 24);
  ChildHarness child = ChildHarness::Spawn(model);
  {
    ProcessRouter router({child.router_fd}, {});
    const std::vector<std::string> responses = router.RouteBatch({
        "{\"id\":\"q0\",\"source\":0,\"sink\":5}",
        "{\"id\":\"q1\",\"source\":1,\"sink\":6}",
        "{\"id\":\"q2\",\"source\":2,\"sink\":7,\"query_id\":500}",
    });
    ASSERT_EQ(responses.size(), 3u);
    // Lines arriving without a query_id get one minted and injected by the
    // router; since the id is then on the replica's wire, the replica
    // echoes it — so the trace tree and the client agree on the id.
    auto r0 = ParseJson(responses[0]);
    auto r1 = ParseJson(responses[1]);
    auto r2 = ParseJson(responses[2]);
    ASSERT_TRUE(r0.ok() && r1.ok() && r2.ok());
    ASSERT_NE(r0->Find("query_id"), nullptr);
    ASSERT_NE(r1->Find("query_id"), nullptr);
    EXPECT_GE(r0->Find("query_id")->AsNumber(), 1.0);
    EXPECT_GE(r1->Find("query_id")->AsNumber(), 1.0);
    EXPECT_NE(r0->Find("query_id")->AsNumber(),
              r1->Find("query_id")->AsNumber());
    // A client-supplied id passes through untouched.
    ASSERT_NE(r2->Find("query_id"), nullptr);
    EXPECT_EQ(r2->Find("query_id")->AsNumber(), 500.0);
  }
  child.Join();
}

}  // namespace
}  // namespace infoflow::serve
