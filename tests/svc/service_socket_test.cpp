// End-to-end protocol tests: a real Server on a real AF_UNIX socket,
// driven by the blocking Client.

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "svc/client.hpp"
#include "svc/job_codec.hpp"
#include "svc/server.hpp"

namespace raidsim::svc {
namespace {

class ServiceSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = "/tmp/raidsim_svc_test." + std::to_string(::getpid()) +
                   "." + ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name() +
                   ".sock";
    Server::Options opts;
    opts.socket_path = socket_path_;
    opts.supervisor.workers = 2;
    opts.supervisor.queue_capacity = 4;
    opts.supervisor.drain_budget_ms = 30000.0;
    opts.log_final_stats = false;
    server_ = std::make_unique<Server>(opts);
    server_thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    server_->stop();
    server_thread_.join();
    server_.reset();
  }

  std::string socket_path_;
  std::unique_ptr<Server> server_;
  std::thread server_thread_;
};

std::string status_of(const JsonValue& v) {
  const JsonValue* s = v.find("status");
  return (s != nullptr && s->is_string()) ? s->as_string() : "";
}

TEST_F(ServiceSocketTest, PingPongs) {
  Client client(socket_path_);
  const JsonValue pong = client.request(R"({"op":"ping","id":"p1"})");
  EXPECT_EQ(status_of(pong), "ok");
  EXPECT_EQ(pong.find("id")->as_string(), "p1");
}

TEST_F(ServiceSocketTest, RunReturnsMetrics) {
  Client client(socket_path_);
  JobRequest job;
  job.workload.scale = 0.02;
  job.workload.seed = 3;
  job.id = "r1";
  const JsonValue response = client.request(encode_job_request(job));
  EXPECT_EQ(status_of(response), "ok");
  EXPECT_EQ(response.find("id")->as_string(), "r1");
  const JsonValue* metrics = response.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* all = metrics->find("response");
  ASSERT_NE(all, nullptr);
  const JsonValue* mean = all->find("all") ? all->find("all")->find("mean_ms")
                                           : nullptr;
  ASSERT_NE(mean, nullptr);
  EXPECT_GT(mean->as_number(), 0.0);
}

TEST_F(ServiceSocketTest, StatsReflectWork) {
  Client client(socket_path_);
  JobRequest job;
  job.workload.scale = 0.02;
  job.workload.seed = 4;
  ASSERT_EQ(status_of(client.request(encode_job_request(job))), "ok");
  const JsonValue stats = client.request(R"({"op":"stats"})");
  ASSERT_EQ(status_of(stats), "ok");
  const JsonValue* s = stats.find("stats");
  ASSERT_NE(s, nullptr);
  EXPECT_GE(s->find("submitted")->as_number(), 1.0);
  EXPECT_GE(s->find("completed_ok")->as_number(), 1.0);
}

TEST_F(ServiceSocketTest, MalformedLinesGetTypedInvalid) {
  Client client(socket_path_);
  EXPECT_EQ(status_of(client.request("not json at all")), "invalid");
  EXPECT_EQ(status_of(client.request(R"({"op":"run","config":{"n":0}})")),
            "invalid");
  EXPECT_EQ(status_of(client.request(R"({"op":"nonsense"})")), "invalid");
  // Connection survives hostile lines.
  EXPECT_EQ(status_of(client.request(R"({"op":"ping"})")), "ok");
}

TEST_F(ServiceSocketTest, SplitAndPipelinedWritesParseCorrectly) {
  // The server must frame on newlines, not on read() boundaries.
  Client client(socket_path_);
  const std::string a = R"({"op":"ping","id":"a"})" "\n";
  const std::string b = R"({"op":"ping","id":"b"})" "\n";
  // Two requests in one write: two responses, in order.
  const JsonValue first = client.request(a + b);
  const JsonValue second = json_parse(client.request_raw(""));
  EXPECT_EQ(first.find("id")->as_string(), "a");
  EXPECT_EQ(second.find("id")->as_string(), "b");
}

TEST_F(ServiceSocketTest, CacheHitOverProtocolIsByteIdentical) {
  Client client(socket_path_);
  JobRequest job;
  job.workload.scale = 0.02;
  job.workload.seed = 5;
  job.no_cache = true;
  const JsonValue fresh = client.request(encode_job_request(job));
  job.no_cache = false;
  const JsonValue hit = client.request(encode_job_request(job));
  ASSERT_EQ(status_of(fresh), "ok");
  ASSERT_EQ(status_of(hit), "ok");
  EXPECT_TRUE(hit.find("cached")->as_bool());
  EXPECT_EQ(fresh.find("metrics")->dump(), hit.find("metrics")->dump());
}

TEST_F(ServiceSocketTest, SubscribedConnectionSeesFramesBeforeResponse) {
  // The final progress frame must reach the wire before the terminal
  // response even though frames now travel through the subscriber's
  // buffered drain thread while responses come from a worker thread.
  Client sub(socket_path_);
  ASSERT_EQ(status_of(sub.request(R"({"op":"subscribe","id":"w"})")), "ok");
  JobRequest job;
  job.workload.scale = 0.05;
  job.workload.seed = 11;
  job.no_cache = true;
  job.id = "probe";
  JsonValue msg = sub.request(encode_job_request(job));
  int frames = 0;
  double last_events = -1.0;
  bool last_was_final = false;
  while (msg.find("type") != nullptr &&
         msg.find("type")->as_string() == "progress") {
    const JsonValue* idv = msg.find("id");
    if (idv != nullptr && idv->as_string() == "probe") {
      ++frames;
      const double events = msg.find("events")->as_number();
      EXPECT_GE(events, last_events);  // frames stay ordered end-to-end
      last_events = events;
      last_was_final = msg.find("final")->as_bool();
    }
    msg = json_parse(sub.request_raw(""));
  }
  EXPECT_EQ(status_of(msg), "ok");
  EXPECT_EQ(msg.find("id")->as_string(), "probe");
  EXPECT_GE(frames, 1);
  EXPECT_TRUE(last_was_final)
      << "final frame must hit the wire before the response";
}

TEST_F(ServiceSocketTest, NonReadingSubscriberDoesNotBlockJobs) {
  // A subscriber that never reads may only lose frames; jobs on other
  // connections must keep completing, and TearDown's shutdown must not
  // hang on the subscriber's queue.
  Client sub(socket_path_);
  ASSERT_EQ(status_of(sub.request(R"({"op":"subscribe"})")), "ok");
  // From here on the subscriber never reads again.
  Client worker(socket_path_);
  for (int i = 0; i < 3; ++i) {
    JobRequest job;
    job.workload.scale = 0.02;
    job.workload.seed = 20 + i;
    job.no_cache = true;
    job.id = "j";  // appended: see ResultCache.ConcurrentMixedAccessIsSafe
    job.id += std::to_string(i);
    EXPECT_EQ(status_of(worker.request(encode_job_request(job))), "ok");
  }
}

TEST_F(ServiceSocketTest, DrainOpShutsDownGracefully) {
  Client client(socket_path_);
  const JsonValue ack = client.request(R"({"op":"drain","id":"d"})");
  EXPECT_EQ(status_of(ack), "ok");
  server_thread_.join();  // run() returns after the drain completes
  server_thread_ = std::thread([] {});  // keep TearDown joinable
  EXPECT_TRUE(server_->supervisor().draining());
  // Every submitted job is accounted for by a typed terminal/rejection.
  const Supervisor::Counters& c = server_->supervisor().counters();
  EXPECT_EQ(c.submitted.value(), c.terminal() + c.rejected());
}

/// Prometheus text -> unlabelled sample values by name.
std::map<std::string, double> scrape_samples(const std::string& text) {
  std::map<std::string, double> samples;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#' ||
        line.find('{') != std::string::npos)
      continue;
    const std::size_t space = line.rfind(' ');
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return samples;
}

TEST(ServiceSocket, StatsAndScrapeAgree) {
  // One worker and one queue slot, so a pipelined burst is shed.
  const std::string socket_path =
      "/tmp/raidsim_svc_test." + std::to_string(::getpid()) + ".agree.sock";
  Server::Options opts;
  opts.socket_path = socket_path;
  opts.supervisor.workers = 1;
  opts.supervisor.queue_capacity = 1;
  opts.log_final_stats = false;
  Server server(opts);
  std::thread server_thread([&server] { server.run(); });

  Client client(socket_path);
  JobRequest job;
  job.workload.scale = 0.02;
  job.workload.seed = 6;
  EXPECT_EQ(status_of(client.request(encode_job_request(job))), "ok");
  const JsonValue hit = client.request(encode_job_request(job));
  EXPECT_TRUE(hit.find("cached")->as_bool());
  // Run lines the codec rejects -- a config that fails validation and
  // the retired nested "tail" object -- count as submitted and invalid.
  EXPECT_EQ(status_of(client.request(R"({"op":"run","config":{"n":0}})")),
            "invalid");
  EXPECT_EQ(status_of(client.request(
                R"({"op":"run","config":{"tail":{"enabled":true}}})")),
            "invalid");

  // Burst: every run line arrives in one write and is admitted or shed
  // before the worker finishes its first job.
  constexpr int kBurst = 8;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    JobRequest shed = job;
    shed.workload.scale = 0.1;
    shed.workload.seed = 40 + static_cast<std::uint64_t>(i);
    shed.no_cache = true;
    burst += encode_job_request(shed) + "\n";
  }
  int overloaded = 0;
  JsonValue response = client.request(burst);
  for (int i = 0; i < kBurst; ++i) {
    if (i > 0) response = json_parse(client.request_raw(""));
    const std::string status = status_of(response);
    EXPECT_TRUE(status == "ok" || status == "overloaded") << status;
    overloaded += status == "overloaded" ? 1 : 0;
  }
  EXPECT_GE(overloaded, 1);

  const JsonValue stats_response = client.request(R"({"op":"stats"})");
  const JsonValue* stats = stats_response.find("stats");
  ASSERT_NE(stats, nullptr);
  const std::string text =
      client.request(R"({"op":"metrics"})").find("metrics_text")->as_string();
  const std::map<std::string, double> samples = scrape_samples(text);

  const std::pair<const char*, const char*> twins[] = {
      {"submitted", "raidsim_svc_jobs_submitted_total"},
      {"completed_ok", "raidsim_svc_jobs_ok_total"},
      {"completed_cached", "raidsim_svc_jobs_cached_total"},
      {"rejected_overload", "raidsim_svc_jobs_overloaded_total"},
      {"rejected_draining", "raidsim_svc_jobs_draining_total"},
      {"rejected_invalid", "raidsim_svc_jobs_invalid_total"},
      {"failed", "raidsim_svc_jobs_failed_total"},
      {"cancelled", "raidsim_svc_jobs_cancelled_total"},
      {"deadline_expired", "raidsim_svc_jobs_deadline_total"},
      {"watchdog_kills", "raidsim_svc_watchdog_kills_total"},
      {"queue_depth", "raidsim_svc_queue_depth"},
      {"running", "raidsim_svc_inflight"},
      {"cache_hits", "raidsim_svc_jobs_cached_total"},
      {"cache_misses", "raidsim_svc_cache_misses_total"},
  };
  for (const auto& [key, name] : twins) {
    const JsonValue* value = stats->find(key);
    ASSERT_NE(value, nullptr) << key;
    ASSERT_EQ(samples.count(name), 1u) << name;
    EXPECT_EQ(value->as_number(), samples.at(name)) << key << " vs " << name;
  }
  EXPECT_EQ(stats->find("submitted")->as_number(), 4.0 + kBurst);
  EXPECT_EQ(stats->find("completed_cached")->as_number(), 1.0);
  EXPECT_EQ(stats->find("rejected_invalid")->as_number(), 2.0);
  EXPECT_EQ(stats->find("rejected_overload")->as_number(), overloaded);

  // One `# TYPE` per family, families in name order.
  std::vector<std::string> families;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("# TYPE ", 0) == 0)
      families.push_back(line.substr(7, line.find(' ', 7) - 7));
  EXPECT_TRUE(std::is_sorted(families.begin(), families.end()));
  EXPECT_EQ(std::adjacent_find(families.begin(), families.end()),
            families.end());

  server.stop();
  server_thread.join();
}

}  // namespace
}  // namespace raidsim::svc
