#include "svc/job_codec.hpp"

#include <gtest/gtest.h>

#include "core/job_key.hpp"

namespace raidsim::svc {
namespace {

TEST(JobCodec, DecodeDefaults) {
  const JobRequest job = decode_job_request(json_parse(R"({"op":"run"})"));
  EXPECT_EQ(job.trace, "trace2");
  EXPECT_EQ(job.workload.seed, 0u);
  EXPECT_EQ(job.deadline_ms, 0.0);
  EXPECT_FALSE(job.no_cache);
  EXPECT_EQ(job.config.organization, Organization::kRaid5);
}

TEST(JobCodec, DecodeFullRequest) {
  const JobRequest job = decode_job_request(json_parse(R"({
    "op": "run", "id": "j1", "trace": "trace1",
    "scale": 0.25, "speed": 2.0, "seed": 7,
    "deadline_ms": 1500, "no_cache": true,
    "config": {
      "org": "parstrip", "n": 20, "su": 4, "sync": "rfpr",
      "parity_placement": "end", "sched": "sstf",
      "cached": true, "cache_mb": 32, "shards": 2,
      "tail": {"enabled": true, "read_deadline_ms": 80}
    }})"));
  EXPECT_EQ(job.id, "j1");
  EXPECT_EQ(job.trace, "trace1");
  EXPECT_DOUBLE_EQ(job.workload.scale, 0.25);
  EXPECT_DOUBLE_EQ(job.workload.speed, 2.0);
  EXPECT_EQ(job.workload.seed, 7u);
  EXPECT_DOUBLE_EQ(job.deadline_ms, 1500.0);
  EXPECT_TRUE(job.no_cache);
  EXPECT_EQ(job.config.organization, Organization::kParityStriping);
  EXPECT_EQ(job.config.array_data_disks, 20);
  EXPECT_EQ(job.config.striping_unit_blocks, 4);
  EXPECT_EQ(job.config.sync, SyncPolicy::kReadFirstPriority);
  EXPECT_EQ(job.config.parity_placement, ParityPlacement::kEndCylinders);
  EXPECT_EQ(job.config.disk_scheduling, DiskScheduling::kSstf);
  EXPECT_TRUE(job.config.cached);
  EXPECT_EQ(job.config.cache_bytes, 32ll << 20);
  EXPECT_EQ(job.config.shards, 2);
  EXPECT_TRUE(job.config.tail.enabled);
  EXPECT_DOUBLE_EQ(job.config.tail.read_deadline_ms, 80.0);
}

TEST(JobCodec, EncodeDecodeRoundTripPreservesIdentity) {
  JobRequest job;
  job.trace = "trace1";
  job.workload.scale = 0.125;
  job.workload.speed = 1.5;
  job.workload.seed = 99;
  job.config.organization = Organization::kMirror;
  job.config.array_data_disks = 16;
  job.config.sync = SyncPolicy::kSimultaneousIssue;
  job.config.cached = true;
  job.config.shards = 3;
  job.config.tail.enabled = true;

  const JobRequest back =
      decode_job_request(json_parse(encode_job_request(job)));
  // The canonical job key covers every result-determining field, so key
  // equality IS identity for the service.
  EXPECT_EQ(job_canonical_key(job.config, job.trace, job.workload),
            job_canonical_key(back.config, back.trace, back.workload));
}

TEST(JobCodec, UnknownKeysRejectedByName) {
  // max_retries and fail_first are retired keys: a job runs once.
  for (const std::string key : {"turbo", "max_retries", "fail_first"}) {
    try {
      decode_job_request(json_parse(R"({"op":"run",")" + key + R"(":1})"));
      ADD_FAILURE() << "expected invalid_argument for " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << key;
    }
  }
  EXPECT_THROW(
      decode_job_request(json_parse(R"({"op":"run","config":{"frob":1}})")),
      std::invalid_argument);
  EXPECT_THROW(decode_job_request(json_parse(
                   R"({"op":"run","config":{"tail":{"warp":1}}})")),
               std::invalid_argument);
}

TEST(JobCodec, BadValuesRejected) {
  const char* bad[] = {
      R"({"op":"fetch"})",
      R"({"op":"run","trace":"trace3"})",
      R"({"op":"run","scale":0})",
      R"({"op":"run","scale":2})",
      R"({"op":"run","speed":-1})",
      R"({"op":"run","seed":-1})",
      R"({"op":"run","seed":1.5})",
      R"({"op":"run","deadline_ms":-5})",
      R"({"op":"run","config":{"org":"raid9"}})",
      R"({"op":"run","config":{"n":"ten"}})",
      R"({"op":"run","config":{"n":3.5}})",
      R"({"op":"run","config":{"cache_mb":-1}})",
      R"({"op":"run","config":{"sync":"yolo"}})",
  };
  for (const char* line : bad) {
    EXPECT_THROW(decode_job_request(json_parse(line)), std::invalid_argument)
        << line;
  }
}

TEST(JobCodec, DecodedConfigIsValidated) {
  // n=0 parses fine but SimulationConfig::validate() must reject it.
  EXPECT_THROW(
      decode_job_request(json_parse(R"({"op":"run","config":{"n":0}})")),
      std::invalid_argument);
  EXPECT_THROW(decode_job_request(
                   json_parse(R"({"op":"run","config":{"n":100000000}})")),
               std::invalid_argument);
}

TEST(JobCodec, ResponseEmbedsMetricsVerbatim) {
  JobResult result;
  result.status = JobStatus::kOk;
  result.metrics_json = R"({"mean_response_ms":12.5})";
  const std::string line = encode_job_response(result, "abc");
  const JsonValue v = json_parse(line);
  EXPECT_EQ(v.find("id")->as_string(), "abc");
  EXPECT_EQ(v.find("status")->as_string(), "ok");
  EXPECT_DOUBLE_EQ(v.find("metrics")->find("mean_response_ms")->as_number(),
                   12.5);
  // Verbatim embedding: the metrics bytes appear unchanged in the line.
  EXPECT_NE(line.find(result.metrics_json), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST(JobCodec, ErrorResponseIsTyped) {
  const JsonValue v = json_parse(
      encode_error_response("x", JobStatus::kOverloaded, "queue full"));
  EXPECT_EQ(v.find("status")->as_string(), "overloaded");
  EXPECT_EQ(v.find("error")->as_string(), "queue full");
}

}  // namespace
}  // namespace raidsim::svc
