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
      "cached": true, "cache_mb": 32, "shards": 2, "tail": true
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
  EXPECT_TRUE(job.config.tail);
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
  job.config.tail = true;

  const JobRequest back =
      decode_job_request(json_parse(encode_job_request(job)));
  // The canonical job key covers every result-determining field, so key
  // equality IS identity for the service.
  EXPECT_EQ(job_canonical_key(job.config, job.trace, job.workload),
            job_canonical_key(back.config, back.trace, back.workload));
}

/// A request with every wire field away from its default (and a config
/// SimulationConfig::validate() accepts: RAID4 parity caching needs a
/// cached RAID4, and SI is avoided because it needs FIFO).
JobRequest every_wire_field_set() {
  JobRequest job;
  job.id = "golden";
  job.trace = "trace1";
  job.workload.scale = 0.125;
  job.workload.speed = 1.5;
  job.workload.seed = 99;
  job.deadline_ms = 2500.5;
  job.no_cache = true;
  SimulationConfig& c = job.config;
  c.organization = Organization::kRaid4;
  c.array_data_disks = 16;
  c.striping_unit_blocks = 4;
  c.sync = SyncPolicy::kReadFirstPriority;
  c.parity_placement = ParityPlacement::kEndCylinders;
  c.parity_fine_grain_chunk_blocks = 8;
  c.disk_scheduling = DiskScheduling::kSstf;
  c.channel_mb_per_second = 20.5;
  c.track_buffers_per_disk = 7;
  c.cached = true;
  c.cache_bytes = 33ll << 19;  // 16.5 MB
  c.destage_period_ms = 150.25;
  c.retain_old_data = false;
  c.parity_caching = true;
  c.periodic_destage = false;
  c.intent_journal = true;
  c.shards = 2;
  c.shard_threads = 3;
  c.obs.sample_interval_ms = 12.5;
  c.tail = true;
  return job;
}

TEST(JobCodec, EncodeDefaultRequestGolden) {
  EXPECT_EQ(
      encode_job_request(JobRequest{}),
      R"({"op":"run","trace":"trace2","scale":1,"speed":1,"seed":0,)"
      R"("config":{"org":"raid5","n":10,"su":1,"sync":"df",)"
      R"("parity_placement":"middle","parity_fine_chunk":0,"sched":"fifo",)"
      R"("channel_mb_per_s":10,"track_buffers":5,"cached":false,)"
      R"("cache_mb":16,"destage_period_ms":300,"retain_old_data":true,)"
      R"("parity_caching":false,"periodic_destage":true,)"
      R"("intent_journal":false,"shards":0,"shard_threads":0,)"
      R"("tail":false}})");
}

TEST(JobCodec, EncodeEveryWireFieldGolden) {
  EXPECT_EQ(
      encode_job_request(every_wire_field_set()),
      R"({"op":"run","id":"golden","trace":"trace1","scale":0.125,)"
      R"("speed":1.5,"seed":99,"deadline_ms":2500.5,"no_cache":true,)"
      R"("config":{"org":"raid4","n":16,"su":4,"sync":"rfpr",)"
      R"("parity_placement":"end","parity_fine_chunk":8,"sched":"sstf",)"
      R"("channel_mb_per_s":20.5,"track_buffers":7,"cached":true,)"
      R"("cache_mb":16.5,"destage_period_ms":150.25,)"
      R"("retain_old_data":false,"parity_caching":true,)"
      R"("periodic_destage":false,"intent_journal":true,"shards":2,)"
      R"("shard_threads":3,"sample_interval_ms":12.5,"tail":true}})");
}

TEST(JobCodec, DecodeOfEncodeReproducesEveryWireField) {
  const JobRequest job = every_wire_field_set();
  const JobRequest back =
      decode_job_request(json_parse(encode_job_request(job)));
  EXPECT_EQ(back.id, job.id);
  EXPECT_EQ(back.trace, job.trace);
  EXPECT_EQ(back.workload.scale, job.workload.scale);
  EXPECT_EQ(back.workload.speed, job.workload.speed);
  EXPECT_EQ(back.workload.seed, job.workload.seed);
  EXPECT_EQ(back.deadline_ms, job.deadline_ms);
  EXPECT_EQ(back.no_cache, job.no_cache);
  const SimulationConfig& a = job.config;
  const SimulationConfig& b = back.config;
  EXPECT_EQ(b.organization, a.organization);
  EXPECT_EQ(b.array_data_disks, a.array_data_disks);
  EXPECT_EQ(b.striping_unit_blocks, a.striping_unit_blocks);
  EXPECT_EQ(b.sync, a.sync);
  EXPECT_EQ(b.parity_placement, a.parity_placement);
  EXPECT_EQ(b.parity_fine_grain_chunk_blocks,
            a.parity_fine_grain_chunk_blocks);
  EXPECT_EQ(b.disk_scheduling, a.disk_scheduling);
  EXPECT_EQ(b.channel_mb_per_second, a.channel_mb_per_second);
  EXPECT_EQ(b.track_buffers_per_disk, a.track_buffers_per_disk);
  EXPECT_EQ(b.cached, a.cached);
  EXPECT_EQ(b.cache_bytes, a.cache_bytes);
  EXPECT_EQ(b.destage_period_ms, a.destage_period_ms);
  EXPECT_EQ(b.retain_old_data, a.retain_old_data);
  EXPECT_EQ(b.parity_caching, a.parity_caching);
  EXPECT_EQ(b.periodic_destage, a.periodic_destage);
  EXPECT_EQ(b.intent_journal, a.intent_journal);
  EXPECT_EQ(b.shards, a.shards);
  EXPECT_EQ(b.shard_threads, a.shard_threads);
  EXPECT_EQ(b.obs.sample_interval_ms, a.obs.sample_interval_ms);
  EXPECT_EQ(b.tail, a.tail);
  EXPECT_EQ(job_canonical_key(a, job.trace, job.workload),
            job_canonical_key(b, back.trace, back.workload));
}

TEST(JobCodec, NonWireFieldsRejectedByName) {
  // Disk geometry, seek, retry policy and sampler capacity are model
  // constants, not protocol knobs.
  for (const std::string key : {"disk_geometry", "seek", "disk_retry_budget",
                                "sampler_capacity", "tracing"}) {
    try {
      decode_job_request(
          json_parse(R"({"op":"run","config":{")" + key + R"(":1}})"));
      ADD_FAILURE() << "expected invalid_argument for " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << key;
    }
  }
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
  // The retired nested form of "tail": the key now takes a boolean.
  EXPECT_THROW(decode_job_request(json_parse(
                   R"({"op":"run","config":{"tail":{"enabled":true}}})")),
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
