// Tests for the campaign wire format (src/core/wire.h): encode/decode
// identity for ShardDelta, all five observer event records, the three
// process-sharding records (FeedbackRecord, ShardResultRecord,
// ShardChildConfigRecord), and the three durable-state records
// (CampaignManifestRecord, EpochCommitRecord, CrashArtifactRecord —
// doubly load-bearing, since they are also CampaignJournal's on-disk
// format); strict rejection of truncated and corrupt buffers; stream
// framing (FrameSize, CutFrames); a deterministic fuzz pass over random
// buffers and random single-byte corruptions; and one golden v6 frame per
// record type that the codec must reproduce byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/wire.h"
#include "src/support/rng.h"

namespace neco {
namespace {

FuzzInput MakeInput(uint8_t fill) {
  FuzzInput input(kFuzzInputSize, fill);
  input[0] = 0xA5;
  return input;
}

AnomalyReport MakeReport(const std::string& id) {
  return {AnomalyKind::kKasan, id, "KASAN: slab-out-of-bounds in " + id};
}

ShardDelta MakeDelta() {
  ShardDelta delta;
  delta.worker = 2;
  delta.epoch = 7;
  delta.iterations = 125;
  delta.imported = 3;
  delta.virgin.Append(0, 0x01);
  delta.virgin.Append(513, 0x83);
  delta.virgin.Append(65535, 0xFF);
  delta.covered_points = {1, 94, 117};
  delta.queue_entries = {MakeInput(0x00), MakeInput(0x42)};
  delta.findings = {MakeReport("kvm-a"), MakeReport("kvm-b")};
  delta.crash_ids = {"kvm-a", "kvm-b"};
  delta.crash_inputs = {MakeInput(0x61), MakeInput(0x62)};
  return delta;
}

void ExpectEq(const ShardDelta& a, const ShardDelta& b) {
  EXPECT_EQ(a.worker, b.worker);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.imported, b.imported);
  EXPECT_EQ(a.virgin.cells, b.virgin.cells);
  EXPECT_EQ(a.virgin.bits, b.virgin.bits);
  EXPECT_EQ(a.covered_points, b.covered_points);
  EXPECT_EQ(a.queue_entries, b.queue_entries);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].kind, b.findings[i].kind);
    EXPECT_EQ(a.findings[i].bug_id, b.findings[i].bug_id);
    EXPECT_EQ(a.findings[i].message, b.findings[i].message);
  }
  EXPECT_EQ(a.crash_ids, b.crash_ids);
  EXPECT_EQ(a.crash_inputs, b.crash_inputs);
}

TEST(WireTest, ShardDeltaRoundTripIsIdentity) {
  const ShardDelta delta = MakeDelta();
  const wire::Buffer buffer = wire::Encode(delta);

  wire::RecordType type;
  ASSERT_TRUE(wire::PeekType(buffer.data(), buffer.size(), &type));
  EXPECT_EQ(type, wire::RecordType::kShardDelta);

  ShardDelta decoded;
  ASSERT_TRUE(wire::Decode(buffer, &decoded));
  ExpectEq(delta, decoded);
}

TEST(WireTest, EncodeIsExactlySized) {
  // The two-pass encoder sizes each frame before writing it, so the
  // buffer must carry zero slack — what a transport writes is exactly
  // what was allocated. Checked across record shapes (empty and full).
  for (const wire::Buffer& buffer :
       {wire::Encode(MakeDelta()), wire::Encode(ShardDelta{}),
        wire::Encode(SampleEvent{4, 12000, 79.6, 94}),
        wire::Encode(ShardChildConfigRecord{})}) {
    EXPECT_EQ(buffer.capacity(), buffer.size());
    EXPECT_GE(buffer.size(), wire::kFrameHeaderSize);
  }
}

TEST(WireTest, ReferencingEncodeMatchesOwningEncode) {
  // The zero-copy overload serializes queue entries through pointers into
  // the fuzzer's corpus; its frame must be byte-identical to encoding a
  // record that owns the same entries.
  const ShardDelta owning = MakeDelta();
  ShardDelta referencing = owning;
  referencing.queue_entries.clear();  // Ignored by the overload anyway.
  std::vector<const FuzzInput*> refs;
  for (const FuzzInput& input : owning.queue_entries) {
    refs.push_back(&input);
  }
  const wire::Buffer from_refs = wire::Encode(referencing, refs);
  EXPECT_EQ(from_refs, wire::Encode(owning));
  EXPECT_EQ(from_refs.capacity(), from_refs.size());

  ShardDelta decoded;
  ASSERT_TRUE(wire::Decode(from_refs, &decoded));
  ExpectEq(owning, decoded);

  // An owning record with entries present alongside refs: the refs win.
  const wire::Buffer refs_win = wire::Encode(owning, refs);
  EXPECT_EQ(refs_win, wire::Encode(owning));
}

TEST(WireTest, EmptyShardDeltaRoundTrips) {
  // The empty delta is the common case for trailing epochs past a
  // shard's schedule; it must survive the wire unchanged too.
  const ShardDelta empty;
  ShardDelta decoded = MakeDelta();  // Pre-dirtied: Decode must clear it.
  ASSERT_TRUE(wire::Decode(wire::Encode(empty), &decoded));
  ExpectEq(empty, decoded);
}

TEST(WireTest, SampleEventRoundTripIsIdentity) {
  const SampleEvent event{4, 12000, 79.66101694915254, 94};
  SampleEvent decoded;
  ASSERT_TRUE(wire::Decode(wire::Encode(event), &decoded));
  EXPECT_EQ(decoded.epoch, event.epoch);
  EXPECT_EQ(decoded.iteration, event.iteration);
  EXPECT_EQ(decoded.percent, event.percent);  // Bit-exact via the u64 image.
  EXPECT_EQ(decoded.covered_points, event.covered_points);
}

TEST(WireTest, FindingEventRoundTripIsIdentity) {
  const FindingEvent event{3, 1, MakeReport("xen-vmx-shadow")};
  FindingEvent decoded;
  ASSERT_TRUE(wire::Decode(wire::Encode(event), &decoded));
  EXPECT_EQ(decoded.epoch, event.epoch);
  EXPECT_EQ(decoded.worker, event.worker);
  EXPECT_EQ(decoded.report.kind, event.report.kind);
  EXPECT_EQ(decoded.report.bug_id, event.report.bug_id);
  EXPECT_EQ(decoded.report.message, event.report.message);
}

TEST(WireTest, CorpusSyncEventRoundTripIsIdentity) {
  const CorpusSyncEvent event{9, 2, 23, 58};
  CorpusSyncEvent decoded;
  ASSERT_TRUE(wire::Decode(wire::Encode(event), &decoded));
  EXPECT_EQ(decoded.epoch, event.epoch);
  EXPECT_EQ(decoded.worker, event.worker);
  EXPECT_EQ(decoded.published, event.published);
  EXPECT_EQ(decoded.imported, event.imported);
}

TEST(WireTest, ShardDoneEventRoundTripIsIdentity) {
  const ShardDoneEvent event{3, 5000, 81.25, 96, 83, 4, 59, 2};
  ShardDoneEvent decoded;
  ASSERT_TRUE(wire::Decode(wire::Encode(event), &decoded));
  EXPECT_EQ(decoded.worker, event.worker);
  EXPECT_EQ(decoded.iterations, event.iterations);
  EXPECT_EQ(decoded.final_percent, event.final_percent);
  EXPECT_EQ(decoded.covered_points, event.covered_points);
  EXPECT_EQ(decoded.queue_size, event.queue_size);
  EXPECT_EQ(decoded.findings, event.findings);
  EXPECT_EQ(decoded.corpus_imports, event.corpus_imports);
  EXPECT_EQ(decoded.watchdog_restarts, event.watchdog_restarts);
}

TEST(WireTest, FinishEventRoundTripIsIdentity) {
  const FinishEvent event{4, 24, 20000, 80.5, 95, 118, 6, 166};
  FinishEvent decoded;
  ASSERT_TRUE(wire::Decode(wire::Encode(event), &decoded));
  EXPECT_EQ(decoded.workers, event.workers);
  EXPECT_EQ(decoded.epochs, event.epochs);
  EXPECT_EQ(decoded.iterations, event.iterations);
  EXPECT_EQ(decoded.final_percent, event.final_percent);
  EXPECT_EQ(decoded.covered_points, event.covered_points);
  EXPECT_EQ(decoded.total_points, event.total_points);
  EXPECT_EQ(decoded.findings, event.findings);
  EXPECT_EQ(decoded.corpus_imports, event.corpus_imports);
}

FeedbackRecord MakeFeedback() {
  FeedbackRecord record;
  record.epoch = 11;
  record.worker = 3;
  record.pool_entries = {MakeInput(0x10), MakeInput(0x20), MakeInput(0x30)};
  record.virgin.Append(12, 0x01);
  record.virgin.Append(40000, 0xC0);
  return record;
}

ShardResultRecord MakeResult() {
  ShardResultRecord record;
  record.worker = 1;
  record.final_percent = 80.50847457627118;
  record.covered_points = 95;
  record.total_points = 118;
  record.covered_set = {0, 3, 94, 117};
  record.findings = {MakeReport("kvm-a"), MakeReport("kvm-b")};
  record.iterations = 5000;
  record.queue_size = 83;
  record.unique_anomalies = 2;
  record.bitmap_edges = 451;
  record.watchdog_restarts = 1;
  record.imports = 59;
  record.snapshot_hits = 4800;
  record.snapshot_misses = 200;
  record.config_memo_hits = 4810;
  record.restore_ns = 123456789;
  record.crash_ids = {"kvm-a", "kvm-b"};
  record.crash_inputs = {MakeInput(0x61), MakeInput(0x62)};
  return record;
}

ShardChildConfigRecord MakeConfig() {
  ShardChildConfigRecord record;
  record.target = "kvm";
  record.worker = 2;
  record.workers = 4;
  record.epochs = 24;
  record.arch = 1;
  record.iterations = 20000;
  record.samples = 24;
  record.seed = 7;
  record.syncing = 1;
  record.coverage_guidance = 1;
  record.havoc_stack = 16;
  record.splice_percent = 15;
  record.use_harness = 1;
  record.use_validator = 0;
  record.use_configurator = 1;
  record.oracle_interval = 64;
  record.snapshot_cache_size = 32;
  record.crash_dir = "/tmp/crashes";
  return record;
}

TEST(WireTest, FeedbackRecordRoundTripIsIdentity) {
  const FeedbackRecord record = MakeFeedback();
  const wire::Buffer buffer = wire::Encode(record);

  wire::RecordType type;
  ASSERT_TRUE(wire::PeekType(buffer.data(), buffer.size(), &type));
  EXPECT_EQ(type, wire::RecordType::kFeedback);

  FeedbackRecord decoded;
  decoded.pool_entries = {MakeInput(0xFF)};  // Pre-dirtied: must be cleared.
  decoded.virgin.Append(1, 0x01);
  ASSERT_TRUE(wire::Decode(buffer, &decoded));
  EXPECT_EQ(decoded.epoch, record.epoch);
  EXPECT_EQ(decoded.worker, record.worker);
  EXPECT_EQ(decoded.pool_entries, record.pool_entries);
  EXPECT_EQ(decoded.virgin.cells, record.virgin.cells);
  EXPECT_EQ(decoded.virgin.bits, record.virgin.bits);

  // The empty feedback (no pool growth, no new novelty) round-trips too.
  const FeedbackRecord empty;
  ASSERT_TRUE(wire::Decode(wire::Encode(empty), &decoded));
  EXPECT_TRUE(decoded.pool_entries.empty());
  EXPECT_TRUE(decoded.virgin.empty());
}

TEST(WireTest, ShardResultRecordRoundTripIsIdentity) {
  const ShardResultRecord record = MakeResult();
  ShardResultRecord decoded;
  ASSERT_TRUE(wire::Decode(wire::Encode(record), &decoded));
  EXPECT_EQ(decoded.worker, record.worker);
  EXPECT_EQ(decoded.final_percent, record.final_percent);  // Bit-exact f64.
  EXPECT_EQ(decoded.covered_points, record.covered_points);
  EXPECT_EQ(decoded.total_points, record.total_points);
  EXPECT_EQ(decoded.covered_set, record.covered_set);
  ASSERT_EQ(decoded.findings.size(), record.findings.size());
  for (size_t i = 0; i < record.findings.size(); ++i) {
    EXPECT_EQ(decoded.findings[i].kind, record.findings[i].kind);
    EXPECT_EQ(decoded.findings[i].bug_id, record.findings[i].bug_id);
    EXPECT_EQ(decoded.findings[i].message, record.findings[i].message);
  }
  EXPECT_EQ(decoded.iterations, record.iterations);
  EXPECT_EQ(decoded.queue_size, record.queue_size);
  EXPECT_EQ(decoded.unique_anomalies, record.unique_anomalies);
  EXPECT_EQ(decoded.bitmap_edges, record.bitmap_edges);
  EXPECT_EQ(decoded.watchdog_restarts, record.watchdog_restarts);
  EXPECT_EQ(decoded.imports, record.imports);
  EXPECT_EQ(decoded.snapshot_hits, record.snapshot_hits);
  EXPECT_EQ(decoded.snapshot_misses, record.snapshot_misses);
  EXPECT_EQ(decoded.config_memo_hits, record.config_memo_hits);
  EXPECT_EQ(decoded.restore_ns, record.restore_ns);
  EXPECT_EQ(decoded.crash_ids, record.crash_ids);
  EXPECT_EQ(decoded.crash_inputs, record.crash_inputs);
}

TEST(WireTest, ShardDeltaCrashArraysMustAgree) {
  // Same parallel-array contract as ShardResultRecord: a delta whose
  // crash arrays disagree in length is corrupt, not misaligned.
  ShardDelta lopsided = MakeDelta();
  lopsided.crash_ids.pop_back();
  ShardDelta decoded;
  EXPECT_FALSE(wire::Decode(wire::Encode(lopsided), &decoded));
}

TEST(WireTest, ShardResultCrashArraysMustAgree) {
  // crash_ids and crash_inputs are parallel by contract; a record that
  // disagrees with itself (an input without its id, or vice versa) is
  // corrupt and must be rejected, not silently misaligned.
  ShardResultRecord lopsided = MakeResult();
  lopsided.crash_inputs.pop_back();
  ShardResultRecord decoded;
  EXPECT_FALSE(wire::Decode(wire::Encode(lopsided), &decoded));
}

TEST(WireTest, ShardHelloRoundTripAndMagicRejection) {
  ShardHelloRecord hello;
  hello.worker = 5;
  const wire::Buffer buffer = wire::Encode(hello);

  wire::RecordType type;
  ASSERT_TRUE(wire::PeekType(buffer.data(), buffer.size(), &type));
  EXPECT_EQ(type, wire::RecordType::kShardHello);

  ShardHelloRecord decoded;
  ASSERT_TRUE(wire::Decode(buffer, &decoded));
  EXPECT_EQ(decoded.worker, 5);
  EXPECT_EQ(decoded.magic, ShardHelloRecord::kMagic);

  // A stray peer whose bytes parse as a frame still fails the handshake:
  // the magic is part of the contract.
  ShardHelloRecord impostor;
  impostor.magic = 0xDEADBEEF;
  impostor.worker = 0;
  EXPECT_FALSE(wire::Decode(wire::Encode(impostor), &decoded));

  // Every truncation is rejected, like every other record.
  for (size_t len = 0; len < buffer.size(); ++len) {
    EXPECT_FALSE(wire::Decode(buffer.data(), len, &decoded))
        << "length " << len;
  }
}

TEST(WireTest, ShardChildConfigRecordRoundTripIsIdentity) {
  const ShardChildConfigRecord record = MakeConfig();
  ShardChildConfigRecord decoded;
  ASSERT_TRUE(wire::Decode(wire::Encode(record), &decoded));
  EXPECT_EQ(decoded.target, record.target);
  EXPECT_EQ(decoded.worker, record.worker);
  EXPECT_EQ(decoded.workers, record.workers);
  EXPECT_EQ(decoded.epochs, record.epochs);
  EXPECT_EQ(decoded.arch, record.arch);
  EXPECT_EQ(decoded.iterations, record.iterations);
  EXPECT_EQ(decoded.samples, record.samples);
  EXPECT_EQ(decoded.seed, record.seed);
  EXPECT_EQ(decoded.syncing, record.syncing);
  EXPECT_EQ(decoded.coverage_guidance, record.coverage_guidance);
  EXPECT_EQ(decoded.havoc_stack, record.havoc_stack);
  EXPECT_EQ(decoded.splice_percent, record.splice_percent);
  EXPECT_EQ(decoded.use_harness, record.use_harness);
  EXPECT_EQ(decoded.use_validator, record.use_validator);
  EXPECT_EQ(decoded.use_configurator, record.use_configurator);
  EXPECT_EQ(decoded.oracle_interval, record.oracle_interval);
  EXPECT_EQ(decoded.snapshot_cache_size, record.snapshot_cache_size);
  EXPECT_EQ(decoded.crash_dir, record.crash_dir);

  // An out-of-range Arch byte is rejected, not cast blindly.
  wire::Buffer bad_arch = wire::Encode(record);
  // Payload layout: target str (4 + 3), worker i32, workers i32, epochs
  // u64, then the arch byte.
  const size_t arch_offset = 6 + (4 + 3) + 4 + 4 + 8;
  bad_arch[arch_offset] = 9;
  EXPECT_FALSE(wire::Decode(bad_arch, &decoded));
}

// --- Durable-state records (CampaignJournal's on-disk format) ------------

CampaignManifestRecord MakeManifest() {
  CampaignManifestRecord record;
  record.committed_epochs = 5;
  record.epochs = 24;
  record.workers = 4;
  record.samples = 24;
  record.arch = 1;
  record.iterations = 20000;
  record.seed = 7;
  record.corpus_sync = 1;
  record.coverage_guidance = 1;
  record.havoc_stack = 16;
  record.splice_percent = 15;
  record.use_harness = 1;
  record.use_validator = 0;
  record.use_configurator = 1;
  record.oracle_interval = 64;
  record.target = "kvm";
  return record;
}

EpochCommitRecord MakeEpochCommit() {
  EpochCommitRecord record;
  record.epoch = 5;
  record.workers = 4;
  record.checksum = 0xDEADBEEFCAFEF00DULL;
  record.iterations = 5000;
  record.covered_points = 95;
  record.pool_end = 83;
  record.findings = 2;
  record.crash_artifacts = 2;
  record.percent = 80.50847457627118;
  return record;
}

CrashArtifactRecord MakeCrashArtifact() {
  CrashArtifactRecord record;
  record.seq = 3;
  record.report = MakeReport("kvm-nsvm-dummy-root");
  record.hypervisor = "kvm";
  record.arch = "amd";
  record.iteration = 412;
  record.input = MakeInput(0x5C);
  return record;
}

TEST(WireTest, CampaignManifestRoundTripAndMagicRejection) {
  const CampaignManifestRecord record = MakeManifest();
  const wire::Buffer buffer = wire::Encode(record);

  wire::RecordType type;
  ASSERT_TRUE(wire::PeekType(buffer.data(), buffer.size(), &type));
  EXPECT_EQ(type, wire::RecordType::kManifest);

  CampaignManifestRecord decoded;
  ASSERT_TRUE(wire::Decode(buffer, &decoded));
  EXPECT_EQ(decoded.magic, CampaignManifestRecord::kMagic);
  EXPECT_EQ(decoded.committed_epochs, record.committed_epochs);
  EXPECT_EQ(decoded.epochs, record.epochs);
  EXPECT_EQ(decoded.workers, record.workers);
  EXPECT_EQ(decoded.samples, record.samples);
  EXPECT_EQ(decoded.arch, record.arch);
  EXPECT_EQ(decoded.iterations, record.iterations);
  EXPECT_EQ(decoded.seed, record.seed);
  EXPECT_EQ(decoded.corpus_sync, record.corpus_sync);
  EXPECT_EQ(decoded.coverage_guidance, record.coverage_guidance);
  EXPECT_EQ(decoded.havoc_stack, record.havoc_stack);
  EXPECT_EQ(decoded.splice_percent, record.splice_percent);
  EXPECT_EQ(decoded.use_harness, record.use_harness);
  EXPECT_EQ(decoded.use_validator, record.use_validator);
  EXPECT_EQ(decoded.use_configurator, record.use_configurator);
  EXPECT_EQ(decoded.oracle_interval, record.oracle_interval);
  EXPECT_EQ(decoded.target, record.target);

  // A file that parses as a frame but is not a manifest (wrong magic, or
  // a nonsense arch byte) is rejected, not trusted as a commit point.
  CampaignManifestRecord impostor = record;
  impostor.magic = 0xDEADBEEF;
  EXPECT_FALSE(wire::Decode(wire::Encode(impostor), &decoded));
  CampaignManifestRecord bad_arch = record;
  bad_arch.arch = 9;
  EXPECT_FALSE(wire::Decode(wire::Encode(bad_arch), &decoded));
}

TEST(WireTest, EpochCommitRecordRoundTripIsIdentity) {
  const EpochCommitRecord record = MakeEpochCommit();
  const wire::Buffer buffer = wire::Encode(record);

  wire::RecordType type;
  ASSERT_TRUE(wire::PeekType(buffer.data(), buffer.size(), &type));
  EXPECT_EQ(type, wire::RecordType::kEpochCommit);

  EpochCommitRecord decoded;
  ASSERT_TRUE(wire::Decode(buffer, &decoded));
  EXPECT_EQ(decoded.epoch, record.epoch);
  EXPECT_EQ(decoded.workers, record.workers);
  EXPECT_EQ(decoded.checksum, record.checksum);
  EXPECT_EQ(decoded.iterations, record.iterations);
  EXPECT_EQ(decoded.covered_points, record.covered_points);
  EXPECT_EQ(decoded.pool_end, record.pool_end);
  EXPECT_EQ(decoded.findings, record.findings);
  EXPECT_EQ(decoded.crash_artifacts, record.crash_artifacts);
  EXPECT_EQ(decoded.percent, record.percent);  // Bit-exact f64.
}

TEST(WireTest, CrashArtifactRecordRoundTripIsIdentity) {
  const CrashArtifactRecord record = MakeCrashArtifact();
  const wire::Buffer buffer = wire::Encode(record);

  wire::RecordType type;
  ASSERT_TRUE(wire::PeekType(buffer.data(), buffer.size(), &type));
  EXPECT_EQ(type, wire::RecordType::kCrashArtifact);

  CrashArtifactRecord decoded;
  ASSERT_TRUE(wire::Decode(buffer, &decoded));
  EXPECT_EQ(decoded.seq, record.seq);
  EXPECT_EQ(decoded.report.kind, record.report.kind);
  EXPECT_EQ(decoded.report.bug_id, record.report.bug_id);
  EXPECT_EQ(decoded.report.message, record.report.message);
  EXPECT_EQ(decoded.hypervisor, record.hypervisor);
  EXPECT_EQ(decoded.arch, record.arch);
  EXPECT_EQ(decoded.iteration, record.iteration);
  EXPECT_EQ(decoded.input, record.input);
}

TEST(WireTest, EveryTruncationIsRejected) {
  const wire::Buffer full = wire::Encode(MakeDelta());
  ShardDelta out;
  for (size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(wire::Decode(full.data(), len, &out)) << "length " << len;
  }
  ASSERT_TRUE(wire::Decode(full, &out));

  const wire::Buffer event = wire::Encode(SampleEvent{1, 2, 3.0, 4});
  SampleEvent sample;
  for (size_t len = 0; len < event.size(); ++len) {
    EXPECT_FALSE(wire::Decode(event.data(), len, &sample)) << "length " << len;
  }

  const wire::Buffer finding_event =
      wire::Encode(FindingEvent{7, 3, MakeReport("truncate-me")});
  FindingEvent finding_out;
  for (size_t len = 0; len < finding_event.size(); ++len) {
    EXPECT_FALSE(wire::Decode(finding_event.data(), len, &finding_out))
        << "length " << len;
  }

  const wire::Buffer sync = wire::Encode(CorpusSyncEvent{1, 0, 2, 3});
  CorpusSyncEvent sync_out;
  for (size_t len = 0; len < sync.size(); ++len) {
    EXPECT_FALSE(wire::Decode(sync.data(), len, &sync_out))
        << "length " << len;
  }

  const wire::Buffer done =
      wire::Encode(ShardDoneEvent{3, 5000, 81.25, 96, 83, 4, 59, 2});
  ShardDoneEvent done_out;
  for (size_t len = 0; len < done.size(); ++len) {
    EXPECT_FALSE(wire::Decode(done.data(), len, &done_out))
        << "length " << len;
  }

  const wire::Buffer finish =
      wire::Encode(FinishEvent{4, 24, 20000, 80.5, 95, 118, 6, 166});
  FinishEvent finish_out;
  for (size_t len = 0; len < finish.size(); ++len) {
    EXPECT_FALSE(wire::Decode(finish.data(), len, &finish_out))
        << "length " << len;
  }

  // The process-sharding records reject every truncation too.
  const wire::Buffer feedback = wire::Encode(MakeFeedback());
  FeedbackRecord feedback_out;
  for (size_t len = 0; len < feedback.size(); ++len) {
    EXPECT_FALSE(wire::Decode(feedback.data(), len, &feedback_out))
        << "length " << len;
  }
  ASSERT_TRUE(wire::Decode(feedback, &feedback_out));

  const wire::Buffer result = wire::Encode(MakeResult());
  ShardResultRecord result_out;
  for (size_t len = 0; len < result.size(); ++len) {
    EXPECT_FALSE(wire::Decode(result.data(), len, &result_out))
        << "length " << len;
  }

  const wire::Buffer config = wire::Encode(MakeConfig());
  ShardChildConfigRecord config_out;
  for (size_t len = 0; len < config.size(); ++len) {
    EXPECT_FALSE(wire::Decode(config.data(), len, &config_out))
        << "length " << len;
  }

  // A truncated durable-state record is a torn state file; it must be
  // rejected on reopen like a torn pipe frame.
  const wire::Buffer manifest = wire::Encode(MakeManifest());
  CampaignManifestRecord manifest_out;
  for (size_t len = 0; len < manifest.size(); ++len) {
    EXPECT_FALSE(wire::Decode(manifest.data(), len, &manifest_out))
        << "length " << len;
  }

  const wire::Buffer commit = wire::Encode(MakeEpochCommit());
  EpochCommitRecord commit_out;
  for (size_t len = 0; len < commit.size(); ++len) {
    EXPECT_FALSE(wire::Decode(commit.data(), len, &commit_out))
        << "length " << len;
  }

  const wire::Buffer artifact = wire::Encode(MakeCrashArtifact());
  CrashArtifactRecord artifact_out;
  for (size_t len = 0; len < artifact.size(); ++len) {
    EXPECT_FALSE(wire::Decode(artifact.data(), len, &artifact_out))
        << "length " << len;
  }
}

TEST(WireTest, TrailingBytesAreRejected) {
  wire::Buffer buffer = wire::Encode(CorpusSyncEvent{1, 0, 2, 3});
  buffer.push_back(0);  // Length field no longer matches the frame.
  CorpusSyncEvent out;
  EXPECT_FALSE(wire::Decode(buffer, &out));
}

TEST(WireTest, WrongTypeVersionAndLengthAreRejected) {
  wire::Buffer buffer = wire::Encode(MakeDelta());
  ShardDelta out;

  // Decoding as a different record type.
  SampleEvent sample;
  EXPECT_FALSE(wire::Decode(buffer, &sample));

  // Unknown future version.
  wire::Buffer bad_version = buffer;
  bad_version[1] = wire::kVersion + 1;
  EXPECT_FALSE(wire::Decode(bad_version, &out));

  // Length field shorter / longer than the payload.
  wire::Buffer bad_length = buffer;
  bad_length[2] ^= 0x01;
  EXPECT_FALSE(wire::Decode(bad_length, &out));

  // Unknown record type is also unpeekable.
  wire::Buffer bad_type = buffer;
  bad_type[0] = 0x7F;
  wire::RecordType type;
  EXPECT_FALSE(wire::PeekType(bad_type.data(), bad_type.size(), &type));
  EXPECT_FALSE(wire::Decode(bad_type, &out));
}

TEST(WireTest, FeedbackRecordCorruptHeadersAreRejected) {
  const wire::Buffer buffer = wire::Encode(MakeFeedback());
  FeedbackRecord out;

  // Decoding as a different record type (and vice versa).
  ShardDelta delta;
  EXPECT_FALSE(wire::Decode(buffer, &delta));
  EXPECT_FALSE(wire::Decode(wire::Encode(MakeDelta()), &out));

  wire::Buffer bad_version = buffer;
  bad_version[1] = wire::kVersion + 1;
  EXPECT_FALSE(wire::Decode(bad_version, &out));

  wire::Buffer bad_length = buffer;
  bad_length[2] ^= 0x01;
  EXPECT_FALSE(wire::Decode(bad_length, &out));

  wire::Buffer trailing = buffer;
  trailing.push_back(0);
  EXPECT_FALSE(wire::Decode(trailing, &out));

  // A pool-entry count the payload cannot possibly hold is rejected by
  // the remaining-bytes guard, never attempted as an allocation.
  wire::Buffer huge_count = buffer;
  const size_t pool_count_offset = 6 + 8 + 4;  // Header, epoch, worker.
  for (size_t i = 0; i < 4; ++i) {
    huge_count[pool_count_offset + i] = 0xFF;
  }
  EXPECT_FALSE(wire::Decode(huge_count, &out));
}

TEST(WireTest, HugeCountFieldsAreRejectedWithoutAllocating) {
  // The first count in a ShardDelta payload sits right after the three
  // u64s and the worker id. Blowing it up to 4 billion must be rejected
  // by the remaining-bytes guard, not attempted.
  wire::Buffer buffer = wire::Encode(MakeDelta());
  const size_t virgin_count_offset = 6 + 4 + 8 + 8 + 8;
  for (size_t i = 0; i < 4; ++i) {
    buffer[virgin_count_offset + i] = 0xFF;
  }
  ShardDelta out;
  EXPECT_FALSE(wire::Decode(buffer, &out));

  // An out-of-range enum value inside a finding is rejected too.
  const ShardDelta delta = MakeDelta();
  wire::Buffer encoded = wire::Encode(delta);
  // The last finding's kind byte: walk back from the end over the crash
  // arrays (count + entries each), then the finding's message (4 + len),
  // bug_id (4 + len), kind (1).
  size_t crash_tail = 4 + 4;
  for (const std::string& id : delta.crash_ids) {
    crash_tail += 4 + id.size();
  }
  for (const FuzzInput& input : delta.crash_inputs) {
    crash_tail += 4 + input.size();
  }
  const AnomalyReport& last = delta.findings.back();
  const size_t kind_offset = encoded.size() - crash_tail -
                             (4 + last.message.size()) -
                             (4 + last.bug_id.size()) - 1;
  encoded[kind_offset] = 0xEE;
  EXPECT_FALSE(wire::Decode(encoded, &out));
}

TEST(WireTest, RandomBuffersNeverCrashTheDecoder) {
  // Deterministic decoder fuzzing: random garbage must be rejected (or,
  // vanishingly unlikely, accepted) without crashing or overreading.
  Rng rng(0x57495245);  // "WIRE"
  ShardDelta delta;
  SampleEvent sample;
  FindingEvent finding;
  CorpusSyncEvent sync;
  ShardDoneEvent done;
  FinishEvent finish;
  FeedbackRecord feedback;
  ShardResultRecord result;
  ShardChildConfigRecord config;
  ShardHelloRecord hello;
  CampaignManifestRecord manifest;
  EpochCommitRecord commit;
  CrashArtifactRecord artifact;
  for (int i = 0; i < 2000; ++i) {
    wire::Buffer buffer(rng.Below(160));
    for (auto& byte : buffer) {
      byte = static_cast<uint8_t>(rng.Below(256));
    }
    wire::Decode(buffer, &delta);
    wire::Decode(buffer, &sample);
    wire::Decode(buffer, &finding);
    wire::Decode(buffer, &sync);
    wire::Decode(buffer, &done);
    wire::Decode(buffer, &finish);
    wire::Decode(buffer, &feedback);
    wire::Decode(buffer, &result);
    wire::Decode(buffer, &config);
    wire::Decode(buffer, &hello);
    wire::Decode(buffer, &manifest);
    wire::Decode(buffer, &commit);
    wire::Decode(buffer, &artifact);
  }
}

TEST(WireTest, CorruptedValidBuffersNeverCrashTheDecoder) {
  // Single-byte corruptions of a valid record: many decode fine (payload
  // bytes), the rest must be rejected cleanly — never a crash.
  const wire::Buffer clean = wire::Encode(MakeDelta());
  Rng rng(0xC0DEC);
  ShardDelta out;
  for (int i = 0; i < 2000; ++i) {
    wire::Buffer corrupt = clean;
    corrupt[rng.Below(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    wire::Decode(corrupt, &out);
  }

  // Same pass over the process-sharding records that travel real pipes.
  const wire::Buffer clean_feedback = wire::Encode(MakeFeedback());
  FeedbackRecord feedback;
  const wire::Buffer clean_result = wire::Encode(MakeResult());
  ShardResultRecord result;
  const wire::Buffer clean_config = wire::Encode(MakeConfig());
  ShardChildConfigRecord config;
  for (int i = 0; i < 2000; ++i) {
    wire::Buffer corrupt = clean_feedback;
    corrupt[rng.Below(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    wire::Decode(corrupt, &feedback);

    corrupt = clean_result;
    corrupt[rng.Below(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    wire::Decode(corrupt, &result);

    corrupt = clean_config;
    corrupt[rng.Below(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    wire::Decode(corrupt, &config);
  }

  // And over the durable-state records that live on disk, where a bad
  // sector plays the role of the corrupting peer.
  const wire::Buffer clean_manifest = wire::Encode(MakeManifest());
  CampaignManifestRecord manifest;
  const wire::Buffer clean_artifact = wire::Encode(MakeCrashArtifact());
  CrashArtifactRecord artifact;
  for (int i = 0; i < 2000; ++i) {
    wire::Buffer corrupt = clean_manifest;
    corrupt[rng.Below(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    wire::Decode(corrupt, &manifest);

    corrupt = clean_artifact;
    corrupt[rng.Below(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    wire::Decode(corrupt, &artifact);
  }
}

TEST(WireTest, RandomFeedbackRecordsRoundTripExactly) {
  // Property fuzz: arbitrary well-formed feedback survives the wire.
  Rng rng(0xF33DBACC);
  for (int round = 0; round < 50; ++round) {
    FeedbackRecord record;
    record.epoch = rng.Below(1 << 20);
    record.worker = static_cast<int>(rng.Below(64));
    for (size_t i = rng.Below(4); i > 0; --i) {
      FuzzInput input(rng.Below(kFuzzInputSize + 1));
      for (auto& byte : input) {
        byte = static_cast<uint8_t>(rng.Below(256));
      }
      record.pool_entries.push_back(std::move(input));
    }
    for (size_t i = rng.Below(40); i > 0; --i) {
      record.virgin.Append(static_cast<uint32_t>(rng.Below(1 << 16)),
                           static_cast<uint8_t>(1 + rng.Below(255)));
    }
    FeedbackRecord decoded;
    ASSERT_TRUE(wire::Decode(wire::Encode(record), &decoded));
    EXPECT_EQ(decoded.epoch, record.epoch);
    EXPECT_EQ(decoded.worker, record.worker);
    EXPECT_EQ(decoded.pool_entries, record.pool_entries);
    EXPECT_EQ(decoded.virgin.cells, record.virgin.cells);
    EXPECT_EQ(decoded.virgin.bits, record.virgin.bits);
  }
}

TEST(WireTest, FrameSizeCutsStreamsCorrectly) {
  const wire::Buffer a = wire::Encode(MakeDelta());
  const wire::Buffer b = wire::Encode(MakeFeedback());
  wire::Buffer stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  // The head frame's size is visible as soon as the header arrived.
  size_t size = 0;
  EXPECT_FALSE(wire::FrameSize(stream.data(), 5, &size));  // Short header.
  ASSERT_TRUE(wire::FrameSize(stream.data(), wire::kFrameHeaderSize, &size));
  EXPECT_EQ(size, a.size());
  ASSERT_TRUE(wire::FrameSize(stream.data() + a.size(),
                              stream.size() - a.size(), &size));
  EXPECT_EQ(size, b.size());

  // Unknown type bytes and absurd lengths are invalid, not "wait for 4
  // GiB of payload".
  wire::Buffer bad = a;
  bad[0] = 0x7F;
  EXPECT_FALSE(wire::FrameSize(bad.data(), bad.size(), &size));
  bad = a;
  bad[2] = bad[3] = bad[4] = bad[5] = 0xFF;
  EXPECT_FALSE(wire::FrameSize(bad.data(), bad.size(), &size));
}

TEST(WireTest, CutFramesRejectsTornBuffers) {
  // The shared cutter behind epoch journal and snapshot files: whole
  // frames in order, and any buffer that does not end on a frame
  // boundary is torn.
  const wire::Buffer a = wire::Encode(MakeDelta());
  const wire::Buffer b = wire::Encode(MakeFeedback());
  wire::Buffer file = a;
  file.insert(file.end(), b.begin(), b.end());

  std::vector<wire::FrameSpan> spans;
  ASSERT_TRUE(wire::CutFrames(file.data(), file.size(), &spans));
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].offset, 0u);
  EXPECT_EQ(spans[0].size, a.size());
  EXPECT_EQ(spans[1].offset, a.size());
  EXPECT_EQ(spans[1].size, b.size());
  ASSERT_TRUE(wire::CutFrames(file.data(), 0, &spans));
  EXPECT_TRUE(spans.empty());

  // A length that overruns the end, a header cut short, a bad type byte.
  EXPECT_FALSE(wire::CutFrames(file.data(), file.size() - 1, &spans));
  EXPECT_FALSE(wire::CutFrames(file.data(), a.size() + 3, &spans));
  wire::Buffer garbage = file;
  garbage[a.size()] = 0x7F;
  EXPECT_FALSE(wire::CutFrames(garbage.data(), garbage.size(), &spans));
}

// --- Materialized snapshot records (wire v6) -----------------------------

WorkerStateRecord MakeWorkerState() {
  WorkerStateRecord record;
  record.worker = 2;
  record.epochs_covered = 10;
  record.mutator_rng.s[0] = 0x1111111111111111ULL;
  record.mutator_rng.s[3] = 0x4444444444444444ULL;
  record.corpus_rng.s[1] = 0x2222222222222222ULL;
  record.iterations = 4200;
  QueueEntry entry;
  entry.input = MakeInput(0x11);
  entry.discovered_at_iter = 97;
  entry.times_fuzzed = 12;
  entry.new_edges = 5;
  entry.favored = true;
  record.corpus.push_back(entry);
  entry.input = MakeInput(0x22);
  entry.favored = false;
  record.corpus.push_back(entry);
  record.virgin.Append(3, 0x01);
  record.virgin.Append(700, 0x80);
  record.crash_ids = {"kvm-a", "kvm-b"};
  record.crash_inputs = {MakeInput(0x61), MakeInput(0x62)};
  record.executions = 4217;
  record.watchdog_restarts = 1;
  record.snapshot_hits = 4000;
  record.snapshot_misses = 217;
  record.config_memo_hits = 4100;
  record.restore_ns = 987654321;
  record.findings = {MakeReport("kvm-a"), MakeReport("kvm-b")};
  record.vmx_suppressed_checks = {0, 1};
  record.vmx_learned_fixups = {0};
  record.svm_suppressed_checks = {1};
  record.host_crashed = 1;
  record.host_restarts = 3;
  record.covered = {0, 7, 94, 117};
  record.hit_events = 5123;
  record.imports = 42;
  return record;
}

SnapshotMergedStateRecord MakeMergedState() {
  SnapshotMergedStateRecord record;
  record.epochs_covered = 10;
  record.virgin.Append(1, 0x01);
  record.virgin.Append(40000, 0xC0);
  record.covered = {0, 3, 94, 117};
  record.findings = {MakeReport("kvm-a"), MakeReport("kvm-b")};
  record.prior_pool_end = 2;
  record.pool_end = 5;
  record.pool_origins = {0, 2, 1};
  record.pool_inputs = {MakeInput(0x31), MakeInput(0x32), MakeInput(0x33)};
  record.series_iterations = {500, 1000, 1500};
  record.series_percents = {10.5, 40.25, 79.66101694915254};
  record.total_iterations = 1500;
  record.feedback_virgin.Append(12, 0x01);
  return record;
}

TEST(WireTest, WorkerStateRecordRoundTripIsIdentity) {
  const WorkerStateRecord record = MakeWorkerState();
  const wire::Buffer buffer = wire::Encode(record);

  wire::RecordType type;
  ASSERT_TRUE(wire::PeekType(buffer.data(), buffer.size(), &type));
  EXPECT_EQ(type, wire::RecordType::kWorkerState);

  WorkerStateRecord decoded;
  decoded.corpus.push_back(QueueEntry{});  // Pre-dirtied: must be cleared.
  decoded.covered = {9999};
  ASSERT_TRUE(wire::Decode(buffer, &decoded));
  EXPECT_EQ(decoded.worker, record.worker);
  EXPECT_EQ(decoded.epochs_covered, record.epochs_covered);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(decoded.mutator_rng.s[i], record.mutator_rng.s[i]);
    EXPECT_EQ(decoded.corpus_rng.s[i], record.corpus_rng.s[i]);
  }
  EXPECT_EQ(decoded.iterations, record.iterations);
  ASSERT_EQ(decoded.corpus.size(), record.corpus.size());
  for (size_t i = 0; i < record.corpus.size(); ++i) {
    EXPECT_EQ(decoded.corpus[i].input, record.corpus[i].input);
    EXPECT_EQ(decoded.corpus[i].discovered_at_iter,
              record.corpus[i].discovered_at_iter);
    EXPECT_EQ(decoded.corpus[i].times_fuzzed, record.corpus[i].times_fuzzed);
    EXPECT_EQ(decoded.corpus[i].new_edges, record.corpus[i].new_edges);
    EXPECT_EQ(decoded.corpus[i].favored, record.corpus[i].favored);
  }
  EXPECT_EQ(decoded.virgin.cells, record.virgin.cells);
  EXPECT_EQ(decoded.virgin.bits, record.virgin.bits);
  EXPECT_EQ(decoded.crash_ids, record.crash_ids);
  EXPECT_EQ(decoded.crash_inputs, record.crash_inputs);
  EXPECT_EQ(decoded.executions, record.executions);
  EXPECT_EQ(decoded.watchdog_restarts, record.watchdog_restarts);
  EXPECT_EQ(decoded.snapshot_hits, record.snapshot_hits);
  EXPECT_EQ(decoded.snapshot_misses, record.snapshot_misses);
  EXPECT_EQ(decoded.config_memo_hits, record.config_memo_hits);
  EXPECT_EQ(decoded.restore_ns, record.restore_ns);
  ASSERT_EQ(decoded.findings.size(), record.findings.size());
  for (size_t i = 0; i < record.findings.size(); ++i) {
    EXPECT_EQ(decoded.findings[i].bug_id, record.findings[i].bug_id);
  }
  EXPECT_EQ(decoded.vmx_suppressed_checks, record.vmx_suppressed_checks);
  EXPECT_EQ(decoded.vmx_learned_fixups, record.vmx_learned_fixups);
  EXPECT_EQ(decoded.svm_suppressed_checks, record.svm_suppressed_checks);
  EXPECT_EQ(decoded.host_crashed, record.host_crashed);
  EXPECT_EQ(decoded.host_restarts, record.host_restarts);
  EXPECT_EQ(decoded.covered, record.covered);
  EXPECT_EQ(decoded.hit_events, record.hit_events);
  EXPECT_EQ(decoded.imports, record.imports);

  // The empty record (fresh shard, nothing learned) round-trips too.
  WorkerStateRecord empty;
  ASSERT_TRUE(wire::Decode(wire::Encode(empty), &decoded));
  EXPECT_TRUE(decoded.corpus.empty());
  EXPECT_TRUE(decoded.covered.empty());
}

TEST(WireTest, SnapshotMergedStateRecordRoundTripIsIdentity) {
  const SnapshotMergedStateRecord record = MakeMergedState();
  const wire::Buffer buffer = wire::Encode(record);

  wire::RecordType type;
  ASSERT_TRUE(wire::PeekType(buffer.data(), buffer.size(), &type));
  EXPECT_EQ(type, wire::RecordType::kSnapshotMerged);

  SnapshotMergedStateRecord decoded;
  decoded.pool_inputs = {MakeInput(0xFF)};  // Pre-dirtied: must be cleared.
  ASSERT_TRUE(wire::Decode(buffer, &decoded));
  EXPECT_EQ(decoded.epochs_covered, record.epochs_covered);
  EXPECT_EQ(decoded.virgin.cells, record.virgin.cells);
  EXPECT_EQ(decoded.virgin.bits, record.virgin.bits);
  EXPECT_EQ(decoded.covered, record.covered);
  ASSERT_EQ(decoded.findings.size(), record.findings.size());
  for (size_t i = 0; i < record.findings.size(); ++i) {
    EXPECT_EQ(decoded.findings[i].bug_id, record.findings[i].bug_id);
  }
  EXPECT_EQ(decoded.prior_pool_end, record.prior_pool_end);
  EXPECT_EQ(decoded.pool_end, record.pool_end);
  EXPECT_EQ(decoded.pool_origins, record.pool_origins);
  EXPECT_EQ(decoded.pool_inputs, record.pool_inputs);
  EXPECT_EQ(decoded.series_iterations, record.series_iterations);
  EXPECT_EQ(decoded.series_percents, record.series_percents);  // Bit-exact.
  EXPECT_EQ(decoded.total_iterations, record.total_iterations);
  EXPECT_EQ(decoded.feedback_virgin.cells, record.feedback_virgin.cells);
  EXPECT_EQ(decoded.feedback_virgin.bits, record.feedback_virgin.bits);
}

TEST(WireTest, CampaignSnapshotRecordRoundTripAndMagicRejection) {
  CampaignSnapshotRecord record;
  record.epochs_covered = 10;
  record.workers = 4;
  record.checksum = 0xDEADBEEFCAFEF00DULL;
  const wire::Buffer buffer = wire::Encode(record);

  wire::RecordType type;
  ASSERT_TRUE(wire::PeekType(buffer.data(), buffer.size(), &type));
  EXPECT_EQ(type, wire::RecordType::kCampaignSnapshot);

  CampaignSnapshotRecord decoded;
  ASSERT_TRUE(wire::Decode(buffer, &decoded));
  EXPECT_EQ(decoded.magic, CampaignSnapshotRecord::kMagic);
  EXPECT_EQ(decoded.epochs_covered, record.epochs_covered);
  EXPECT_EQ(decoded.workers, record.workers);
  EXPECT_EQ(decoded.checksum, record.checksum);

  // A trailer with the wrong magic is some other file, not a snapshot.
  CampaignSnapshotRecord impostor = record;
  impostor.magic = 0xDEADBEEF;
  EXPECT_FALSE(wire::Decode(wire::Encode(impostor), &decoded));

  // Every truncation is rejected: a torn trailer means a torn snapshot.
  for (size_t len = 0; len < buffer.size(); ++len) {
    EXPECT_FALSE(wire::Decode(buffer.data(), len, &decoded))
        << "length " << len;
  }
}

TEST(WireTest, SnapshotRecordTruncationsAreRejected) {
  // A truncated snapshot frame is a torn snapshot file: every prefix must
  // be rejected so resume falls back to the previous generation.
  const wire::Buffer state = wire::Encode(MakeWorkerState());
  WorkerStateRecord state_out;
  for (size_t len = 0; len < state.size(); ++len) {
    EXPECT_FALSE(wire::Decode(state.data(), len, &state_out))
        << "length " << len;
  }
  ASSERT_TRUE(wire::Decode(state, &state_out));

  const wire::Buffer merged = wire::Encode(MakeMergedState());
  SnapshotMergedStateRecord merged_out;
  for (size_t len = 0; len < merged.size(); ++len) {
    EXPECT_FALSE(wire::Decode(merged.data(), len, &merged_out))
        << "length " << len;
  }
  ASSERT_TRUE(wire::Decode(merged, &merged_out));

  // Trailing bytes violate the exact-length contract for both.
  wire::Buffer trailing = state;
  trailing.push_back(0);
  EXPECT_FALSE(wire::Decode(trailing, &state_out));
  trailing = merged;
  trailing.push_back(0);
  EXPECT_FALSE(wire::Decode(trailing, &merged_out));
}

TEST(WireTest, WorkerStateCrashArraysAndQuirksMustAgree) {
  // Parallel crash arrays, like ShardDelta and ShardResultRecord.
  WorkerStateRecord lopsided = MakeWorkerState();
  lopsided.crash_inputs.pop_back();
  WorkerStateRecord decoded;
  EXPECT_FALSE(wire::Decode(wire::Encode(lopsided), &decoded));

  // Learned quirk values index validator enums; out-of-range values
  // cannot round-trip through the quirk tables and are rejected.
  WorkerStateRecord bad_check = MakeWorkerState();
  bad_check.vmx_suppressed_checks.push_back(0xFFFF);
  EXPECT_FALSE(wire::Decode(wire::Encode(bad_check), &decoded));
  WorkerStateRecord bad_fixup = MakeWorkerState();
  bad_fixup.vmx_learned_fixups.push_back(0xFF);
  EXPECT_FALSE(wire::Decode(wire::Encode(bad_fixup), &decoded));
  WorkerStateRecord bad_svm = MakeWorkerState();
  bad_svm.svm_suppressed_checks.push_back(0xFFFF);
  EXPECT_FALSE(wire::Decode(wire::Encode(bad_svm), &decoded));
}

TEST(WireTest, SnapshotMergedPoolBoundsMustAgree) {
  // The shipped pool slice is exactly [prior_pool_end, pool_end); a
  // record whose bounds and slice disagree is corrupt, not resizable.
  SnapshotMergedStateRecord inverted = MakeMergedState();
  inverted.prior_pool_end = inverted.pool_end + 1;
  SnapshotMergedStateRecord decoded;
  EXPECT_FALSE(wire::Decode(wire::Encode(inverted), &decoded));

  SnapshotMergedStateRecord short_slice = MakeMergedState();
  short_slice.pool_origins.pop_back();
  short_slice.pool_inputs.pop_back();  // Bounds still promise 3 entries.
  EXPECT_FALSE(wire::Decode(wire::Encode(short_slice), &decoded));
}

TEST(WireTest, SnapshotRecordCorruptionsNeverCrashTheDecoder) {
  // The deterministic fuzz passes from the other records, extended to the
  // snapshot trio: random garbage and single-byte corruptions must be
  // rejected (or accepted) without crashing or overreading.
  Rng rng(0x534E4150);  // "SNAP"
  WorkerStateRecord state;
  SnapshotMergedStateRecord merged;
  CampaignSnapshotRecord trailer;
  for (int i = 0; i < 2000; ++i) {
    wire::Buffer buffer(rng.Below(160));
    for (auto& byte : buffer) {
      byte = static_cast<uint8_t>(rng.Below(256));
    }
    wire::Decode(buffer, &state);
    wire::Decode(buffer, &merged);
    wire::Decode(buffer, &trailer);
  }

  const wire::Buffer clean_state = wire::Encode(MakeWorkerState());
  const wire::Buffer clean_merged = wire::Encode(MakeMergedState());
  CampaignSnapshotRecord valid_trailer;
  valid_trailer.epochs_covered = 10;
  valid_trailer.workers = 4;
  valid_trailer.checksum = 0x1234;
  const wire::Buffer clean_trailer = wire::Encode(valid_trailer);
  for (int i = 0; i < 2000; ++i) {
    wire::Buffer corrupt = clean_state;
    corrupt[rng.Below(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    wire::Decode(corrupt, &state);

    corrupt = clean_merged;
    corrupt[rng.Below(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    wire::Decode(corrupt, &merged);

    corrupt = clean_trailer;
    corrupt[rng.Below(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    wire::Decode(corrupt, &trailer);
  }
}

TEST(WireTest, RandomDeltasRoundTripExactly) {
  // Property fuzz: arbitrary well-formed deltas survive the wire.
  Rng rng(0xD317A);
  for (int round = 0; round < 50; ++round) {
    ShardDelta delta;
    delta.worker = static_cast<int>(rng.Below(64));
    delta.epoch = rng.Below(1 << 20);
    delta.iterations = rng.Below(1 << 20);
    delta.imported = rng.Below(1 << 10);
    for (size_t i = rng.Below(40); i > 0; --i) {
      delta.virgin.Append(static_cast<uint32_t>(rng.Below(1 << 16)),
                          static_cast<uint8_t>(1 + rng.Below(255)));
    }
    for (size_t i = rng.Below(20); i > 0; --i) {
      delta.covered_points.push_back(static_cast<uint32_t>(rng.Below(4096)));
    }
    for (size_t i = rng.Below(4); i > 0; --i) {
      FuzzInput input(rng.Below(kFuzzInputSize + 1));
      for (auto& byte : input) {
        byte = static_cast<uint8_t>(rng.Below(256));
      }
      delta.queue_entries.push_back(std::move(input));
    }
    for (size_t i = rng.Below(4); i > 0; --i) {
      delta.findings.push_back(
          {static_cast<AnomalyKind>(rng.Below(7)),
           "bug-" + std::to_string(rng.Below(1000)),
           std::string(rng.Below(64), 'x')});
    }
    for (size_t i = rng.Below(3); i > 0; --i) {
      delta.crash_ids.push_back("crash-" + std::to_string(rng.Below(1000)));
      FuzzInput input(rng.Below(kFuzzInputSize + 1));
      for (auto& byte : input) {
        byte = static_cast<uint8_t>(rng.Below(256));
      }
      delta.crash_inputs.push_back(std::move(input));
    }
    ShardDelta decoded;
    ASSERT_TRUE(wire::Decode(wire::Encode(delta), &decoded));
    ExpectEq(delta, decoded);
  }
}

// --- Golden v6 frames ----------------------------------------------------
//
// One frame per RecordType (plus the zero-copy ShardDelta overload), taken
// from the hand-written v6 codec before the field walks replaced it. Every
// field holds a non-default value and every vector is non-empty, so a
// reordered, dropped or resized field changes the bytes. A deliberate
// format change bumps wire::kVersion and regenerates the affected frame.

FuzzInput GoldenInput(uint8_t fill) { return {0xA5, fill, 0x5A}; }

ShardDelta MakeGoldenDelta() {
  ShardDelta record;
  record.worker = 3;
  record.epoch = 0x0102030405060708ULL;
  record.iterations = 125;
  record.imported = 4;
  record.virgin.Append(513, 0x83);
  record.virgin.Append(65535, 0xFF);
  record.covered_points = {94, 117};
  record.queue_entries = {GoldenInput(0x10), GoldenInput(0x11)};
  record.findings = {{AnomalyKind::kKasan, "kvm-a", "KASAN a"},
                     {AnomalyKind::kLogWarning, "kvm-b", "warn b"}};
  record.crash_ids = {"kvm-a"};
  record.crash_inputs = {GoldenInput(0x61)};
  return record;
}

SampleEvent MakeGoldenSample() { return {4, 12000, 79.66101694915254, 94}; }

FindingEvent MakeGoldenFinding() {
  return {3, 1, {AnomalyKind::kAssertion, "xen-shadow", "BUG at shadow"}};
}

CorpusSyncEvent MakeGoldenCorpusSync() { return {9, 2, 23, 58}; }

ShardDoneEvent MakeGoldenShardDone() {
  return {3, 5000, 81.25, 96, 83, 4, 59, 2};
}

FinishEvent MakeGoldenFinish() {
  return {4, 24, 20000, 80.5, 95, 118, 6, 166};
}

FeedbackRecord MakeGoldenFeedback() {
  FeedbackRecord record;
  record.epoch = 11;
  record.worker = 3;
  record.pool_entries = {GoldenInput(0x20), GoldenInput(0x21)};
  record.virgin.Append(12, 0x01);
  record.virgin.Append(40000, 0xC0);
  return record;
}

ShardResultRecord MakeGoldenResult() {
  ShardResultRecord record;
  record.worker = 1;
  record.final_percent = 80.50847457627118;
  record.covered_points = 95;
  record.total_points = 118;
  record.covered_set = {3, 94};
  record.findings = {{AnomalyKind::kGpFault, "kvm-gp", "general protection"}};
  record.iterations = 5000;
  record.queue_size = 83;
  record.unique_anomalies = 2;
  record.bitmap_edges = 451;
  record.watchdog_restarts = 7;
  record.imports = 59;
  record.snapshot_hits = 4800;
  record.snapshot_misses = 200;
  record.config_memo_hits = 4810;
  record.restore_ns = 123456789;
  record.crash_ids = {"kvm-gp", "kvm-ud"};
  record.crash_inputs = {GoldenInput(0x62), GoldenInput(0x63)};
  return record;
}

ShardChildConfigRecord MakeGoldenConfig() {
  ShardChildConfigRecord record;
  record.target = "kvm";
  record.worker = 2;
  record.workers = 4;
  record.epochs = 24;
  record.arch = 1;
  record.iterations = 20000;
  record.samples = 12;
  record.seed = 7;
  record.syncing = 1;
  record.coverage_guidance = 1;
  record.havoc_stack = 32;
  record.splice_percent = 25;
  record.use_harness = 0;
  record.use_validator = 0;
  record.use_configurator = 0;
  record.oracle_interval = 128;
  record.snapshot_cache_size = 16;
  record.crash_dir = "out/crashes";
  record.start_epoch = 10;
  record.snapshot_every = 5;
  return record;
}

ShardHelloRecord MakeGoldenHello() {
  ShardHelloRecord record;  // The magic is the one legal value.
  record.worker = 5;
  return record;
}

CampaignManifestRecord MakeGoldenManifest() {
  CampaignManifestRecord record;  // The magic is the one legal value.
  record.committed_epochs = 9;
  record.snapshot_epochs = 8;
  record.crash_artifacts = 2;
  record.epochs = 24;
  record.workers = 4;
  record.samples = 12;
  record.arch = 1;
  record.iterations = 20000;
  record.seed = 7;
  record.corpus_sync = 1;
  record.coverage_guidance = 1;
  record.havoc_stack = 32;
  record.splice_percent = 25;
  record.use_harness = 0;
  record.use_validator = 0;
  record.use_configurator = 0;
  record.oracle_interval = 128;
  record.target = "xen";
  return record;
}

EpochCommitRecord MakeGoldenEpochCommit() {
  EpochCommitRecord record;
  record.epoch = 5;
  record.workers = 4;
  record.checksum = 0xDEADBEEFCAFEF00DULL;
  record.iterations = 5000;
  record.covered_points = 95;
  record.pool_end = 83;
  record.findings = 2;
  record.crash_artifacts = 3;
  record.percent = 80.50847457627118;
  return record;
}

CrashArtifactRecord MakeGoldenCrashArtifact() {
  CrashArtifactRecord record;
  record.seq = 3;
  record.report = {AnomalyKind::kHostCrash, "vbox-hang", "host hang"};
  record.hypervisor = "virtualbox";
  record.arch = "amd";
  record.iteration = 412;
  record.input = GoldenInput(0x5C);
  return record;
}

WorkerStateRecord MakeGoldenWorkerState() {
  WorkerStateRecord record;
  record.worker = 2;
  record.epochs_covered = 10;
  record.mutator_rng.s[0] = 0x1111111111111111ULL;
  record.mutator_rng.s[1] = 0x1212121212121212ULL;
  record.mutator_rng.s[2] = 0x1313131313131313ULL;
  record.mutator_rng.s[3] = 0x1414141414141414ULL;
  record.corpus_rng.s[0] = 0x2121212121212121ULL;
  record.corpus_rng.s[1] = 0x2222222222222222ULL;
  record.corpus_rng.s[2] = 0x2323232323232323ULL;
  record.corpus_rng.s[3] = 0x2424242424242424ULL;
  record.iterations = 4200;
  record.corpus = {{GoldenInput(0x30), 97, 12, 5, true},
                   {GoldenInput(0x31), 98, 13, 6, false}};
  record.virgin.Append(3, 0x01);
  record.virgin.Append(700, 0x80);
  record.crash_ids = {"kvm-a"};
  record.crash_inputs = {GoldenInput(0x64)};
  record.executions = 4217;
  record.watchdog_restarts = 1;
  record.snapshot_hits = 4000;
  record.snapshot_misses = 217;
  record.config_memo_hits = 4100;
  record.restore_ns = 987654321;
  record.findings = {{AnomalyKind::kVmCrash, "kvm-a", "vm crash"}};
  record.vmx_suppressed_checks = {1, 2};
  record.vmx_learned_fixups = {0, 2};
  record.svm_suppressed_checks = {3};
  record.host_crashed = 1;
  record.host_restarts = 3;
  record.covered = {7, 94};
  record.hit_events = 5123;
  record.imports = 42;
  return record;
}

SnapshotMergedStateRecord MakeGoldenMergedState() {
  SnapshotMergedStateRecord record;
  record.epochs_covered = 10;
  record.virgin.Append(1, 0x01);
  record.virgin.Append(40000, 0xC0);
  record.covered = {3, 94};
  record.findings = {{AnomalyKind::kUbsan, "kvm-ub", "UBSAN shift"}};
  record.prior_pool_end = 2;
  record.pool_end = 4;
  record.pool_origins = {2, 1};
  record.pool_inputs = {GoldenInput(0x40), GoldenInput(0x41)};
  record.series_iterations = {500, 1000};
  record.series_percents = {10.5, 79.66101694915254};
  record.total_iterations = 1500;
  record.feedback_virgin.Append(12, 0x02);
  return record;
}

CampaignSnapshotRecord MakeGoldenCampaignSnapshot() {
  CampaignSnapshotRecord record;  // The magic is the one legal value.
  record.epochs_covered = 10;
  record.workers = 4;
  record.checksum = 0x0123456789ABCDEFULL;
  return record;
}

std::string Hex(const wire::Buffer& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (uint8_t byte : bytes) {
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xF];
  }
  return hex;
}

wire::Buffer Unhex(std::string_view hex) {
  wire::Buffer bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

// The hex of each golden frame, as the v6 codec wrote it.
constexpr std::string_view kGoldenDelta =
    "01068d0000000300000008070605040302017d00000000000000040000000000"
    "0000020000000102000083ffff0000ff020000005e0000007500000002000000"
    "03000000a5105a03000000a5115a0200000001050000006b766d2d6107000000"
    "4b4153414e206106050000006b766d2d62060000007761726e20620100000005"
    "0000006b766d2d610100000003000000a5615a";
constexpr std::string_view kGoldenSample =
    "0206200000000400000000000000e02e0000000000008fad081a4eea53405e00"
    "000000000000";
constexpr std::string_view kGoldenFinding =
    "03062c000000030000000000000001000000020a00000078656e2d736861646f"
    "770d00000042554720617420736861646f77";
constexpr std::string_view kGoldenCorpusSync =
    "04061c00000009000000000000000200000017000000000000003a0000000000"
    "0000";
constexpr std::string_view kGoldenShardDone =
    "05063c0000000300000088130000000000000000000000505440600000000000"
    "0000530000000000000004000000000000003b00000000000000020000000000"
    "0000";
constexpr std::string_view kGoldenFinish =
    "06063c000000040000001800000000000000204e000000000000000000000020"
    "54405f0000000000000076000000000000000600000000000000a60000000000"
    "0000";
constexpr std::string_view kGoldenFeedback =
    "07062c0000000b00000000000000030000000200000003000000a5205a030000"
    "00a5215a020000000c00000001409c0000c0";
constexpr std::string_view kGoldenResult =
    "0806c700000001000000a9fbf2d88a2054405f00000000000000760000000000"
    "000002000000030000005e0000000100000005060000006b766d2d6770120000"
    "0067656e6572616c2070726f74656374696f6e88130000000000005300000000"
    "0000000200000000000000c30100000000000007000000000000003b00000000"
    "000000c012000000000000c800000000000000ca1200000000000015cd5b0700"
    "00000002000000060000006b766d2d6770060000006b766d2d75640200000003"
    "000000a5625a03000000a5635a";
constexpr std::string_view kGoldenConfig =
    "090664000000030000006b766d0200000004000000180000000000000001204e"
    "0000000000000c00000007000000000000000101200000001900000000000080"
    "00000010000000000000000b0000006f75742f637261736865730a0000000000"
    "00000500000000000000";
constexpr std::string_view kGoldenHello = "0a06080000004b53434e05000000";
constexpr std::string_view kGoldenManifest =
    "0b06550000004e434a4d09000000000000000800000000000000020000000000"
    "00001800000000000000040000000c00000001204e0000000000000700000000"
    "00000001012000000019000000000000800000000300000078656e";
constexpr std::string_view kGoldenEpochCommit =
    "0c06440000000500000000000000040000000df0fecaefbeadde881300000000"
    "00005f0000000000000053000000000000000200000000000000030000000000"
    "0000a9fbf2d88a205440";
constexpr std::string_view kGoldenCrashArtifact =
    "0d06470000000300000000000000030900000076626f782d68616e6709000000"
    "686f73742068616e670a0000007669727475616c626f7803000000616d649c01"
    "00000000000003000000a55c5a";
constexpr std::string_view kGoldenWorkerState =
    "0e0641010000020000000a000000000000001111111111111111121212121212"
    "1212131313131313131314141414141414142121212121212121222222222222"
    "2222232323232323232324242424242424246810000000000000020000000300"
    "0000a5305a61000000000000000c000000000000000500000000000000010300"
    "0000a5315a62000000000000000d000000000000000600000000000000000200"
    "00000300000001bc0200008001000000050000006b766d2d6101000000030000"
    "00a5645a79100000000000000100000000000000a00f000000000000d9000000"
    "000000000410000000000000b168de3a000000000100000004050000006b766d"
    "2d6108000000766d206372617368020000000100020002000000000201000000"
    "030001030000000000000002000000070000005e00000003140000000000002a"
    "00000000000000";
constexpr std::string_view kGoldenMergedState =
    "0f069f0000000a00000000000000020000000100000001409c0000c002000000"
    "030000005e0000000100000000060000006b766d2d75620b000000554253414e"
    "2073686966740200000000000000040000000000000002000000020000000300"
    "0000a5405a0100000003000000a5415a02000000f40100000000000000000000"
    "00002540e8030000000000008fad081a4eea5340dc0500000000000001000000"
    "0c00000002";
constexpr std::string_view kGoldenCampaignSnapshot =
    "1006180000004e4353500a0000000000000004000000efcdab8967452301";

struct GoldenFrame {
  std::string name;
  wire::RecordType type;
  std::string_view hex;
  std::function<wire::Buffer()> encode;  // Encode(Make*()).
  // Decodes a frame and re-encodes the result; false if Decode rejects.
  std::function<bool(const wire::Buffer&, wire::Buffer*)> reencode;
  wire::Buffer empty;  // Encode() of the default-constructed record.
};

template <typename Record>
GoldenFrame Golden(std::string name, wire::RecordType type,
                   std::string_view hex, Record (*make)()) {
  // One decoded object is reused across calls, so a decode that skips
  // or appends to a field shows up when a second frame decodes into it.
  auto decoded = std::make_shared<Record>();
  return {std::move(name), type, hex,
          [make] { return wire::Encode(make()); },
          [decoded](const wire::Buffer& frame, wire::Buffer* out) {
            if (!wire::Decode(frame, decoded.get())) return false;
            *out = wire::Encode(*decoded);
            return true;
          },
          wire::Encode(Record{})};
}

// The zero-copy overload writes the queue section from pointers; its frame
// must be the owning encoder's golden frame.
wire::Buffer EncodeGoldenDeltaByReference() {
  const ShardDelta owning = MakeGoldenDelta();
  std::vector<const FuzzInput*> refs;
  for (const FuzzInput& input : owning.queue_entries) {
    refs.push_back(&input);
  }
  ShardDelta referencing = owning;
  referencing.queue_entries.clear();
  return wire::Encode(referencing, refs);
}

std::vector<GoldenFrame> GoldenFrames() {
  using wire::RecordType;
  std::vector<GoldenFrame> frames = {
      Golden("ShardDelta", RecordType::kShardDelta, kGoldenDelta,
             MakeGoldenDelta),
      Golden("SampleEvent", RecordType::kSample, kGoldenSample,
             MakeGoldenSample),
      Golden("FindingEvent", RecordType::kFinding, kGoldenFinding,
             MakeGoldenFinding),
      Golden("CorpusSyncEvent", RecordType::kCorpusSync, kGoldenCorpusSync,
             MakeGoldenCorpusSync),
      Golden("ShardDoneEvent", RecordType::kShardDone, kGoldenShardDone,
             MakeGoldenShardDone),
      Golden("FinishEvent", RecordType::kFinish, kGoldenFinish,
             MakeGoldenFinish),
      Golden("FeedbackRecord", RecordType::kFeedback, kGoldenFeedback,
             MakeGoldenFeedback),
      Golden("ShardResultRecord", RecordType::kShardResult, kGoldenResult,
             MakeGoldenResult),
      Golden("ShardChildConfigRecord", RecordType::kChildConfig,
             kGoldenConfig, MakeGoldenConfig),
      Golden("ShardHelloRecord", RecordType::kShardHello, kGoldenHello,
             MakeGoldenHello),
      Golden("CampaignManifestRecord", RecordType::kManifest,
             kGoldenManifest, MakeGoldenManifest),
      Golden("EpochCommitRecord", RecordType::kEpochCommit,
             kGoldenEpochCommit, MakeGoldenEpochCommit),
      Golden("CrashArtifactRecord", RecordType::kCrashArtifact,
             kGoldenCrashArtifact, MakeGoldenCrashArtifact),
      Golden("WorkerStateRecord", RecordType::kWorkerState,
             kGoldenWorkerState, MakeGoldenWorkerState),
      Golden("SnapshotMergedStateRecord", RecordType::kSnapshotMerged,
             kGoldenMergedState, MakeGoldenMergedState),
      Golden("CampaignSnapshotRecord", RecordType::kCampaignSnapshot,
             kGoldenCampaignSnapshot, MakeGoldenCampaignSnapshot),
  };
  GoldenFrame by_reference = frames.front();
  by_reference.name = "ShardDelta(zero-copy)";
  by_reference.encode = EncodeGoldenDeltaByReference;
  frames.push_back(std::move(by_reference));
  return frames;
}

TEST(WireTest, GoldenV6FramesAreByteIdentical) {
  ASSERT_EQ(wire::kVersion, 6);
  for (const GoldenFrame& golden : GoldenFrames()) {
    SCOPED_TRACE(golden.name);
    const wire::Buffer frame = Unhex(golden.hex);
    EXPECT_EQ(Hex(golden.encode()), golden.hex);
    ASSERT_GE(frame.size(), wire::kFrameHeaderSize);
    EXPECT_EQ(frame[0], static_cast<uint8_t>(golden.type));

    // Decode accepts the frame and re-encodes it byte for byte; a second
    // decode into the same object (now the default record's frame) must
    // overwrite every field, not merge into the previous contents.
    wire::Buffer reencoded;
    ASSERT_TRUE(golden.reencode(frame, &reencoded));
    EXPECT_EQ(Hex(reencoded), golden.hex);
    ASSERT_TRUE(golden.reencode(golden.empty, &reencoded));
    EXPECT_EQ(Hex(reencoded), Hex(golden.empty));
    ASSERT_TRUE(golden.reencode(frame, &reencoded));
    EXPECT_EQ(Hex(reencoded), golden.hex);
  }
}

TEST(WireTest, EveryRecordTypeHasAGoldenFrame) {
  const std::vector<GoldenFrame> frames = GoldenFrames();
  for (uint8_t type = static_cast<uint8_t>(wire::RecordType::kShardDelta);
       type <= static_cast<uint8_t>(wire::RecordType::kCampaignSnapshot);
       ++type) {
    bool found = false;
    for (const GoldenFrame& golden : frames) {
      found = found || golden.type == static_cast<wire::RecordType>(type);
    }
    EXPECT_TRUE(found) << "record type " << int{type};
  }
}

TEST(WireTest, GoldenFramesWithOneExtraPayloadByteAreRejected) {
  // A frame whose header length covers one byte more than the record's
  // fields: OpenFrame accepts it, so only the exact-payload-length check
  // at the end of the walk stands between it and a silent accept.
  for (const GoldenFrame& golden : GoldenFrames()) {
    SCOPED_TRACE(golden.name);
    wire::Buffer frame = Unhex(golden.hex);
    frame.push_back(0);
    const uint32_t length =
        static_cast<uint32_t>(frame.size() - wire::kFrameHeaderSize);
    for (size_t i = 0; i < 4; ++i) {
      frame[2 + i] = static_cast<uint8_t>(length >> (8 * i));
    }
    wire::Buffer reencoded;
    EXPECT_FALSE(golden.reencode(frame, &reencoded));
  }
}

TEST(WireTest, ChildConfigStartEpochPastEpochsIsRejected) {
  // A tail that would start after the schedule ends: nothing legitimate
  // encodes it, so the decoder refuses it.
  ShardChildConfigRecord decoded;
  ShardChildConfigRecord record = MakeGoldenConfig();
  record.start_epoch = record.epochs;
  EXPECT_TRUE(wire::Decode(wire::Encode(record), &decoded));
  record.start_epoch = record.epochs + 1;
  EXPECT_FALSE(wire::Decode(wire::Encode(record), &decoded));
}

TEST(WireTest, ManifestSnapshotPastCommitPointIsRejected) {
  // The snapshot a manifest names must cover a committed prefix.
  CampaignManifestRecord decoded;
  CampaignManifestRecord record = MakeGoldenManifest();
  record.snapshot_epochs = record.committed_epochs;
  EXPECT_TRUE(wire::Decode(wire::Encode(record), &decoded));
  record.snapshot_epochs = record.committed_epochs + 1;
  EXPECT_FALSE(wire::Decode(wire::Encode(record), &decoded));
}

}  // namespace
}  // namespace neco
