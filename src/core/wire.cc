#include "src/core/wire.h"

#include <concepts>
#include <cstring>
#include <type_traits>

#include "src/cpu/entry_check.h"
#include "src/cpu/vmx_checks.h"

namespace neco {
namespace wire {
namespace {

constexpr size_t kHeaderSize = kFrameHeaderSize;

// --- Field walks -----------------------------------------------------------
//
// Each record's wire layout is written exactly once, as a Fields(v, r)
// walk that names the record's fields in order. The same walk drives three
// visitors: a Sizer (pass 1 of encoding: byte count only), a Writer (pass
// 2: fills an exactly-sized buffer — one allocation per record with
// capacity == size) and a bounds-checked Reader. Encode and decode
// therefore cannot disagree on a field's order or width.
//
// A field's C++ type picks its encoding (Walk below):
//   integers, enums, bool, double   fixed-width little-endian scalar of
//                                   sizeof(T) bytes (bool is 0/1, double
//                                   its IEEE-754 image)
//   std::string, std::vector<uint8_t>
//   (FuzzInput)                     u32 length + raw bytes
//   std::vector<T>                  u32 count + each element (Zip walks
//                                   parallel arrays under one count)
//   C array                         each element, no count
//   pointer                         the pointee (zero-copy encode only)
//   any other struct                its own Fields walk, then — when
//                                   decoding — its Valid() cross-field
//                                   guard
static_assert(sizeof(int) == 4 && sizeof(size_t) == 8 && sizeof(bool) == 1,
              "field widths are sizeof(T); the wire format is fixed");

template <typename V, typename T>
void Walk(V& v, T& x);

// Pass 1 of encoding: accumulates the payload size.
class Sizer {
 public:
  static constexpr bool kDecodes = false;

  template <typename... Ts>
  void operator()(const Ts&... fields) {
    (Walk(*this, fields), ...);
  }
  template <typename T>
  void Scalar(const T&) {
    size_ += sizeof(T);
  }
  template <typename Bytes>
  void Blob(const Bytes& bytes) {
    size_ += 4 + bytes.size();
  }
  bool Count(size_t, const auto&...) {
    size_ += 4;
    return true;
  }

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

// The smallest encoding of a T: the Sizer over a default-constructed one.
// A count field claiming more elements than the remaining payload could
// hold at this size is corrupt.
template <typename T>
size_t MinSize() {
  Sizer sizer;
  const T empty{};
  Walk(sizer, empty);
  return sizer.size();
}

// Pass 2 of encoding: writes into the pre-sized buffer. Every write is
// one memcpy — a scalar's little-endian bytes are assembled in a local
// first, so it compiles to a single store — and the cursor advances before
// the copy, so the byte store cannot force a reload of it.
class Writer {
 public:
  static constexpr bool kDecodes = false;

  explicit Writer(uint8_t* out) : out_(out) {}

  template <typename... Ts>
  void operator()(const Ts&... fields) {
    (Walk(*this, fields), ...);
  }
  template <typename T>
  void Scalar(const T& x) {
    uint64_t bits = 0;
    if constexpr (std::is_floating_point_v<T>) {
      static_assert(sizeof(bits) == sizeof(x));
      std::memcpy(&bits, &x, sizeof(bits));
    } else {
      bits = static_cast<uint64_t>(x);
    }
    uint8_t bytes[sizeof(T)] = {};
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<uint8_t>(bits >> (8 * i));
    }
    Append(bytes, sizeof(T));
  }
  template <typename Bytes>
  void Blob(const Bytes& bytes) {
    Scalar(static_cast<uint32_t>(bytes.size()));
    if (!bytes.empty()) {
      Append(bytes.data(), bytes.size());
    }
  }
  bool Count(size_t count, const auto&...) {
    Scalar(static_cast<uint32_t>(count));
    return true;
  }

 private:
  void Append(const void* data, size_t n) {
    uint8_t* const at = out_;
    out_ = at + n;
    std::memcpy(at, data, n);
  }

  uint8_t* out_;  // Next byte to write.
};

// Bounds-checked reader: any short read latches a failure, after which
// every read is a no-op, so a walk over a corrupt payload runs to the end
// without reading out of bounds and Done() rejects it.
class Reader {
 public:
  static constexpr bool kDecodes = true;

  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Reader& Fail() {
    ok_ = false;
    return *this;
  }
  // A record must consume its payload exactly; trailing bytes are corrupt.
  bool Done() const { return ok_ && pos_ == size_; }

  template <typename... Ts>
  void operator()(Ts&... fields) {
    (Walk(*this, fields), ...);
  }
  template <typename T>
  void Scalar(T& x) {
    if (!Require(sizeof(T))) return;
    uint64_t bits = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      bits |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    }
    if constexpr (std::is_floating_point_v<T>) {
      std::memcpy(&x, &bits, sizeof(x));
    } else {
      x = static_cast<T>(bits);
    }
  }
  template <typename Bytes>
  void Blob(Bytes& bytes) {
    uint32_t n = 0;
    Scalar(n);
    if (!Require(n)) return;
    bytes.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
  }
  // Reads the element count of one or more parallel vectors and sizes
  // them to it. Each element needs at least MinSize bytes, so the count
  // is bounded by the remaining payload before anything is allocated —
  // four corrupt bytes cannot trigger a 4-billion-element resize.
  template <typename... Ts>
  bool Count(size_t& count, std::vector<Ts>&... vectors) {
    uint32_t n = 0;
    Scalar(n);
    if (!ok_ || n > (size_ - pos_) / (MinSize<Ts>() + ...)) {
      ok_ = false;
      return false;
    }
    count = n;
    (vectors.resize(n), ...);
    return true;
  }

 private:
  bool Require(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- Cross-field guards ----------------------------------------------------
//
// Run by the Reader after a struct's walk: rules no single field can
// express. Records without one accept any well-formed payload.

template <typename T>
bool Valid(const T&) {
  return true;
}

bool Valid(const AnomalyReport& report) {
  return report.kind <= AnomalyKind::kLogWarning;
}

// Parallel crash arrays travel under two counts; a record whose lengths
// disagree is corrupt, not misaligned.
bool Valid(const ShardDelta& r) {
  return r.crash_ids.size() == r.crash_inputs.size();
}

bool Valid(const ShardResultRecord& r) {
  return r.crash_ids.size() == r.crash_inputs.size();
}

bool Valid(const ShardChildConfigRecord& r) {
  // arch is Arch::{kIntel,kAmd}; start_epoch > epochs would schedule a
  // tail that ends before it begins.
  return r.arch <= 1 && r.start_epoch <= r.epochs;
}

bool Valid(const ShardHelloRecord& r) {
  return r.magic == ShardHelloRecord::kMagic;  // Else a stray peer.
}

bool Valid(const CampaignManifestRecord& r) {
  // The snapshot a manifest names must cover a committed prefix.
  return r.magic == CampaignManifestRecord::kMagic && r.arch <= 1 &&
         r.snapshot_epochs <= r.committed_epochs;
}

bool Valid(const WorkerStateRecord& r) {
  // Quirk values index the CheckId / VmxFixupId enums; anything at or
  // past the kCount sentinel cannot round-trip through the validators.
  auto below = [](const auto& values, auto count) {
    for (auto value : values) {
      if (value >= static_cast<decltype(value)>(count)) return false;
    }
    return true;
  };
  return r.crash_ids.size() == r.crash_inputs.size() &&
         below(r.vmx_suppressed_checks, CheckId::kCount) &&
         below(r.vmx_learned_fixups, VmxFixupId::kCount) &&
         below(r.svm_suppressed_checks, CheckId::kCount);
}

bool Valid(const SnapshotMergedStateRecord& r) {
  // The shipped pool slice is exactly [prior_pool_end, pool_end).
  return r.prior_pool_end <= r.pool_end &&
         r.pool_end - r.prior_pool_end == r.pool_origins.size();
}

bool Valid(const CampaignSnapshotRecord& r) {
  return r.magic == CampaignSnapshotRecord::kMagic;
}

// --- Shared walks ------------------------------------------------------------

template <typename T>
inline constexpr bool kIsBlob = std::is_same_v<T, std::string> ||
                                std::is_same_v<T, std::vector<uint8_t>>;
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

// A count-prefixed sequence; given several vectors, parallel arrays under
// one count (element i of each in turn).
template <typename V, typename First, typename... Rest>
void Zip(V& v, First& first, Rest&... rest) {
  size_t count = first.size();
  if (!v.Count(count, first, rest...)) return;
  for (size_t i = 0; i < count; ++i) {
    Walk(v, first[i]);
    (Walk(v, rest[i]), ...);
  }
}

template <typename V, typename T>
void Walk(V& v, T& x) {
  using U = std::remove_const_t<T>;
  if constexpr (std::is_arithmetic_v<U> || std::is_enum_v<U>) {
    v.Scalar(x);
  } else if constexpr (kIsBlob<U>) {
    v.Blob(x);
  } else if constexpr (kIsVector<U>) {
    Zip(v, x);
  } else if constexpr (std::is_array_v<U>) {
    for (auto& element : x) Walk(v, element);
  } else if constexpr (std::is_pointer_v<U>) {
    Walk(v, *x);
  } else {
    Fields(v, x);
    if constexpr (V::kDecodes) {
      if (!Valid(x)) v.Fail();
    }
  }
}

// Fields overloads match a record whether the walk encodes (const R) or
// decodes (mutable R).
template <typename R, typename Record>
concept Is = std::same_as<std::remove_const_t<R>, Record>;

template <typename V, Is<AnomalyReport> R>
void Fields(V& v, R& r) {
  v(r.kind, r.bug_id, r.message);
}

template <typename V, Is<BitmapDelta> R>
void Fields(V& v, R& r) {
  Zip(v, r.cells, r.bits);
}

template <typename V, Is<QueueEntry> R>
void Fields(V& v, R& r) {
  v(r.input, r.discovered_at_iter, r.times_fuzzed, r.new_edges, r.favored);
}

// --- Record field lists -----------------------------------------------------

// ShardDelta with its queue section passed in: the owning walk hands it
// record.queue_entries, the zero-copy Encode overload a vector of pointers
// into the fuzzer's corpus — one field list, byte-identical frames.
template <typename V, typename R, typename Queue>
void ShardDeltaFields(V& v, R& r, Queue& queue) {
  v(r.worker, r.epoch, r.iterations, r.imported, r.virgin, r.covered_points,
    queue, r.findings, r.crash_ids, r.crash_inputs);
}

template <typename V, Is<ShardDelta> R>
void Fields(V& v, R& r) {
  ShardDeltaFields(v, r, r.queue_entries);
}

template <typename V, Is<SampleEvent> R>
void Fields(V& v, R& r) {
  v(r.epoch, r.iteration, r.percent, r.covered_points);
}

template <typename V, Is<FindingEvent> R>
void Fields(V& v, R& r) {
  v(r.epoch, r.worker, r.report);
}

template <typename V, Is<CorpusSyncEvent> R>
void Fields(V& v, R& r) {
  v(r.epoch, r.worker, r.published, r.imported);
}

template <typename V, Is<ShardDoneEvent> R>
void Fields(V& v, R& r) {
  v(r.worker, r.iterations, r.final_percent, r.covered_points, r.queue_size,
    r.findings, r.corpus_imports, r.watchdog_restarts);
}

template <typename V, Is<FinishEvent> R>
void Fields(V& v, R& r) {
  v(r.workers, r.epochs, r.iterations, r.final_percent, r.covered_points,
    r.total_points, r.findings, r.corpus_imports);
}

template <typename V, Is<FeedbackRecord> R>
void Fields(V& v, R& r) {
  v(r.epoch, r.worker, r.pool_entries, r.virgin);
}

template <typename V, Is<ShardResultRecord> R>
void Fields(V& v, R& r) {
  v(r.worker, r.final_percent, r.covered_points, r.total_points,
    r.covered_set, r.findings, r.iterations, r.queue_size,
    r.unique_anomalies, r.bitmap_edges, r.watchdog_restarts, r.imports,
    r.snapshot_hits, r.snapshot_misses, r.config_memo_hits, r.restore_ns,
    r.crash_ids, r.crash_inputs);
}

template <typename V, Is<ShardChildConfigRecord> R>
void Fields(V& v, R& r) {
  v(r.target, r.worker, r.workers, r.epochs, r.arch, r.iterations, r.samples,
    r.seed, r.syncing, r.coverage_guidance, r.havoc_stack, r.splice_percent,
    r.use_harness, r.use_validator, r.use_configurator, r.oracle_interval,
    r.snapshot_cache_size, r.crash_dir, r.start_epoch, r.snapshot_every);
}

template <typename V, Is<ShardHelloRecord> R>
void Fields(V& v, R& r) {
  v(r.magic, r.worker);
}

template <typename V, Is<CampaignManifestRecord> R>
void Fields(V& v, R& r) {
  v(r.magic, r.committed_epochs, r.snapshot_epochs, r.crash_artifacts,
    r.epochs, r.workers, r.samples, r.arch, r.iterations, r.seed,
    r.corpus_sync, r.coverage_guidance, r.havoc_stack, r.splice_percent,
    r.use_harness, r.use_validator, r.use_configurator, r.oracle_interval,
    r.target);
}

template <typename V, Is<EpochCommitRecord> R>
void Fields(V& v, R& r) {
  v(r.epoch, r.workers, r.checksum, r.iterations, r.covered_points,
    r.pool_end, r.findings, r.crash_artifacts, r.percent);
}

template <typename V, Is<CrashArtifactRecord> R>
void Fields(V& v, R& r) {
  v(r.seq, r.report, r.hypervisor, r.arch, r.iteration, r.input);
}

template <typename V, Is<WorkerStateRecord> R>
void Fields(V& v, R& r) {
  v(r.worker, r.epochs_covered, r.mutator_rng.s, r.corpus_rng.s,
    r.iterations, r.corpus, r.virgin, r.crash_ids, r.crash_inputs,
    r.executions, r.watchdog_restarts, r.snapshot_hits, r.snapshot_misses,
    r.config_memo_hits, r.restore_ns, r.findings, r.vmx_suppressed_checks,
    r.vmx_learned_fixups, r.svm_suppressed_checks, r.host_crashed,
    r.host_restarts, r.covered, r.hit_events, r.imports);
}

template <typename V, Is<SnapshotMergedStateRecord> R>
void Fields(V& v, R& r) {
  v(r.epochs_covered, r.virgin, r.covered, r.findings, r.prior_pool_end,
    r.pool_end);
  Zip(v, r.pool_origins, r.pool_inputs);
  Zip(v, r.series_iterations, r.series_percents);
  v(r.total_iterations, r.feedback_virgin);
}

template <typename V, Is<CampaignSnapshotRecord> R>
void Fields(V& v, R& r) {
  v(r.magic, r.epochs_covered, r.workers, r.checksum);
}

// --- Framing -----------------------------------------------------------------

// Frames one record: sizes the payload, allocates header + payload
// exactly, writes the header (length known up front — no patching), then
// writes the payload. `payload` must be a generic lambda ([](auto& w))
// so the same walk drives both passes.
template <typename PayloadFn>
Buffer Frame(RecordType type, PayloadFn&& payload) {
  Sizer sizer;
  payload(sizer);
  const size_t length = sizer.size();
  Buffer out(kHeaderSize + length);
  out[0] = static_cast<uint8_t>(type);
  out[1] = kVersion;
  for (int i = 0; i < 4; ++i) {
    out[2 + static_cast<size_t>(i)] = static_cast<uint8_t>(length >> (8 * i));
  }
  Writer writer(out.data() + kHeaderSize);
  payload(writer);
  return out;
}

uint32_t PayloadLength(const uint8_t* header) {
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(header[2 + i]) << (8 * i);
  }
  return length;
}

// Validates the frame header and returns a reader over the payload (with
// a latched failure on any header problem).
Reader OpenFrame(const uint8_t* data, size_t size, RecordType expected) {
  if (data == nullptr || size < kHeaderSize ||
      data[0] != static_cast<uint8_t>(expected) || data[1] != kVersion ||
      PayloadLength(data) != size - kHeaderSize) {
    return Reader(nullptr, 0).Fail();
  }
  return Reader(data + kHeaderSize, size - kHeaderSize);
}

template <typename Record>
Buffer EncodeRecord(RecordType type, const Record& record) {
  return Frame(type, [&](auto& w) { Walk(w, record); });
}

// The walk overwrites every field of `out` (vectors are resized, not
// appended to) and runs the record's Valid() guard before Done() checks
// that the payload was consumed exactly.
template <typename Record>
bool DecodeRecord(const uint8_t* data, size_t size, RecordType type,
                  Record* out) {
  Reader reader = OpenFrame(data, size, type);
  Walk(reader, *out);
  return reader.Done();
}

}  // namespace

Buffer Encode(const ShardDelta& record) {
  return EncodeRecord(RecordType::kShardDelta, record);
}

Buffer Encode(const ShardDelta& record,
              const std::vector<const FuzzInput*>& queue_entries) {
  return Frame(RecordType::kShardDelta, [&](auto& w) {
    ShardDeltaFields(w, record, queue_entries);
  });
}

bool Decode(const uint8_t* data, size_t size, ShardDelta* out) {
  return DecodeRecord(data, size, RecordType::kShardDelta, out);
}

Buffer Encode(const SampleEvent& record) {
  return EncodeRecord(RecordType::kSample, record);
}

bool Decode(const uint8_t* data, size_t size, SampleEvent* out) {
  return DecodeRecord(data, size, RecordType::kSample, out);
}

Buffer Encode(const FindingEvent& record) {
  return EncodeRecord(RecordType::kFinding, record);
}

bool Decode(const uint8_t* data, size_t size, FindingEvent* out) {
  return DecodeRecord(data, size, RecordType::kFinding, out);
}

Buffer Encode(const CorpusSyncEvent& record) {
  return EncodeRecord(RecordType::kCorpusSync, record);
}

bool Decode(const uint8_t* data, size_t size, CorpusSyncEvent* out) {
  return DecodeRecord(data, size, RecordType::kCorpusSync, out);
}

Buffer Encode(const ShardDoneEvent& record) {
  return EncodeRecord(RecordType::kShardDone, record);
}

bool Decode(const uint8_t* data, size_t size, ShardDoneEvent* out) {
  return DecodeRecord(data, size, RecordType::kShardDone, out);
}

Buffer Encode(const FinishEvent& record) {
  return EncodeRecord(RecordType::kFinish, record);
}

bool Decode(const uint8_t* data, size_t size, FinishEvent* out) {
  return DecodeRecord(data, size, RecordType::kFinish, out);
}

Buffer Encode(const FeedbackRecord& record) {
  return EncodeRecord(RecordType::kFeedback, record);
}

bool Decode(const uint8_t* data, size_t size, FeedbackRecord* out) {
  return DecodeRecord(data, size, RecordType::kFeedback, out);
}

Buffer Encode(const ShardResultRecord& record) {
  return EncodeRecord(RecordType::kShardResult, record);
}

bool Decode(const uint8_t* data, size_t size, ShardResultRecord* out) {
  return DecodeRecord(data, size, RecordType::kShardResult, out);
}

Buffer Encode(const ShardChildConfigRecord& record) {
  return EncodeRecord(RecordType::kChildConfig, record);
}

bool Decode(const uint8_t* data, size_t size, ShardChildConfigRecord* out) {
  return DecodeRecord(data, size, RecordType::kChildConfig, out);
}

Buffer Encode(const ShardHelloRecord& record) {
  return EncodeRecord(RecordType::kShardHello, record);
}

bool Decode(const uint8_t* data, size_t size, ShardHelloRecord* out) {
  return DecodeRecord(data, size, RecordType::kShardHello, out);
}

Buffer Encode(const CampaignManifestRecord& record) {
  return EncodeRecord(RecordType::kManifest, record);
}

bool Decode(const uint8_t* data, size_t size, CampaignManifestRecord* out) {
  return DecodeRecord(data, size, RecordType::kManifest, out);
}

Buffer Encode(const EpochCommitRecord& record) {
  return EncodeRecord(RecordType::kEpochCommit, record);
}

bool Decode(const uint8_t* data, size_t size, EpochCommitRecord* out) {
  return DecodeRecord(data, size, RecordType::kEpochCommit, out);
}

Buffer Encode(const CrashArtifactRecord& record) {
  return EncodeRecord(RecordType::kCrashArtifact, record);
}

bool Decode(const uint8_t* data, size_t size, CrashArtifactRecord* out) {
  return DecodeRecord(data, size, RecordType::kCrashArtifact, out);
}

Buffer Encode(const WorkerStateRecord& record) {
  return EncodeRecord(RecordType::kWorkerState, record);
}

bool Decode(const uint8_t* data, size_t size, WorkerStateRecord* out) {
  return DecodeRecord(data, size, RecordType::kWorkerState, out);
}

Buffer Encode(const SnapshotMergedStateRecord& record) {
  return EncodeRecord(RecordType::kSnapshotMerged, record);
}

bool Decode(const uint8_t* data, size_t size, SnapshotMergedStateRecord* out) {
  return DecodeRecord(data, size, RecordType::kSnapshotMerged, out);
}

Buffer Encode(const CampaignSnapshotRecord& record) {
  return EncodeRecord(RecordType::kCampaignSnapshot, record);
}

bool Decode(const uint8_t* data, size_t size, CampaignSnapshotRecord* out) {
  return DecodeRecord(data, size, RecordType::kCampaignSnapshot, out);
}

bool PeekType(const uint8_t* data, size_t size, RecordType* out) {
  if (data == nullptr || size < kHeaderSize) {
    return false;
  }
  const uint8_t type = data[0];
  if (type < static_cast<uint8_t>(RecordType::kShardDelta) ||
      type > static_cast<uint8_t>(RecordType::kCampaignSnapshot)) {
    return false;
  }
  *out = static_cast<RecordType>(type);
  return true;
}

bool FrameSize(const uint8_t* data, size_t size, size_t* out) {
  RecordType type;
  if (!PeekType(data, size, &type)) {
    return false;
  }
  const uint32_t length = PayloadLength(data);
  if (length > kMaxFramePayload) {
    return false;
  }
  *out = kHeaderSize + static_cast<size_t>(length);
  return true;
}

bool CutFrames(const uint8_t* data, size_t size, std::vector<FrameSpan>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < size) {
    size_t frame_size = 0;
    if (!FrameSize(data + pos, size - pos, &frame_size) ||
        frame_size > size - pos) {
      return false;
    }
    out->push_back({pos, frame_size});
    pos += frame_size;
  }
  return true;
}

}  // namespace wire
}  // namespace neco
