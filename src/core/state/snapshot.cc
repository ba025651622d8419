#include "src/core/state/snapshot.h"

#include <utility>

namespace neco {
namespace {

// Same FNV-1a 64 the journal uses over epoch files: cheap, endian-free,
// deterministic across hosts.
uint64_t Fnv1a(uint64_t hash, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

}  // namespace

std::string SnapshotFileName(size_t horizon) {
  return "snapshot-" + std::to_string(horizon) + ".state";
}

wire::Buffer EncodeSnapshotFile(const CampaignSnapshot& snapshot) {
  std::vector<wire::Buffer> frames;
  frames.reserve(1 + snapshot.workers.size());
  frames.push_back(wire::Encode(snapshot.merged));
  for (const WorkerStateRecord& worker : snapshot.workers) {
    frames.push_back(wire::Encode(worker));
  }

  CampaignSnapshotRecord trailer;
  trailer.epochs_covered = snapshot.epochs_covered;
  trailer.workers = static_cast<int>(snapshot.workers.size());
  trailer.checksum = kFnvOffset;
  size_t total = 0;
  for (const wire::Buffer& frame : frames) {
    trailer.checksum = Fnv1a(trailer.checksum, frame.data(), frame.size());
    total += frame.size();
  }
  const wire::Buffer trailer_frame = wire::Encode(trailer);

  wire::Buffer file;
  file.reserve(total + trailer_frame.size());
  for (const wire::Buffer& frame : frames) {
    file.insert(file.end(), frame.begin(), frame.end());
  }
  file.insert(file.end(), trailer_frame.begin(), trailer_frame.end());
  return file;
}

bool DecodeSnapshotFile(const uint8_t* data, size_t size,
                        CampaignSnapshot* out) {
  // Pass 1: cut frames (offset + length only, no decode yet) and find the
  // trailer. Any tear — a frame header that does not fit, a length that
  // overruns the file, trailing garbage — rejects the whole file.
  std::vector<wire::FrameSpan> cuts;
  if (!wire::CutFrames(data, size, &cuts) || cuts.size() < 2) {
    return false;  // At least the merged record and the trailer.
  }

  const wire::FrameSpan trailer_cut = cuts.back();
  cuts.pop_back();
  CampaignSnapshotRecord trailer;
  if (!wire::Decode(data + trailer_cut.offset, trailer_cut.size, &trailer)) {
    return false;
  }
  // The trailer must account for exactly the frames present (one merged
  // record plus one per worker) and their bytes must hash to its checksum
  // — a truncated-then-repadded or spliced file fails here even when each
  // surviving frame decodes cleanly.
  if (trailer.workers < 0 ||
      cuts.size() != 1 + static_cast<size_t>(trailer.workers)) {
    return false;
  }
  uint64_t checksum = kFnvOffset;
  for (const wire::FrameSpan& cut : cuts) {
    checksum = Fnv1a(checksum, data + cut.offset, cut.size);
  }
  if (checksum != trailer.checksum) {
    return false;
  }

  CampaignSnapshot snapshot;
  snapshot.epochs_covered = trailer.epochs_covered;
  if (!wire::Decode(data + cuts[0].offset, cuts[0].size, &snapshot.merged) ||
      snapshot.merged.epochs_covered != trailer.epochs_covered) {
    return false;
  }
  snapshot.workers.resize(static_cast<size_t>(trailer.workers));
  for (size_t w = 0; w < snapshot.workers.size(); ++w) {
    WorkerStateRecord& worker = snapshot.workers[w];
    if (!wire::Decode(data + cuts[w + 1].offset, cuts[w + 1].size, &worker) ||
        worker.worker != static_cast<int>(w) ||
        worker.epochs_covered != trailer.epochs_covered) {
      return false;
    }
  }
  *out = std::move(snapshot);
  return true;
}

}  // namespace neco
