// Data-plane micro-benchmark: the per-execution coverage hot path and the
// shard-delta wire codec, the two loops every fuzzing iteration and every
// epoch boundary pay for.
//
// Three sections, all on fixed seeds (bit-reproducible inputs):
//
//  * classify+merge ns/exec at several trace densities — the SparseTrace
//    path Fuzzer::Run uses (touched words only) against the scalar
//    full-bitmap path the seed shipped (a 64 KiB clear + byte loop per
//    execution). The ratio is the headline number of the burn-down.
//  * delta extract/apply — CoverageBitmap::ExtractDeltaSince (word skip
//    vs scalar) and CoverageUnit::ExtractDeltaSince in the saturated
//    steady state, where nearly every scan finds nothing new.
//  * ShardDelta encode/decode MB/s — the exact-size two-pass encoder and
//    the strict decoder, on a representative epoch record; the zero-copy
//    (corpus-referencing) Encode overload is measured separately.
//  * exec_core execs/sec — the VM-lifecycle setup path per execution:
//    configurator Generate + cold StartVm against a configurator-memo
//    probe + snapshot RestoreVm, per sim target (Intel configs), plus the
//    cached-path rate at several config-diversity levels through a
//    capacity-16 LRU (d=64 deliberately thrashes it).
//  * vm_state ns/op — the per-execution VM-state path, each against the
//    reference it replaced: VMCS field lookup (slot table vs linear
//    scan), Vmcs and Vmcb FromBitImage (byte codec vs bit loop), and a
//    PlantGuestMemory-shaped write/read mix (flat table vs std::map).
//
// `--smoke` shrinks budgets for CI; `--json=PATH` writes the
// schema_version-1 result file tools/check_bench_json.py diffs against
// the checked-in BENCH_hotpath.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/arch/vmcb.h"
#include "src/arch/vmcs.h"
#include "src/core/config/configurator.h"
#include "src/core/snapshot_cache.h"
#include "src/core/wire.h"
#include "src/fuzz/bitmap.h"
#include "src/hv/coverage.h"
#include "src/hv/factory.h"
#include "src/hv/guest_memory.h"
#include "src/support/rng.h"

namespace neco {
namespace {

using Clock = std::chrono::steady_clock;

// Keeps results observable so the optimizer cannot delete a timed loop.
volatile uint64_t g_sink = 0;

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Pre-generated per-exec traces: `variants` distinct edge-id lists of
// `density` hits each, cycled through by the timed loops so consecutive
// executions differ (as they do in a real campaign) without paying RNG
// cost inside the measurement.
std::vector<std::vector<uint32_t>> MakeTraces(size_t density,
                                              size_t variants,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> traces(variants);
  for (auto& trace : traces) {
    trace.reserve(density);
    for (size_t i = 0; i < density; ++i) {
      trace.push_back(static_cast<uint32_t>(rng.Next()));
    }
  }
  return traces;
}

// The current per-exec path: sparse accumulate, classify and merge only
// the touched words, O(trace) clear.
double SparseNsPerExec(const std::vector<std::vector<uint32_t>>& traces,
                       uint64_t execs) {
  CoverageBitmap virgin;
  SparseTrace trace;
  uint64_t sink = 0;
  const double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < execs; ++i) {
      const std::vector<uint32_t>& edges = traces[i % traces.size()];
      trace.Clear();
      for (const uint32_t edge : edges) {
        trace.Add(edge);
      }
      trace.ClassifyCounts();
      sink += static_cast<uint64_t>(trace.MergeInto(virgin));
    }
  });
  g_sink = g_sink + sink;
  return secs * 1e9 / static_cast<double>(execs);
}

// The seed's per-exec path: a full 64 KiB bitmap cleared every execution,
// then byte-at-a-time classify and merge over all 65,536 cells.
double ScalarNsPerExec(const std::vector<std::vector<uint32_t>>& traces,
                       uint64_t execs) {
  CoverageBitmap virgin;
  CoverageBitmap trace;
  uint64_t sink = 0;
  const double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < execs; ++i) {
      const std::vector<uint32_t>& edges = traces[i % traces.size()];
      trace.Clear();
      for (const uint32_t edge : edges) {
        trace.Add(edge);
      }
      trace.ClassifyCountsScalar();
      sink += static_cast<uint64_t>(trace.MergeIntoScalar(virgin));
    }
  });
  g_sink = g_sink + sink;
  return secs * 1e9 / static_cast<double>(execs);
}

void BenchClassifyMerge(BenchJson& json, bool smoke) {
  const uint64_t sparse_execs = smoke ? 20000 : 200000;
  const uint64_t scalar_execs = smoke ? 1000 : 10000;
  std::printf("\n[per-exec classify+merge, ns/exec]\n");
  std::printf("  %8s %12s %12s %9s\n", "density", "sparse_ns", "scalar_ns",
              "speedup");
  for (const size_t density : {16, 64, 256, 1024}) {
    const auto traces = MakeTraces(density, 64, 0x1000 + density);
    const double sparse_ns = SparseNsPerExec(traces, sparse_execs);
    const double scalar_ns = ScalarNsPerExec(traces, scalar_execs);
    const double speedup = sparse_ns > 0 ? scalar_ns / sparse_ns : 0.0;
    std::printf("  %8zu %12.1f %12.1f %8.1fx\n", density, sparse_ns,
                scalar_ns, speedup);
    const std::string suffix = "_d" + std::to_string(density);
    json.Metric("classify_merge_sparse_ns" + suffix, "ns", sparse_ns);
    json.Metric("classify_merge_scalar_ns" + suffix, "ns", scalar_ns);
    json.Metric("classify_merge_speedup" + suffix, "x", speedup);
  }
}

void BenchDeltaExtract(BenchJson& json, bool smoke) {
  const uint64_t iters = smoke ? 2000 : 20000;

  // Saturated steady state: the map carries a realistic covered set, the
  // snapshots have caught up, so every timed extract scans and finds
  // nothing — the shape of all but the first few epochs of a campaign.
  CoverageBitmap map;
  Rng rng(0x2000);
  for (int i = 0; i < 4096; ++i) {
    map.Add(static_cast<uint32_t>(rng.Next()));
  }
  map.ClassifyCounts();
  CoverageBitmap word_snapshot;
  CoverageBitmap scalar_snapshot;
  const BitmapDelta seed_delta = map.ExtractDeltaSince(word_snapshot);
  (void)map.ExtractDeltaSinceScalar(scalar_snapshot);

  uint64_t sink = 0;
  const double word_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += map.ExtractDeltaSince(word_snapshot).size();
    }
  });
  const double scalar_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += map.ExtractDeltaSinceScalar(scalar_snapshot).size();
    }
  });
  CoverageBitmap target;
  const double apply_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      target.ApplyDelta(seed_delta);
    }
  });
  g_sink = g_sink + sink + target.CountNonZero();

  // The line-coverage side: an arbitrary-size (not 8-aligned) hit vector
  // in the same caught-up steady state.
  CoverageUnit unit("bench", 40001);
  for (int i = 0; i < 12000; ++i) {
    unit.Hit(static_cast<size_t>(rng.Below(40001)));
  }
  (void)unit.DrainTrace();
  std::vector<uint8_t> unit_word_snapshot;
  std::vector<uint8_t> unit_scalar_snapshot;
  (void)unit.ExtractDeltaSince(unit_word_snapshot);
  (void)unit.ExtractDeltaSinceScalar(unit_scalar_snapshot);
  sink = 0;
  const double unit_word_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += unit.ExtractDeltaSince(unit_word_snapshot).size();
    }
  });
  const double unit_scalar_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += unit.ExtractDeltaSinceScalar(unit_scalar_snapshot).size();
    }
  });
  g_sink = g_sink + sink;

  const double d = static_cast<double>(iters);
  std::printf("\n[delta extract/apply, ns/call, saturated steady state]\n");
  std::printf("  bitmap extract   word %10.1f   scalar %10.1f\n",
              word_secs * 1e9 / d, scalar_secs * 1e9 / d);
  std::printf("  bitmap apply          %10.1f   (%zu-cell delta)\n",
              apply_secs * 1e9 / d, seed_delta.size());
  std::printf("  covunit extract  word %10.1f   scalar %10.1f\n",
              unit_word_secs * 1e9 / d, unit_scalar_secs * 1e9 / d);
  json.Metric("bitmap_extract_delta_ns", "ns", word_secs * 1e9 / d);
  json.Metric("bitmap_extract_delta_scalar_ns", "ns", scalar_secs * 1e9 / d);
  json.Metric("bitmap_apply_delta_ns", "ns", apply_secs * 1e9 / d);
  json.Metric("covunit_extract_delta_ns", "ns", unit_word_secs * 1e9 / d);
  json.Metric("covunit_extract_delta_scalar_ns", "ns",
              unit_scalar_secs * 1e9 / d);
}

// A representative epoch record: a few hundred novelty cells and covered
// points, a handful of 2 KiB queue discoveries, a finding, a crash pair.
ShardDelta MakeShardDelta(std::vector<FuzzInput>* corpus) {
  Rng rng(0x3000);
  ShardDelta delta;
  delta.worker = 3;
  delta.epoch = 7;
  delta.iterations = 2500;
  delta.imported = 2;
  for (int i = 0; i < 512; ++i) {
    delta.virgin.Append(static_cast<uint32_t>(rng.Below(1 << 16)),
                        static_cast<uint8_t>(1 + rng.Below(255)));
  }
  for (int i = 0; i < 384; ++i) {
    delta.covered_points.push_back(static_cast<uint32_t>(rng.Below(40000)));
  }
  corpus->clear();
  for (int i = 0; i < 16; ++i) {
    corpus->push_back(MakeRandomInput(rng));
  }
  delta.queue_entries = *corpus;
  delta.findings.push_back(
      {AnomalyKind::kAssertion, "bench-bug-1", "benchmark finding"});
  delta.crash_ids.push_back("bench-bug-1");
  delta.crash_inputs.push_back(MakeRandomInput(rng));
  return delta;
}

void BenchWireCodec(BenchJson& json, bool smoke) {
  const uint64_t iters = smoke ? 2000 : 20000;
  std::vector<FuzzInput> corpus;
  const ShardDelta delta = MakeShardDelta(&corpus);
  std::vector<const FuzzInput*> refs;
  for (const FuzzInput& input : corpus) {
    refs.push_back(&input);
  }
  const wire::Buffer frame = wire::Encode(delta);
  const double frame_mb =
      static_cast<double>(frame.size()) / (1024.0 * 1024.0);

  uint64_t sink = 0;
  const double encode_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += wire::Encode(delta).size();
    }
  });
  const double encode_ref_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += wire::Encode(delta, refs).size();
    }
  });
  ShardDelta decoded;
  const double decode_secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      sink += wire::Decode(frame, &decoded) ? 1 : 0;
    }
  });
  g_sink = g_sink + sink;

  const double d = static_cast<double>(iters);
  const double encode_mbs = frame_mb * d / encode_secs;
  const double encode_ref_mbs = frame_mb * d / encode_ref_secs;
  const double decode_mbs = frame_mb * d / decode_secs;
  std::printf("\n[ShardDelta wire codec, %zu-byte frame]\n", frame.size());
  std::printf("  encode %10.1f MB/s   encode(refs) %10.1f MB/s   "
              "decode %10.1f MB/s\n",
              encode_mbs, encode_ref_mbs, decode_mbs);
  json.Metric("shard_delta_frame_bytes", "bytes",
              static_cast<double>(frame.size()));
  json.Metric("shard_delta_encode_mb_s", "MB/s", encode_mbs);
  json.Metric("shard_delta_encode_ref_mb_s", "MB/s", encode_ref_mbs);
  json.Metric("shard_delta_decode_mb_s", "MB/s", decode_mbs);
}

// --- exec_core: Generate+StartVm vs memo+RestoreVm ------------------------

// Distinct 128-byte config slices (as minimal FuzzInputs the memo can key)
// and the VcpuConfigs they generate.
struct ConfigPool {
  std::vector<FuzzInput> slices;
  std::vector<VcpuConfig> configs;
};

ConfigPool MakeConfigPool(size_t count, uint64_t seed) {
  Rng rng(seed);
  ConfigPool pool;
  for (size_t i = 0; i < count; ++i) {
    FuzzInput slice(InputPartition::kConfigSize);
    for (auto& b : slice) {
      b = static_cast<uint8_t>(rng.Next());
    }
    ByteReader reader(slice);
    pool.configs.push_back(
        VcpuConfigurator().Generate(reader, Arch::kIntel));
    pool.slices.push_back(std::move(slice));
  }
  return pool;
}

// The miss path the Agent pays per execution before this PR: derive the
// config from input bytes, then module reload + VM boot.
double ColdExecsPerSec(Hypervisor& hv, const ConfigPool& pool,
                       uint64_t execs) {
  uint64_t sink = 0;
  const double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < execs; ++i) {
      ByteReader reader(pool.slices[i % pool.slices.size()]);
      const VcpuConfig config =
          VcpuConfigurator().Generate(reader, Arch::kIntel);
      hv.StartVm(config);
      sink += config.memory_mb;
    }
  });
  g_sink = g_sink + sink;
  return static_cast<double>(execs) / secs;
}

// The hit path: memo probe for the config, snapshot-cache probe for the
// boot, RestoreVm — through the real cache structures the Agent uses.
double HitExecsPerSec(Hypervisor& hv, const ConfigPool& pool,
                      uint64_t execs) {
  ConfiguratorMemo memo;
  SnapshotCache cache(pool.configs.size());
  for (size_t i = 0; i < pool.configs.size(); ++i) {
    ConfiguratorMemo::Key key;
    if (ConfiguratorMemo::MakeKey(pool.slices[i], &key)) {
      memo.Insert(key, pool.configs[i]);
    }
    hv.StartVm(pool.configs[i]);
    VmSnapshot snap = hv.SnapshotVm();
    if (snap.data == nullptr) {
      snap.config = pool.configs[i];
    }
    cache.Put(FingerprintConfig(pool.configs[i]), std::move(snap));
  }
  uint64_t sink = 0;
  const double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < execs; ++i) {
      const size_t idx = i % pool.slices.size();
      ConfiguratorMemo::Key key;
      (void)ConfiguratorMemo::MakeKey(pool.slices[idx], &key);
      const VcpuConfig* memoized = memo.Lookup(key);
      VcpuConfig config;
      if (memoized != nullptr) {
        config = *memoized;
      } else {
        // Direct-mapped memo slot collision: regenerate, as the Agent does.
        ByteReader reader(pool.slices[idx]);
        config = VcpuConfigurator().Generate(reader, Arch::kIntel);
      }
      const VmSnapshot* snap = cache.Get(FingerprintConfig(config));
      hv.RestoreVm(*snap);
      sink += config.memory_mb;
    }
  });
  g_sink = g_sink + sink;
  return static_cast<double>(execs) / secs;
}

// The cached path end to end (hits and misses both) when the input stream
// cycles through `diversity` distinct configs and the LRU holds 16:
// d <= 16 converges to all-hits, d = 64 thrashes back to all-misses.
double CachedExecsPerSec(Hypervisor& hv, const ConfigPool& pool,
                         size_t diversity, uint64_t execs) {
  ConfiguratorMemo memo;
  SnapshotCache cache(16);
  uint64_t sink = 0;
  const double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < execs; ++i) {
      const size_t idx = i % diversity;
      ConfiguratorMemo::Key key;
      (void)ConfiguratorMemo::MakeKey(pool.slices[idx], &key);
      const VcpuConfig* memoized = memo.Lookup(key);
      VcpuConfig config;
      if (memoized != nullptr) {
        config = *memoized;
      } else {
        ByteReader reader(pool.slices[idx]);
        config = VcpuConfigurator().Generate(reader, Arch::kIntel);
        memo.Insert(key, config);
      }
      const uint64_t fingerprint = FingerprintConfig(config);
      const VmSnapshot* snap = cache.Get(fingerprint);
      if (snap != nullptr) {
        hv.RestoreVm(*snap);
      } else {
        hv.StartVm(config);
        VmSnapshot captured = hv.SnapshotVm();
        if (captured.data == nullptr) {
          captured.config = config;
        }
        cache.Put(fingerprint, std::move(captured));
      }
      sink += config.memory_mb;
    }
  });
  g_sink = g_sink + sink;
  return static_cast<double>(execs) / secs;
}

void BenchExecCore(BenchJson& json, bool smoke) {
  struct Target {
    const char* name;  // Registry name.
    const char* tag;   // Metric-name suffix.
  };
  const Target kTargets[] = {
      {"kvm", "kvm"}, {"xen", "xen"}, {"virtualbox", "vbox"}};
  const uint64_t cold_execs = smoke ? 500 : 50000;
  const uint64_t hit_execs = smoke ? 2000 : 500000;
  const uint64_t cached_execs = smoke ? 1000 : 100000;
  const ConfigPool pool = MakeConfigPool(64, 0x4000);

  std::printf("\n[exec_core VM-lifecycle setup, execs/sec, Intel configs]\n");
  std::printf("  %12s %12s %12s %9s\n", "target", "cold", "snapshot_hit",
              "speedup");
  for (const Target& t : kTargets) {
    auto hv = FindHypervisorFactory(t.name)();
    const double cold = ColdExecsPerSec(*hv, pool, cold_execs);
    const double hit = HitExecsPerSec(*hv, pool, hit_execs);
    const double speedup = cold > 0 ? hit / cold : 0.0;
    std::printf("  %12s %12.0f %12.0f %8.1fx\n", t.name, cold, hit, speedup);
    const std::string tag = t.tag;
    json.Metric("exec_core_cold_execs_s_" + tag, "execs/s", cold);
    json.Metric("exec_core_hit_execs_s_" + tag, "execs/s", hit);
    json.Metric("exec_core_speedup_" + tag, "x", speedup);
    for (const size_t d : {1, 4, 16, 64}) {
      const double cached = CachedExecsPerSec(*hv, pool, d, cached_execs);
      std::printf("  %12s   cached d=%-3zu %12.0f\n", t.name, d, cached);
      json.Metric("exec_core_cached_execs_s_" + tag + "_d" +
                      std::to_string(d),
                  "execs/s", cached);
    }
  }
}

// --- vm_state: field index, bit-image decode, guest memory --------------

// Field lookups in a shuffled order the compiler cannot fold.
double FieldIndexNs(const std::vector<VmcsField>& fields, uint64_t iters,
                    bool scalar) {
  uint64_t sink = 0;
  const double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      const VmcsField f = fields[i % fields.size()];
      sink += static_cast<uint64_t>(scalar ? VmcsFieldIndexScalar(f)
                                           : VmcsFieldIndex(f));
    }
  });
  g_sink = g_sink + sink;
  return secs * 1e9 / static_cast<double>(iters);
}

template <typename State>
double FromBitImageNs(const std::vector<std::vector<uint8_t>>& images,
                      uint64_t iters, bool scalar) {
  State state;
  const double secs = TimeSeconds([&] {
    for (uint64_t i = 0; i < iters; ++i) {
      const std::vector<uint8_t>& image = images[i % images.size()];
      if (scalar) {
        state.FromBitImageScalar(image);
      } else {
        state.FromBitImage(image);
      }
    }
  });
  g_sink = g_sink + (state == State() ? 0 : 1);
  return secs * 1e9 / static_cast<double>(iters);
}

// One execution's guest-memory traffic, as Agent::PlantGuestMemory and
// the simulators generate it: clear, two region headers, a 16-entry MSR
// load area, 24 bitmap bits over three bitmaps, then the L0 side reading
// the area back and testing bitmap bits.
struct PlantShape {
  uint64_t msr_base;
  uint64_t bitmap_base[3];
  uint16_t bits[24];
  uint64_t values[16];
};

template <typename Memory>
double PlantNs(const std::vector<PlantShape>& shapes, uint64_t execs) {
  Memory mem;
  uint64_t sink = 0;
  const double secs = TimeSeconds([&] {
    for (uint64_t e = 0; e < execs; ++e) {
      const PlantShape& p = shapes[e % shapes.size()];
      mem.Clear();
      mem.Write32(0x1000, Vmcs::kRevisionId);
      mem.Write32(0x2000, Vmcs::kRevisionId);
      for (uint64_t i = 0; i < 16; ++i) {
        mem.Write64(p.msr_base + i * 16, 0xc0000080 + i);
        mem.Write64(p.msr_base + i * 16 + 8, p.values[i]);
      }
      for (int i = 0; i < 24; ++i) {
        mem.SetBit(p.bitmap_base[i % 3], p.bits[i], true);
      }
      sink += mem.Read32(0x1000);
      for (uint64_t i = 0; i < 16; ++i) {
        sink += mem.Read64(p.msr_base + i * 16) +
                mem.Read64(p.msr_base + i * 16 + 8);
      }
      for (int i = 0; i < 24; ++i) {
        sink += mem.TestBit(p.bitmap_base[i % 3], p.bits[(i * 7) % 24] ^ 1)
                    ? 1
                    : 0;
      }
    }
  });
  g_sink = g_sink + sink;
  return secs * 1e9 / static_cast<double>(execs);
}

void BenchVmState(BenchJson& json, bool smoke) {
  Rng rng(0x5000);
  std::printf("\n[vm_state per-exec VM-state path, ns/op]\n");
  std::printf("  %24s %12s %12s %9s\n", "op", "fast_ns", "reference_ns",
              "speedup");
  auto report = [&json](const char* label, const std::string& name,
                        double fast_ns, double ref_ns) {
    const double speedup = fast_ns > 0 ? ref_ns / fast_ns : 0.0;
    std::printf("  %24s %12.2f %12.2f %8.1fx\n", label, fast_ns, ref_ns,
                speedup);
    json.Metric(name + "_ns", "ns", fast_ns);
    json.Metric(name + "_scalar_ns", "ns", ref_ns);
    json.Metric(name + "_speedup", "x", speedup);
  };

  std::vector<VmcsField> fields;
  for (int i = 0; i < 4096; ++i) {
    fields.push_back(VmcsFieldTable()[rng.Below(VmcsFieldCount())].field);
  }
  const uint64_t index_iters = smoke ? 200000 : 20000000;
  report("vmcs field index", "vm_state_field_index",
         FieldIndexNs(fields, index_iters, false),
         FieldIndexNs(fields, index_iters / 20, true));

  auto random_images = [&rng](size_t size) {
    std::vector<std::vector<uint8_t>> images(16, std::vector<uint8_t>(size));
    for (auto& image : images) {
      for (auto& b : image) {
        b = static_cast<uint8_t>(rng.Next());
      }
    }
    return images;
  };
  const uint64_t image_iters = smoke ? 2000 : 200000;
  const auto vmcs_images = random_images(Vmcs::BitImageSize());
  report("vmcs FromBitImage", "vm_state_vmcs_from_bit_image",
         FromBitImageNs<Vmcs>(vmcs_images, image_iters, false),
         FromBitImageNs<Vmcs>(vmcs_images, image_iters / 10, true));
  const auto vmcb_images = random_images(Vmcb::BitImageSize());
  report("vmcb FromBitImage", "vm_state_vmcb_from_bit_image",
         FromBitImageNs<Vmcb>(vmcb_images, image_iters, false),
         FromBitImageNs<Vmcb>(vmcb_images, image_iters / 10, true));

  std::vector<PlantShape> shapes(64);
  for (PlantShape& p : shapes) {
    p.msr_base = rng.Next() & ~0xfULL;
    for (uint64_t& base : p.bitmap_base) {
      base = rng.Next() & ~0xfffULL;
    }
    for (uint16_t& bit : p.bits) {
      bit = static_cast<uint16_t>(rng.Below(0x8000));
    }
    for (uint64_t& v : p.values) {
      v = rng.Next();
    }
  }
  const uint64_t plant_execs = smoke ? 2000 : 200000;
  report("guest memory plant", "vm_state_guest_memory_plant",
         PlantNs<GuestMemory>(shapes, plant_execs),
         PlantNs<GuestMemoryScalar>(shapes, plant_execs / 4));
}

}  // namespace
}  // namespace neco

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") != 0 &&
        std::strncmp(argv[i], "--json=", 7) != 0) {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }
  const bool smoke = neco::ParseSmokeFlag(argc, argv);
  const std::string json_path = neco::ParseJsonPathFlag(argc, argv);

  neco::PrintHeader(std::string("Data-plane hot-path micro-benchmark — "
                                "fixed seeds, steady-state shapes") +
                    (smoke ? " [smoke]" : ""));
  neco::BenchJson json("hot_path", smoke);
  neco::BenchClassifyMerge(json, smoke);
  neco::BenchDeltaExtract(json, smoke);
  neco::BenchWireCodec(json, smoke);
  neco::BenchExecCore(json, smoke);
  neco::BenchVmState(json, smoke);

  if (!json_path.empty()) {
    if (!json.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
