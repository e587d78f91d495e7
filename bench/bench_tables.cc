// Per-kind table lookup micro-benchmark with a heap-allocation counter, and
// the LPM single-op publish cost by key layout.
//
// The lookup hot path is designed to be allocation-free in steady state:
// SBO BitStrings, decoded-entry caches, and in-place LookupInto against a
// reused LookupScratch. This binary measures ns/lookup for each match kind
// and — via global operator new/delete counting — asserts the number of
// heap allocations per steady-state lookup is exactly zero.
//
// It then times one unbatched LPM upsert (write + publish + grace period)
// on two layouts of the same table: clustered, every route under one /8
// like the baseline's ipv4_lpm (10.0.0.0 + k), so all of them share one
// root slot; and spread, the same number of routes evenly over the address
// space. Publication copies one stride path, so the two should cost about
// the same; a per-op cost that grows with the routes sharing a slot shows
// up as a ratio well above 1.
//
//   bench_tables           full run, prints both tables
//   bench_tables --smoke   CI gate: exit 1 if any kind allocates per lookup
//                          or clustered/spread single-op cost exceeds 2x
//
// Hand-rolled timing (min of interleaved rounds) instead of
// google-benchmark because the deliverable includes an exit code and an
// allocation count, not just a time.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "mem/pool.h"
#include "table/table.h"
#include "util/rng.h"

// --- global allocation counter ---------------------------------------------

static std::atomic<uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ipsa {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kKeyWidth = 32;
constexpr uint32_t kActionWidth = 64;
constexpr uint32_t kEntries = 256;
constexpr uint32_t kTableSize = 1024;

mem::PoolConfig BenchPool() {
  mem::PoolConfig cfg;
  cfg.sram_blocks = 128;
  cfg.sram_width_bits = 128;
  cfg.sram_depth = 1024;
  cfg.tcam_blocks = 32;
  cfg.tcam_width_bits = 128;
  cfg.tcam_depth = 512;
  return cfg;
}

table::TableSpec Spec(table::MatchKind kind) {
  table::TableSpec spec;
  spec.name = std::string(table::MatchKindName(kind));
  spec.match_kind = kind;
  spec.key_width_bits = kKeyWidth;
  spec.action_data_width_bits = kActionWidth;
  spec.size = kTableSize;
  spec.default_action_data = mem::BitString(kActionWidth, 0xDEAD);
  return spec;
}

Status Populate(table::MatchTable& t, table::MatchKind kind, util::Rng& rng,
                std::vector<mem::BitString>& inserted_keys) {
  for (uint32_t i = 0; i < kEntries; ++i) {
    table::Entry e;
    e.action_id = 1 + (i % 7);
    e.action_data = mem::BitString(kActionWidth, rng.Next());
    switch (kind) {
      case table::MatchKind::kExact:
        e.key = mem::BitString(kKeyWidth, rng.Next());
        break;
      case table::MatchKind::kLpm: {
        e.key = mem::BitString(kKeyWidth, rng.Next() << 8);
        e.prefix_len = 8 + (i % 17);
        break;
      }
      case table::MatchKind::kTernary: {
        e.key = mem::BitString(kKeyWidth, rng.Next());
        // A handful of distinct masks so the bucket index has real work.
        static const uint64_t kMasks[] = {0xFFFFFFFFu, 0xFFFFFF00u,
                                          0xFFFF0000u, 0xFF00FF00u};
        e.mask = mem::BitString(kKeyWidth, kMasks[i % 4]);
        e.priority = i % 11;
        break;
      }
      case table::MatchKind::kSelector:
        e.key = mem::BitString(kKeyWidth, i % kTableSize);
        break;
    }
    Status s = t.Insert(e);
    // Duplicate random exact keys / LPM prefixes just update in place.
    if (!s.ok()) return s;
    inserted_keys.push_back(e.key);
  }
  return OkStatus();
}

struct KindReport {
  std::string name;
  double ns_per_lookup = 0;
  uint64_t allocs_per_million = 0;  // allocations across 1e6 lookups
  uint64_t hits = 0;
};

KindReport MeasureKind(table::MatchKind kind, bool smoke) {
  KindReport rep;
  rep.name = std::string(table::MatchKindName(kind));

  mem::Pool pool(BenchPool());
  auto t = table::CreateTable(Spec(kind), pool, 1);
  if (!t.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", t.status().ToString().c_str());
    std::exit(2);
  }
  util::Rng rng(0x195A + static_cast<uint64_t>(kind));
  std::vector<mem::BitString> inserted;
  if (Status s = Populate(**t, kind, rng, inserted); !s.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", s.ToString().c_str());
    std::exit(2);
  }

  // Probe keys: inserted keys (hits) alternating with random ones (mostly
  // misses) — both paths must be allocation-free.
  std::vector<mem::BitString> keys;
  keys.reserve(1024);
  util::Rng probe_rng(7);
  for (uint32_t i = 0; i < 1024; ++i) {
    if (i % 2 == 0) {
      keys.push_back(inserted[(i / 2) % inserted.size()]);
    } else {
      keys.emplace_back(kKeyWidth, probe_rng.Next());
    }
  }

  table::LookupScratch scratch;
  // Warm up: first lookups size the scratch capacity; not steady state.
  for (uint32_t i = 0; i < 64; ++i) {
    (*t)->LookupInto(keys[i % keys.size()], scratch.result);
  }

  const uint64_t iters = smoke ? 200'000 : 1'000'000;

  // Allocation count over the steady-state window.
  uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  uint64_t hits = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    (*t)->LookupInto(keys[i & 1023], scratch.result);
    hits += scratch.result.hit ? 1 : 0;
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) -
                    allocs_before;
  rep.allocs_per_million = allocs * 1'000'000 / iters;
  rep.hits = hits;

  // Timing: min of rounds, interleaved-round style noise rejection.
  const int rounds = smoke ? 3 : 5;
  const uint64_t timed_iters = smoke ? 100'000 : 500'000;
  double best_ns = 1e18;
  for (int r = 0; r < rounds; ++r) {
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < timed_iters; ++i) {
      (*t)->LookupInto(keys[i & 1023], scratch.result);
    }
    auto t1 = Clock::now();
    double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(timed_iters);
    if (ns < best_ns) best_ns = ns;
  }
  rep.ns_per_lookup = best_ns;
  return rep;
}

// --- LPM single-op publish cost ----------------------------------------------

struct LpmLayout {
  mem::Pool pool;
  std::unique_ptr<table::MatchTable> table;
  std::vector<uint32_t> keys;  // the /32s, for the timed upserts

  static mem::PoolConfig PoolFor(uint32_t size) {
    mem::PoolConfig cfg = BenchPool();
    cfg.sram_blocks = size / cfg.sram_depth + 8;
    return cfg;
  }

  LpmLayout(uint32_t size, bool clustered) : pool(PoolFor(size)) {
    table::TableSpec spec = Spec(table::MatchKind::kLpm);
    spec.size = size;
    auto created = table::CreateTable(spec, pool, 1);
    if (!created.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", created.status().ToString().c_str());
      std::exit(2);
    }
    table = std::move(*created);
    // Fill to ~98% like the baseline (8001 of 8192), plus the /8 above the
    // clustered routes.
    const uint32_t routes = size - size / 64;
    const uint32_t stride = static_cast<uint32_t>((uint64_t{1} << 32) / routes);
    table->BeginBatch();
    if (clustered) Add(0x0A000000, 8, 0);
    for (uint32_t k = 0; k < routes; ++k) {
      keys.push_back(clustered ? 0x0A000000 + k : k * stride);
      Add(keys.back(), 32, k);
    }
    table->EndBatch();
  }

  void Add(uint32_t addr, uint32_t len, uint64_t data) {
    table::Entry e;
    e.key = mem::BitString(kKeyWidth, addr);
    e.prefix_len = len;
    e.action_id = 1;
    e.action_data = mem::BitString(kActionWidth, data);
    if (Status s = table->Insert(e); !s.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  }

  // Microseconds per unbatched upsert over `ops` random routes.
  double TimeUpserts(util::Rng& rng, uint32_t ops) {
    auto t0 = Clock::now();
    for (uint32_t i = 0; i < ops; ++i) {
      Add(keys[rng.NextBelow(keys.size())], 32, rng.Next());
    }
    auto t1 = Clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count() / ops;
  }
};

struct PublishReport {
  uint32_t size = 0;
  double clustered_us = 0;
  double spread_us = 0;
  double ratio() const { return clustered_us / spread_us; }
};

// Min of interleaved rounds, alternating which layout goes first, so host
// drift hits both alike.
PublishReport MeasurePublish(uint32_t size, bool smoke) {
  LpmLayout clustered(size, /*clustered=*/true);
  LpmLayout spread(size, /*clustered=*/false);
  util::Rng rng(0x9B11 + size);
  const int rounds = smoke ? 7 : 11;
  const uint32_t ops = smoke ? 200 : 500;
  PublishReport rep;
  rep.size = size;
  rep.clustered_us = rep.spread_us = 1e18;
  for (int r = 0; r < rounds; ++r) {
    LpmLayout* order[2] = {&clustered, &spread};
    if (r % 2 == 1) std::swap(order[0], order[1]);
    for (LpmLayout* l : order) {
      double us = l->TimeUpserts(rng, ops);
      double& best = l == &clustered ? rep.clustered_us : rep.spread_us;
      best = std::min(best, us);
    }
  }
  return rep;
}

int Run(bool smoke) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "WARNING: bench_tables was built without NDEBUG (a Debug "
               "build). Numbers are meaningless; configure with "
               "-DCMAKE_BUILD_TYPE=Release.\n");
  if (smoke) {
    std::fprintf(stderr, "--smoke refuses to gate on a Debug build.\n");
    return 1;
  }
#endif
  const table::MatchKind kinds[] = {
      table::MatchKind::kExact, table::MatchKind::kLpm,
      table::MatchKind::kTernary, table::MatchKind::kSelector};
  std::printf("%-10s %14s %22s %12s\n", "kind", "ns/lookup",
              "allocs/1e6 lookups", "hits");
  bool clean = true;
  for (table::MatchKind kind : kinds) {
    KindReport rep = MeasureKind(kind, smoke);
    std::printf("%-10s %14.1f %22llu %12llu\n", rep.name.c_str(),
                rep.ns_per_lookup,
                static_cast<unsigned long long>(rep.allocs_per_million),
                static_cast<unsigned long long>(rep.hits));
    if (rep.allocs_per_million != 0) clean = false;
  }
  if (!clean) {
    std::fprintf(stderr,
                 "FAIL: steady-state lookups performed heap allocations\n");
    return 1;
  }
  std::printf("OK: 0 heap allocations per steady-state lookup, all kinds\n");

  constexpr double kMaxRatio = 2.0;
  std::printf("\nlpm single-op upsert+publish, us/op (min of rounds)\n");
  std::printf("%-10s %12s %12s %8s\n", "entries", "clustered", "spread",
              "ratio");
  bool flat = true;
  for (uint32_t size : {8192u, 65536u}) {
    PublishReport rep = MeasurePublish(size, smoke);
    std::printf("%-10u %12.2f %12.2f %8.2f\n", rep.size, rep.clustered_us,
                rep.spread_us, rep.ratio());
    if (rep.ratio() > kMaxRatio) flat = false;
  }
  if (!flat) {
    std::fprintf(stderr,
                 "FAIL: clustered single-op publish costs more than %.1fx "
                 "spread\n",
                 kMaxRatio);
    return 1;
  }
  std::printf("OK: clustered/spread single-op publish within %.1fx\n",
              kMaxRatio);
  return 0;
}

}  // namespace
}  // namespace ipsa

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  return ipsa::Run(smoke);
}
