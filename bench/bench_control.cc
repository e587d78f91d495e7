// Control-channel performance: table-insert throughput over the wire,
// single-call vs batched, plus UDP packet-in -> packet-out through a live
// switchd — both one packet at a time (round-trip latency) and in
// sendmmsg/recvmmsg bursts (throughput; this is the daemon's batched
// packet plane measured end to end). The batched/single ratio is the
// headline number: batching amortizes one TCP round-trip per kTableOpReq
// over thousands of pre-packed entries in a single kTableBatchReq, and one
// syscall per datagram over a whole burst on the packet plane.
//
// Everything runs over loopback against an in-process daemon, so the
// numbers measure the protocol stack (frame codec + dispatcher + event
// loop), not a NIC.
//
// Besides the console table, results are written to BENCH_control.json.
#include <benchmark/benchmark.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "controller/baseline.h"
#include "controller/designs.h"
#include "controller/runtime_api.h"
#include "daemon/switchd.h"
#include "mem/pool.h"
#include "net/packet_builder.h"
#include "rpc/client.h"
#include "table/table.h"
#include "util/rng.h"
#include "wire/socket.h"
#include "wire/udp_batch.h"

namespace ipsa::bench {
namespace {

// One daemon + connected client shared by all benchmarks (starting a
// switchd per iteration would measure process setup, not the protocol).
struct ControlSetup {
  std::unique_ptr<daemon::Switchd> switchd;
  std::unique_ptr<rpc::Client> client;
  compiler::ApiSpec api;

  static ControlSetup& Get() {
    static ControlSetup setup = [] {
      ControlSetup s;
      daemon::SwitchdOptions options;
      options.arch = daemon::ArchKind::kIpsa;
      options.udp_ports = 8;
      s.switchd = std::make_unique<daemon::Switchd>(options);
      if (!s.switchd->Start().ok()) std::abort();

      rpc::ClientOptions copts;
      copts.port = s.switchd->control_port();
      copts.client_name = "bench_control";
      s.client = std::make_unique<rpc::Client>(copts);
      if (!s.client
               ->Install(rpc::InstallKind::kBaseP4,
                         controller::designs::BaseP4())
               .ok()) {
        std::abort();
      }
      auto api = s.client->FetchApi();
      if (!api.ok()) std::abort();
      s.api = std::move(*api);
      return s;
    }();
    return setup;
  }
};

// Host entries cycling through a small key pool: ExactTable::Insert
// overwrites in place on a duplicate key, so the table never fills and
// every op costs the same table work — only the transport differs between
// the single and batched variants.
table::Entry HostEntry(const compiler::ApiSpec& api, uint32_t i) {
  controller::EntryBuilder builder(api);
  auto e = builder.Build(
      "ipv4_host", "set_nexthop",
      {controller::KeyValue(controller::Ipv4Bits(0x0A000000 + (i % 1024)))},
      {controller::Bits(16, 100 + (i % 8))});
  if (!e.ok()) std::abort();
  return *e;
}

// One RPC per insert: each op pays a full request/response round-trip
// through the event loop.
void BM_TableInsertSingle(benchmark::State& state) {
  ControlSetup& setup = ControlSetup::Get();
  uint32_t i = 0;
  for (auto _ : state) {
    Status s = setup.client->ModifyEntry("ipv4_host", HostEntry(setup.api, i));
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TableInsertSingle)->UseRealTime();

// N inserts per kTableBatchReq: one round-trip amortized over the batch.
void BM_TableInsertBatched(benchmark::State& state) {
  ControlSetup& setup = ControlSetup::Get();
  const uint32_t batch_size = static_cast<uint32_t>(state.range(0));
  uint32_t i = 0;
  for (auto _ : state) {
    std::vector<rpc::TableOp> ops;
    ops.reserve(batch_size);
    for (uint32_t k = 0; k < batch_size; ++k) {
      rpc::TableOp op;
      op.op = rpc::TableOpKind::kModify;
      op.table = "ipv4_host";
      op.entry = HostEntry(setup.api, i++);
      ops.push_back(std::move(op));
    }
    auto resp = setup.client->ApplyBatch(ops);
    if (!resp.ok()) {
      state.SkipWithError(resp.status().ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          batch_size);
}
BENCHMARK(BM_TableInsertBatched)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->UseRealTime();

// The daemon pins a port's packet-out peer on first contact; a fresh socket
// must re-home the port with an explicit zero-length registration datagram
// before it can see packet-outs. Every benchmark binds its own socket, so
// each registers before sending traffic.
bool RegisterPeer(int fd, const sockaddr_in& daemon_addr) {
  return ::sendto(fd, "", 0, 0,
                  reinterpret_cast<const sockaddr*>(&daemon_addr),
                  sizeof(daemon_addr)) == 0;
}

// Routes the workload through the daemon's FIB (idempotent across runs)
// and builds the canonical host-bound frame: dst 10.0.0.4 resolves to
// nexthop 104 -> egress port 0, so a sender on port 0 gets its own frame
// back.
Result<std::vector<uint8_t>> RouteAndBuildFrame(ControlSetup& setup) {
  auto api = setup.api;
  std::vector<rpc::TableOp> ops;
  controller::AddEntryFn collect = [&ops](const std::string& table,
                                          const table::Entry& entry) {
    rpc::TableOp op;
    op.op = rpc::TableOpKind::kModify;
    op.table = table;
    op.entry = entry;
    ops.push_back(std::move(op));
    return OkStatus();
  };
  controller::BaselineConfig config;
  IPSA_RETURN_IF_ERROR(controller::PopulateBaseline(api, collect, config));
  IPSA_RETURN_IF_ERROR(setup.client->ApplyBatch(ops).status());

  net::Packet pkt = net::PacketBuilder()
                        .Ethernet(net::MacAddr::FromUint64(
                                      config.router_mac_base),
                                  net::MacAddr::FromUint64(0x020000000001ull),
                                  net::kEtherTypeIpv4)
                        .Ipv4(net::Ipv4Addr::FromString("192.168.0.1"),
                              net::Ipv4Addr{0x0A000004}, net::kIpProtoUdp)
                        .Udp(4000, 80)
                        .Payload(32)
                        .Build();
  return std::vector<uint8_t>(pkt.bytes().begin(), pkt.bytes().end());
}

// UDP packet-in -> packet-out round trip: inject on port 0, wait for the
// forwarded frame on its egress port. Measures the full datapath hop:
// socket in, RX push, run-to-completion, TX collect, socket out.
void BM_PacketRtt(benchmark::State& state) {
  ControlSetup& setup = ControlSetup::Get();
  auto frame = RouteAndBuildFrame(setup);
  if (!frame.ok()) {
    state.SkipWithError("populate failed");
    return;
  }
  std::vector<uint8_t>& bytes = *frame;

  auto sock = wire::UdpBind("127.0.0.1", 0);
  if (!sock.ok()) {
    state.SkipWithError("udp bind failed");
    return;
  }
  sockaddr_in in_addr{};
  in_addr.sin_family = AF_INET;
  in_addr.sin_port = htons(setup.switchd->udp_port(0));
  in_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (!RegisterPeer(sock->fd(), in_addr)) {
    state.SkipWithError("peer registration failed");
    return;
  }

  std::vector<uint8_t> buf(64 * 1024);
  for (auto _ : state) {
    if (::sendto(sock->fd(), bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&in_addr),
                 sizeof(in_addr)) < 0) {
      state.SkipWithError("sendto failed");
      return;
    }
    auto n = wire::RecvSome(sock->fd(), buf, 5000);
    if (!n.ok() || *n == 0) {
      state.SkipWithError("no packet-out");
      return;
    }
    benchmark::DoNotOptimize(buf[0]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketRtt)->UseRealTime();

// Burst packet-in -> packet-out: B frames queued through UdpBatchSender
// and flushed with one sendmmsg, then all B packet-outs drained with
// UdpBatchReceiver under a poll deadline. items/s is the daemon's batched
// packet-plane throughput over loopback (one in-flight burst; deeper
// pipelining would go faster still).
void BM_PacketBurst(benchmark::State& state) {
  ControlSetup& setup = ControlSetup::Get();
  const uint32_t burst = static_cast<uint32_t>(state.range(0));
  auto frame = RouteAndBuildFrame(setup);
  if (!frame.ok()) {
    state.SkipWithError("populate failed");
    return;
  }

  auto sock = wire::UdpBind("127.0.0.1", 0);
  if (!sock.ok() || !wire::SetNonBlocking(sock->fd(), true).ok()) {
    state.SkipWithError("udp bind failed");
    return;
  }
  sockaddr_in in_addr{};
  in_addr.sin_family = AF_INET;
  in_addr.sin_port = htons(setup.switchd->udp_port(0));
  in_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (!RegisterPeer(sock->fd(), in_addr)) {
    state.SkipWithError("peer registration failed");
    return;
  }

  wire::UdpBatchSender sender(burst);
  wire::UdpBatchReceiver receiver(burst);
  int64_t items = 0;
  uint64_t dropped = 0;
  for (auto _ : state) {
    for (uint32_t i = 0; i < burst; ++i) {
      sender.Add(std::span<const uint8_t>(*frame), in_addr);
    }
    auto sent = sender.Flush(sock->fd());
    if (!sent.ok() || *sent != burst) {
      state.SkipWithError("burst send failed");
      return;
    }
    // UDP over loopback can shed a frame under load (the daemon's sendmmsg
    // flush is lossy by design); a drained-short burst counts what arrived
    // rather than failing the run, and the drop total is reported. Once the
    // first packet-out lands the rest of the burst is microseconds behind,
    // so the residual deadline stays tight to keep a rare drop from
    // dominating the iteration's wall time. A burst with zero packet-outs
    // means the daemon stopped forwarding — that is still an error.
    uint32_t got = 0;
    while (got < burst) {
      pollfd pfd{sock->fd(), POLLIN, 0};
      int pr = ::poll(&pfd, 1, got == 0 ? 5000 : 10);
      if (pr <= 0) break;
      auto n = receiver.Recv(sock->fd());
      if (!n.ok()) {
        state.SkipWithError(n.status().ToString().c_str());
        return;
      }
      got += *n;
    }
    if (got == 0) {
      state.SkipWithError("burst packet-out timed out");
      return;
    }
    dropped += burst - got;
    items += static_cast<int64_t>(got);
  }
  state.SetItemsProcessed(items);
  state.counters["dropped"] = static_cast<double>(dropped);
}
BENCHMARK(BM_PacketBurst)->Arg(32)->Arg(64)->Arg(256)->UseRealTime();

// --- lookup p99 under churn --------------------------------------------------
//
// The daemon serializes control and data on one thread, so reader-vs-writer
// concurrency is measured in process: a million-entry exact table built on
// its own pool, a writer thread publishing overwrite bursts through the
// batch hooks (the shape a bulk frame produces), and readers timing the
// allocation-free LookupInto hot path — no lock anywhere on it.

struct LookupSetup {
  mem::Pool pool;
  std::unique_ptr<table::MatchTable> table;
  uint32_t nkeys;

  static mem::PoolConfig PoolFor(uint32_t nkeys) {
    mem::PoolConfig cfg;
    cfg.sram_width_bits = 128;
    cfg.sram_depth = 1024;
    cfg.sram_blocks = nkeys / 1024 + 64;
    return cfg;
  }

  explicit LookupSetup(uint32_t n) : pool(PoolFor(n)), nkeys(n) {
    table::TableSpec spec;
    spec.name = "big_exact";
    spec.match_kind = table::MatchKind::kExact;
    spec.key_width_bits = 32;
    spec.action_data_width_bits = 32;
    spec.size = nkeys;
    auto created = table::CreateTable(spec, pool, 1);
    if (!created.ok()) std::abort();
    table = std::move(*created);
    table->BeginBatch();
    for (uint32_t i = 0; i < nkeys; ++i) {
      table::Entry e;
      e.key = mem::BitString(32, i);
      e.action_id = 1;
      e.action_data = mem::BitString(32, i);
      if (!table->Insert(e).ok()) std::abort();
    }
    table->EndBatch();
  }
};

class ChurnWriter {
 public:
  ChurnWriter(table::MatchTable& t, uint32_t nkeys) : t_(t), nkeys_(nkeys) {
    thread_ = std::thread([this] { Run(); });
  }
  ~ChurnWriter() { Stop(); }

  void Stop() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }

 private:
  void Run() {
    util::Rng rng(0x9E3779B9);
    uint32_t version = 1;
    table::Entry e;
    while (!done_.load(std::memory_order_acquire)) {
      t_.BeginBatch();
      for (uint32_t k = 0; k < 256; ++k) {
        uint32_t i = static_cast<uint32_t>(rng.NextBelow(nkeys_));
        e.key = mem::BitString(32, i);
        e.action_id = 1;
        e.action_data = mem::BitString(32, version);
        if (!t_.Insert(e).ok()) break;
      }
      t_.EndBatch();
      ++version;
      batches_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  table::MatchTable& t_;
  uint32_t nkeys_;
  std::atomic<bool> done_{false};
  std::atomic<uint64_t> batches_{0};
  std::thread thread_;
};

double PercentileNs(std::vector<uint64_t>& samples, double p) {
  if (samples.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                   samples.end());
  return static_cast<double>(samples[idx]);
}

void RunLookupP99(benchmark::State& state, bool churn) {
  static LookupSetup* setup = new LookupSetup(1u << 20);
  std::unique_ptr<ChurnWriter> writer;
  if (churn) {
    writer = std::make_unique<ChurnWriter>(*setup->table, setup->nkeys);
  }
  util::Rng rng(0xFACADE);
  std::vector<uint64_t> samples;
  samples.reserve(1u << 21);
  table::LookupResult r;
  mem::BitString key;
  for (auto _ : state) {
    key = mem::BitString(32, rng.NextBelow(setup->nkeys));
    auto t0 = std::chrono::steady_clock::now();
    setup->table->LookupInto(key, r);
    auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(r.hit);
    if (samples.size() < samples.capacity()) {
      samples.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
  }
  if (writer) {
    writer->Stop();
    state.counters["churn_batches"] = static_cast<double>(writer->batches());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["p99_ns"] = PercentileNs(samples, 0.99);
}

void BM_LookupP99MillionQuiescent(benchmark::State& state) {
  RunLookupP99(state, /*churn=*/false);
}
BENCHMARK(BM_LookupP99MillionQuiescent)->UseRealTime();

void BM_LookupP99MillionChurn(benchmark::State& state) {
  RunLookupP99(state, /*churn=*/true);
}
BENCHMARK(BM_LookupP99MillionChurn)->UseRealTime();


// --- million-entry tables ----------------------------------------------------
//
// BaseP4's largest table holds 8192 entries; the million-entry benchmarks
// install their own minimal design — one 2^20-entry LPM — on a dedicated
// daemon whose pool is tuned deep enough to hold it. The interesting
// contrast is publication cost: every route change republishes the LPM's
// root array (2^20 slot refs), which the streamed bulk path pays once per
// frame while the plain batched path pays once per op.

std::string BigLpmP4(uint32_t size) {
  return "header h_t {\n"
         "  bit<32> dst;\n"
         "  bit<16> sel;\n"
         "}\n"
         "struct metadata_t {\n"
         "  bit<16> nh;\n"
         "}\n"
         "struct headers_t {\n"
         "  h_t h;\n"
         "}\n"
         "parser MainParser(packet_in pkt, out headers_t hdr, inout "
         "metadata_t meta) {\n"
         "  state start {\n"
         "    pkt.extract(hdr.h);\n"
         "    transition accept;\n"
         "  }\n"
         "}\n"
         "control MainIngress(inout headers_t hdr, inout metadata_t meta) {\n"
         "  action set_nh(bit<16> nh) { meta.nh = nh; }\n"
         "  table big_lpm {\n"
         "    key = { hdr.h.dst: lpm; }\n"
         "    actions = { set_nh; NoAction; }\n"
         "    size = " + std::to_string(size) + ";\n"
         "  }\n"
         "  apply { big_lpm.apply(); }\n"
         "}\n"
         "control MainEgress(inout headers_t hdr, inout metadata_t meta) {\n"
         "  action out_port(bit<9> port) { forward(port); }\n"
         "  table send {\n"
         "    key = { meta.nh: exact; }\n"
         "    actions = { out_port; NoAction; }\n"
         "    size = 16;\n"
         "  }\n"
         "  apply { send.apply(); }\n"
         "}\n";
}

// Distinct /32 keys spread evenly over the address space. The LPM root
// covers at most the top 12 key bits, so a million-entry table holds ~256
// of these per root slot; bench_tables compares single-op publish cost on
// spread and clustered layouts directly.
uint32_t BigKey(uint32_t i, uint32_t table_size) {
  return i << (32 - std::countr_zero(table_size));
}

Result<table::Entry> BigRouteEntry(const controller::EntryBuilder& builder,
                                   uint32_t i, uint32_t table_size) {
  return builder.Build(
      "big_lpm", "set_nh",
      {controller::KeyValue(controller::Ipv4Bits(BigKey(i, table_size)))},
      {controller::Bits(16, 1)}, /*prefix_len=*/32);
}

struct BigSetup {
  std::unique_ptr<daemon::Switchd> switchd;
  std::unique_ptr<rpc::Client> client;
  compiler::ApiSpec api;
  uint32_t table_size = 0;

  // Brings up the daemon (deep pool when the arch defaults can't hold the
  // table), installs the design, routes every nexthop tag out port 0, and
  // streams `table_size` distinct /32 routes in through the bulk path.
  static Result<std::unique_ptr<BigSetup>> Make(uint32_t table_size) {
    auto s = std::make_unique<BigSetup>();
    s->table_size = table_size;

    daemon::SwitchdOptions options;
    options.arch = daemon::ArchKind::kIpsa;
    options.udp_ports = 1;
    if (table_size > (1u << 17)) {
      options.pool.sram_depth = 8192;
      options.pool.sram_blocks = table_size / 8192 + 32;
    }
    s->switchd = std::make_unique<daemon::Switchd>(options);
    IPSA_RETURN_IF_ERROR(s->switchd->Start());

    rpc::ClientOptions copts;
    copts.port = s->switchd->control_port();
    copts.client_name = "bench_control_big";
    // A single batched call republishing the root per op runs for seconds
    // at this scale; that stall is the measurement, not a dead peer.
    copts.call_timeout_ms = 120000;
    s->client = std::make_unique<rpc::Client>(copts);
    IPSA_RETURN_IF_ERROR(
        s->client->Install(rpc::InstallKind::kBaseP4, BigLpmP4(table_size))
            .status());
    IPSA_ASSIGN_OR_RETURN(s->api, s->client->FetchApi());

    controller::EntryBuilder builder(s->api);
    IPSA_ASSIGN_OR_RETURN(
        table::Entry send,
        builder.Build("send", "out_port", {controller::KeyValue(1)},
                      {controller::Bits(9, 0)}));
    IPSA_RETURN_IF_ERROR(s->client->ModifyEntry("send", send));

    std::vector<rpc::TableOp> ops;
    ops.reserve(table_size);
    for (uint32_t i = 0; i < table_size; ++i) {
      IPSA_ASSIGN_OR_RETURN(table::Entry e,
                            BigRouteEntry(builder, i, table_size));
      rpc::TableOp op;
      op.op = rpc::TableOpKind::kAdd;
      op.table = "big_lpm";
      op.entry = std::move(e);
      ops.push_back(std::move(op));
    }
    rpc::BulkOptions fill;
    fill.ops_per_frame = 8192;
    IPSA_ASSIGN_OR_RETURN(rpc::BulkResult filled,
                          s->client->ApplyBulk(ops, fill));
    if (filled.applied != table_size || !filled.failures.empty()) {
      return InternalError("million-entry fill applied " +
                           std::to_string(filled.applied) + "/" +
                           std::to_string(table_size) + " routes");
    }
    return s;
  }

  // The 2^20-entry instance shared by the registered benchmarks.
  static BigSetup& Get() {
    static BigSetup* setup = [] {
      auto s = Make(1u << 20);
      if (!s.ok()) {
        std::fprintf(stderr, "big setup: %s\n", s.status().ToString().c_str());
        std::abort();
      }
      return s->release();
    }();
    return *setup;
  }
};

// Overwrites (kModify) of existing routes starting at index `start`: the
// table stays at capacity and every op pays identical table work, so the
// bulk and batched variants differ only in transport and publication.
Result<std::vector<rpc::TableOp>> BigModifyOps(BigSetup& setup, uint32_t start,
                                               uint32_t count) {
  controller::EntryBuilder builder(setup.api);
  std::vector<rpc::TableOp> ops;
  ops.reserve(count);
  for (uint32_t k = 0; k < count; ++k) {
    uint32_t i = (start + k) % setup.table_size;
    IPSA_ASSIGN_OR_RETURN(table::Entry e,
                          BigRouteEntry(builder, i, setup.table_size));
    rpc::TableOp op;
    op.op = rpc::TableOpKind::kModify;
    op.table = "big_lpm";
    op.entry = std::move(e);
    ops.push_back(std::move(op));
  }
  return ops;
}

// Background packet plane: keeps bursts of frames in flight against the big
// daemon while the control-plane benchmarks run, so inserts/s is measured
// under live traffic. The daemon serializes control and data on one loop, so
// a long control apply stalls forwarding — that stall is part of what the
// bulk/batched comparison shows; the pump tolerates it and just counts the
// round trips it completes.
class TrafficPump {
 public:
  explicit TrafficPump(BigSetup& setup) {
    thread_ = std::thread([this, &setup] { Run(setup); });
  }
  ~TrafficPump() { Stop(); }

  void Stop() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  uint64_t round_trips() const {
    return rtts_.load(std::memory_order_relaxed);
  }

 private:
  void Run(BigSetup& setup) {
    auto sock = wire::UdpBind("127.0.0.1", 0);
    if (!sock.ok()) return;
    sockaddr_in in_addr{};
    in_addr.sin_family = AF_INET;
    in_addr.sin_port = htons(setup.switchd->udp_port(0));
    in_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (!RegisterPeer(sock->fd(), in_addr)) return;

    // h_t is {bit<32> dst; bit<16> sel}: key bytes MSB-first, then padding.
    // dst hits an installed /32, set_nh(1) resolves out port 0, so the frame
    // comes straight back to the sender.
    std::vector<uint8_t> frame(32, 0);
    uint32_t dst = BigKey(1, setup.table_size);
    frame[0] = static_cast<uint8_t>(dst >> 24);
    frame[1] = static_cast<uint8_t>(dst >> 16);
    frame[2] = static_cast<uint8_t>(dst >> 8);
    frame[3] = static_cast<uint8_t>(dst);

    std::vector<uint8_t> buf(2048);
    constexpr uint32_t kBurst = 16;
    while (!done_.load(std::memory_order_acquire)) {
      uint32_t sent = 0;
      for (uint32_t i = 0; i < kBurst; ++i) {
        if (::sendto(sock->fd(), frame.data(), frame.size(), 0,
                     reinterpret_cast<const sockaddr*>(&in_addr),
                     sizeof(in_addr)) ==
            static_cast<ssize_t>(frame.size())) {
          ++sent;
        }
      }
      uint32_t got = 0;
      while (got < sent && !done_.load(std::memory_order_acquire)) {
        auto n = wire::RecvSome(sock->fd(), buf, 20);
        if (!n.ok() || *n == 0) break;  // daemon busy applying control work
        ++got;
      }
      rtts_.fetch_add(got, std::memory_order_relaxed);
    }
  }

  std::atomic<bool> done_{false};
  std::atomic<uint64_t> rtts_{0};
  std::thread thread_;
};

// Sustained overwrite stream at capacity: window of 8 pipelined 1024-op
// frames, root republished once per frame. This is the headline
// sustained-inserts/s-under-live-traffic number.
void BM_BulkInsertStreamMillion(benchmark::State& state) {
  BigSetup& setup = BigSetup::Get();
  TrafficPump pump(setup);
  const uint32_t ops_per_iter = 8192;
  uint32_t next = 0;
  for (auto _ : state) {
    auto ops = BigModifyOps(setup, next, ops_per_iter);
    if (!ops.ok()) {
      state.SkipWithError(ops.status().ToString().c_str());
      return;
    }
    next = (next + ops_per_iter) % setup.table_size;
    auto r = setup.client->ApplyBulk(*ops);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    if (!r->failures.empty()) {
      state.SkipWithError("bulk op rejected");
      return;
    }
  }
  pump.Stop();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          ops_per_iter);
  state.counters["traffic_rtts"] = static_cast<double>(pump.round_trips());
}
BENCHMARK(BM_BulkInsertStreamMillion)->UseRealTime();

// The PR 2 path at the same scale: one kTableBatchReq per 256 ops, each
// request published once. The gap to BM_BulkInsertStreamMillion is the
// bulk path's pipelining.
void BM_TableInsertBatchedMillion(benchmark::State& state) {
  BigSetup& setup = BigSetup::Get();
  TrafficPump pump(setup);
  const uint32_t batch = 256;
  uint32_t next = 0;
  for (auto _ : state) {
    auto ops = BigModifyOps(setup, next, batch);
    if (!ops.ok()) {
      state.SkipWithError(ops.status().ToString().c_str());
      return;
    }
    next = (next + batch) % setup.table_size;
    auto r = setup.client->ApplyBatch(*ops);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  pump.Stop();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
  state.counters["traffic_rtts"] = static_cast<double>(pump.round_trips());
}
BENCHMARK(BM_TableInsertBatchedMillion)->UseRealTime();

// Quiescent/churn p99 for the smoke gate, outside the benchmark harness.
double SmokeLookupP99(table::MatchTable& t, uint32_t nkeys,
                      uint32_t nsamples) {
  util::Rng rng(0xFACADE);
  std::vector<uint64_t> samples;
  samples.reserve(nsamples);
  table::LookupResult r;
  mem::BitString key;
  for (uint32_t i = 0; i < nsamples; ++i) {
    key = mem::BitString(32, rng.NextBelow(nkeys));
    auto t0 = std::chrono::steady_clock::now();
    t.LookupInto(key, r);
    auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(r.hit);
    samples.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  return PercentileNs(samples, 0.99);
}

}  // namespace

// Reduced-scale run of the two acceptance gates, for CI: the streamed bulk
// path must sustain >= 5x the inserts/s of one-op-per-call modifies (one
// round trip and one publication per op), and lookup p99 under churn must
// stay within 2x of the quiescent p99. Exits nonzero on failure. ~64k
// entries keeps the gate under a minute while preserving the per-op vs
// per-frame contrast the gates check.
int SmokeMain() {
  constexpr uint32_t kSize = 1u << 16;
  std::fprintf(stderr, "[smoke] bringing up %u-entry LPM daemon...\n", kSize);
  auto setup_or = BigSetup::Make(kSize);
  if (!setup_or.ok()) {
    std::fprintf(stderr, "[smoke] setup failed: %s\n",
                 setup_or.status().ToString().c_str());
    return 1;
  }
  BigSetup& setup = **setup_or;
  using Clock = std::chrono::steady_clock;
  auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  double bulk_rate = 0.0;
  {
    constexpr uint32_t kOps = 16384;
    auto ops = BigModifyOps(setup, 0, kOps);
    if (!ops.ok()) {
      std::fprintf(stderr, "[smoke] op build failed: %s\n",
                   ops.status().ToString().c_str());
      return 1;
    }
    auto t0 = Clock::now();
    auto r = setup.client->ApplyBulk(*ops);
    auto t1 = Clock::now();
    if (!r.ok() || !r->failures.empty()) {
      std::fprintf(stderr, "[smoke] bulk stream failed\n");
      return 1;
    }
    bulk_rate = kOps / secs(t0, t1);
  }

  // The per-op reference: one call, one round trip and one publication per
  // op. (A TableBatch request publishes once per request, like a bulk
  // frame, so it is no longer the per-op path; its rate is printed only.)
  double single_rate = 0.0;
  {
    constexpr uint32_t kOps = 2048;
    auto ops = BigModifyOps(setup, 0, kOps);
    if (!ops.ok()) {
      std::fprintf(stderr, "[smoke] op build failed: %s\n",
                   ops.status().ToString().c_str());
      return 1;
    }
    auto t0 = Clock::now();
    for (const rpc::TableOp& op : *ops) {
      if (!setup.client->ModifyEntry(op.table, op.entry).ok()) {
        std::fprintf(stderr, "[smoke] single-op apply failed\n");
        return 1;
      }
    }
    auto t1 = Clock::now();
    single_rate = kOps / secs(t0, t1);
  }

  double batched_rate = 0.0;
  {
    constexpr uint32_t kBatch = 1024;
    constexpr uint32_t kBatches = 2;
    auto t0 = Clock::now();
    for (uint32_t b = 0; b < kBatches; ++b) {
      auto ops = BigModifyOps(setup, b * kBatch, kBatch);
      if (!ops.ok() || !setup.client->ApplyBatch(*ops).ok()) {
        std::fprintf(stderr, "[smoke] batched apply failed\n");
        return 1;
      }
    }
    auto t1 = Clock::now();
    batched_rate = kBatch * kBatches / secs(t0, t1);
  }

  LookupSetup lookup(kSize);
  constexpr uint32_t kSamples = 300000;
  double quiescent = SmokeLookupP99(*lookup.table, kSize, kSamples);
  double churn = 0.0;
  {
    ChurnWriter writer(*lookup.table, kSize);
    churn = SmokeLookupP99(*lookup.table, kSize, kSamples);
  }

  bool insert_ok = single_rate > 0 && bulk_rate >= 5.0 * single_rate;
  bool p99_ok = quiescent > 0 && churn <= 2.0 * quiescent;
  std::fprintf(stderr, "[smoke] batched (TableBatch x%u) %.0f ops/s\n", 1024u,
               batched_rate);
  std::fprintf(stderr,
               "[smoke] bulk stream %.0f ops/s vs single-op %.0f ops/s "
               "(%.1fx, gate >= 5x)  %s\n",
               bulk_rate, single_rate, bulk_rate / single_rate,
               insert_ok ? "PASS" : "FAIL");
  std::fprintf(stderr,
               "[smoke] lookup p99 quiescent %.0f ns vs churn %.0f ns "
               "(%.2fx, gate <= 2x)  %s\n",
               quiescent, churn, churn / quiescent, p99_ok ? "PASS" : "FAIL");
  return insert_ok && p99_ok ? 0 : 1;
}

}  // namespace ipsa::bench

// Custom main: besides the console table, always dump the JSON report to
// BENCH_control.json (overridable with an explicit --benchmark_out=).
// `--smoke` instead runs the reduced-scale acceptance gates and exits.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      return ipsa::bench::SmokeMain();
    }
  }
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out")) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_control.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
