// perfbench — the repository benchmark (README.md beside this file).
//
//   perfbench --workload <fwd-wide|wire-narrow|insitu-churn> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-rev <rev>]
//
// Prints every metric by name with unit and sample count, then, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The full
// report (with host context) and, when traced, the spans are written to
// --out-dir through temp file + rename.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "control.h"
#include "inproc.h"
#include "wire.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace ipsa::perfbench {
namespace {

// Background rate of insitu-churn. Its datagrams go one per send, which
// costs the daemon several times a burst's per-packet price, so this is
// about a tenth of wire-narrow's closed-loop rate: with the control steps
// below the daemon keeps headroom even when its core runs slow, and a
// latency rise is the control plane's doing.
constexpr double kChurnRatePps = 10000;
// insitu-churn runs one control step every this often.
constexpr int64_t kChurnStepNs = 25'000'000;
constexpr uint32_t kWireWindow = 32;
constexpr int kSetups = 3;
constexpr uint32_t kInprocPorts = 16;  // ipbm/pbm default port count

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_rev = "unknown";
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;
  // One per recording thread and phase; written out at exit.
  std::list<SpanRecorder> recorders;

  SpanRecorder& NewRecorder() { return recorders.emplace_back(); }
};

int64_t Sec(double s) { return static_cast<int64_t>(s * 1e9); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double PerSec(uint64_t n, int64_t ns) {
  return ns > 0 ? static_cast<double>(n) * 1e9 / static_cast<double>(ns) : 0;
}

// Builds a workload's whole set-up `kSetups` times (each replaces the
// last) and reports the median: set-up cost is a metric of its own.
template <typename Setup>
Result<std::unique_ptr<Setup>> TimedSetup(
    const std::function<Result<std::unique_ptr<Setup>>()>& make,
    Outcome& out) {
  std::vector<double> secs;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    const int64_t t0 = NowNs();
    IPSA_ASSIGN_OR_RETURN(setup, make());
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  out.e2e.push_back({"setup_s", Median(secs), "s", secs.size()});
  return setup;
}

// --- the parts every workload shares ------------------------------------------

struct InprocPart {
  IpbmRig ipbm;
  PbmRig pbm;
  std::vector<Golden> goldens;  // ipbm port set: any egress port counts
};

Result<InprocPart> MakeInproc(const TrafficSpec& spec, Twin& twin,
                              const std::vector<PoolPacket>& pool) {
  InprocPart p;
  IPSA_ASSIGN_OR_RETURN(p.ipbm, MakeIpbm(spec));
  IPSA_ASSIGN_OR_RETURN(p.pbm, MakePbm(spec));
  p.goldens = twin.Goldens(pool, kInprocPorts);
  return p;
}

// The oracle must reject a corrupted golden: one round against a copy with
// one flipped bit has to count a failure on each device.
bool InprocOracleCatches(InprocPart& part, const std::vector<PoolPacket>& pool,
                         uint32_t burst) {
  std::vector<Golden> bad = part.goldens;
  uint32_t victim = 0;
  while (victim < burst && !bad[victim].delivered) ++victim;
  if (victim == burst) return false;
  CorruptGolden(bad, victim);
  Forwarder f(part.ipbm, part.pbm, pool, bad, burst);
  SpanRecorder off;
  f.Run(INT64_MAX, off, 1);
  return f.ipbm_stats().failed > 0 && f.pbm_stats().failed > 0;
}

// In-process forwarding until `deadline`; in a traced run the second half
// records spans. Fills pbm_pps (and pps/lat when `primary`) and the
// device-layer metrics.
void RunInproc(InprocPart& part, const TrafficSpec& spec,
               const std::vector<PoolPacket>& pool, int64_t deadline,
               bool trace, bool primary, SpanRecorder& rec, Outcome& out,
               double& overhead_frac) {
  Forwarder f(part.ipbm, part.pbm, pool, part.goldens, spec.burst);
  const int64_t now = NowNs();
  SpanRecorder off;
  f.Run(trace ? now + (deadline - now) / 2 : deadline, off);
  const RoundStats plain_ipbm = f.ipbm_stats();
  const RoundStats plain_pbm = f.pbm_stats();
  if (trace) {
    rec.set_enabled(true);
    f.Run(deadline, rec);
    rec.set_enabled(false);
  }
  const RoundStats& ipbm = f.ipbm_stats();
  const RoundStats& pbm = f.pbm_stats();
  out.attempted += ipbm.attempted + pbm.attempted;
  out.failed += ipbm.failed + pbm.failed;
  if (ipbm.failed + pbm.failed > 0) {
    out.notes.push_back("in-process oracle mismatches: ipbm " +
                        std::to_string(ipbm.failed) + ", pbm " +
                        std::to_string(pbm.failed));
  }
  auto rate = [&](const RoundStats& r) {
    const double us = SlowestSliceMedian(r.round_us, /*rate=*/false);
    return us > 0 ? spec.burst * 1e6 / us : 0;
  };
  if (primary) {
    out.e2e.push_back({"pps", rate(plain_ipbm), "pkt/s", plain_ipbm.packets});
    out.e2e.push_back({"lat_p50_us",
                       SlowestSliceMedian(plain_ipbm.round_us, false), "us",
                       plain_ipbm.round_us.size()});
    out.layer.push_back({"lat_p99_us",
                         SlicedQuantile(plain_ipbm.round_us, 0.99), "us",
                         plain_ipbm.round_us.size()});
  }
  out.e2e.push_back({"pbm_pps", rate(plain_pbm), "pkt/s", plain_pbm.packets});
  if (f.ipbm_cycles_per_pkt() == 0) {
    out.correct = false;
    out.notes.push_back("in-process phase ended before one pool pass");
  }
  out.layer.push_back({"hw.cycles_per_pkt.ipbm", f.ipbm_cycles_per_pkt(),
                         "cycles", spec.pool_size});
  out.layer.push_back({"hw.cycles_per_pkt.pbm", f.pbm_cycles_per_pkt(),
                         "cycles", spec.pool_size});
  if (!trace) return;

  LayerTimes lt;
  AccumulateSelfTimes(rec.spans(), lt);
  const uint64_t ti = ipbm.packets - plain_ipbm.packets;
  const uint64_t tp = pbm.packets - plain_pbm.packets;
  auto per_pkt = [&](const char* key, uint64_t pkts) {
    return pkts ? static_cast<double>(lt[key].self_ns) / pkts : 0.0;
  };
  out.layer.push_back({"net.rx_push_ns", per_pkt("ipbm.round/net.rx_push", ti),
                         "ns", ti});
  out.layer.push_back({"net.tx_pop_ns", per_pkt("ipbm.round/net.tx_pop", ti),
                         "ns", ti});
  out.layer.push_back({"ipsa.drain_ns", per_pkt("ipbm.round/ipsa.drain", ti),
                         "ns", ti});
  out.layer.push_back({"pisa.drain_ns", per_pkt("pbm.round/pisa.drain", tp),
                         "ns", tp});
  if (primary) {
    const double traced_ns =
        ti ? static_cast<double>(ipbm.ns - plain_ipbm.ns) / ti : 0;
    const double plain_ns =
        plain_ipbm.packets
            ? static_cast<double>(plain_ipbm.ns) / plain_ipbm.packets
            : 0;
    overhead_frac = plain_ns > 0 ? traced_ns / plain_ns - 1 : 0;
    out.layer.push_back({"self.pkt.total_ns",
                           ti ? static_cast<double>(
                                    lt["ipbm.round/ipbm.round"].total_ns) / ti
                              : 0,
                           "ns", ti});
    out.layer.push_back({"self.pkt.other_ns",
                           per_pkt("ipbm.round/ipbm.round", ti), "ns", ti});
    const double parts = per_pkt("ipbm.round/net.rx_push", ti) +
                         per_pkt("ipbm.round/ipsa.drain", ti) +
                         per_pkt("ipbm.round/net.tx_pop", ti) +
                         per_pkt("ipbm.round/ipbm.round", ti);
    out.notes.push_back("self time per packet: rx_push + drain + tx_pop + other = " +
                        std::to_string(parts) + " ns of " +
                        std::to_string(static_cast<double>(
                                           lt["ipbm.round/ipbm.round"].total_ns) /
                                       ti) +
                        " ns");
  }
  {
    // Lookups per packet and hit ratio from the device's telemetry snapshot
    // over one untimed pass of the pool, so they are exact counts.
    telemetry::TelemetryConfig on;
    on.enabled = true;
    part.ipbm.device->ConfigureTelemetry(on);
    part.ipbm.device->telemetry().Reset();
    Forwarder pass(part.ipbm, part.pbm, pool, part.goldens, spec.burst);
    SpanRecorder none;
    pass.Run(INT64_MAX, none, pool.size() / spec.burst);
    telemetry::MetricsSnapshot snap = part.ipbm.device->telemetry().Snapshot(
        part.ipbm.device->config_epoch(), part.ipbm.device->stats());
    part.ipbm.device->ConfigureTelemetry(telemetry::TelemetryConfig{});
    uint64_t hits = 0, misses = 0;
    for (const auto& st : snap.stages) {
      hits += st.metrics.hits;
      misses += st.metrics.misses;
    }
    out.layer.push_back({"table.lookups_per_pkt",
                         static_cast<double>(hits + misses) / pool.size(),
                         "lookups", pool.size()});
    out.layer.push_back({"table.hit_ratio",
                         hits + misses ? static_cast<double>(hits) /
                                             static_cast<double>(hits + misses)
                                       : 0,
                         "frac", hits + misses});
  }
  for (const auto& [kind, table] :
       {std::pair<const char*, const char*>{"exact", "ipv4_host"},
        {"lpm", "ipv4_lpm"}}) {
    auto keys = LookupKeys(part.ipbm.controller->api(), spec, table);
    uint64_t lookup_hits = 0;
    constexpr uint64_t kLookups = 200000;
    auto ns = TimeLookupsNs(part.ipbm.device->catalog(), table, keys, kLookups,
                            lookup_hits);
    out.layer.push_back({std::string("table.lookup_ns.") + kind,
                           ns.ok() ? *ns : 0, "ns", kLookups});
  }
}

// Control-cycle metrics shared by every workload.
void ReportControl(const ControlStats& c, const CyclePlan& plan, bool trace,
                   const SpanRecorder& rec, Outcome& out) {
  out.attempted += c.attempted;
  out.failed += c.failed;
  if (c.failed > 0) {
    out.notes.push_back("control ops failed: " + std::to_string(c.failed));
  }
  out.e2e.push_back({"update_p50_ms", SlowestSliceMedian(c.update_ms, false),
                     "ms", c.update_ms.size()});
  out.layer.push_back({"update_p99_ms", SlicedQuantile(c.update_ms, 0.99),
                       "ms", c.update_ms.size()});
  out.e2e.push_back({"table_ops_per_s",
                     SlowestSliceMedian(c.route_ops_per_s, /*rate=*/true),
                     "ops/s", c.route_ops_ok});
  if (!trace) return;
  LayerTimes lt;
  AccumulateSelfTimes(rec.spans(), lt);
  auto mean_ms = [&](const char* key) {
    const LayerTime& t = lt[key];
    return t.count ? static_cast<double>(t.total_ns) / 1e6 / t.count : 0.0;
  };
  out.layer.push_back({"compiler.compile_update_ms",
                       mean_ms("twin.update/compiler.compile_update"), "ms",
                       lt["twin.update/compiler.compile_update"].count});
  out.layer.push_back({"ipsa.apply_plan_ms",
                       mean_ms("twin.update/ipsa.apply_plan"), "ms",
                       lt["twin.update/ipsa.apply_plan"].count});
  out.layer.push_back(
      {"ipsa.config_words_per_update",
       plan.installs ? static_cast<double>(plan.config_words) / plan.installs
                     : 0,
       "words", plan.installs});
  const uint64_t batches = lt["table.batch/rpc.encode"].count;
  out.layer.push_back({"rpc.encode_us.table_batch",
                       mean_ms("table.batch/rpc.encode") * 1e3, "us", batches});
  out.layer.push_back({"rpc.decode_us.table_batch",
                       mean_ms("table.batch/rpc.decode") * 1e3, "us", batches});
  const uint64_t ops = batches * kRouteModifyOps;
  out.layer.push_back(
      {"rpc.apply_batch_us_per_op",
       ops ? static_cast<double>(lt["table.batch/rpc.apply_batch"].total_ns) /
                 1e3 / static_cast<double>(ops)
           : 0,
       "us", ops});
  // Per update: the device-reported t_C and t_L, and what remains of the
  // call (transport, queueing behind the daemon loop, controller upkeep).
  const double total = Mean(c.update_ms);
  const double compile = Mean(c.server_compile_ms);
  const double load = Mean(c.server_load_ms);
  const uint64_t n = c.update_ms.size();
  out.layer.push_back({"self.update.total_ms", total, "ms", n});
  out.layer.push_back({"self.update.compile_ms", compile, "ms", n});
  out.layer.push_back({"self.update.load_ms", load, "ms", n});
  out.layer.push_back({"self.update.other_ms", total - compile - load, "ms", n});
}

void ReportTableWrites(Twin& twin, const TrafficSpec& spec, Outcome& out) {
  constexpr uint32_t kOps = 256;
  auto cost = TimeTableWrites(twin, spec, kOps);
  out.layer.push_back({"table.write_us_per_op.single",
                       cost.ok() ? cost->single_us : 0, "us", kOps});
  out.layer.push_back({"table.write_us_per_op.batched",
                       cost.ok() ? cost->batched_us : 0, "us", kOps});
}

// The control cycle in process on an ipbm after its forwarding phase:
// Rp4FlowController::ApplyScript and AddEntry on the workload's own tables.
void RunInprocControl(controller::Rp4FlowController& ctl, const TrafficSpec& spec,
                      const CyclePlan& plan, Twin& twin, int64_t deadline,
                      bool trace, SpanRecorder& rec, Outcome& out) {
  rec.set_enabled(trace);
  InProcessTarget target(ctl);
  ControlStats c;
  uint64_t step = 0;
  RunControl(target, spec, plan, deadline, 0, trace ? &twin : nullptr, rec,
             step, c);
  rec.set_enabled(false);
  ReportControl(c, plan, trace, rec, out);
  if (trace) ReportTableWrites(twin, spec, out);
}

// --- fwd-wide ------------------------------------------------------------------

struct FwdSetup {
  TrafficSpec spec;
  std::vector<PoolPacket> pool;
  Twin twin;
  InprocPart inproc;
  CyclePlan plan;
};

Status RunFwdWide(const Args& args, Outcome& out) {
  std::function<Result<std::unique_ptr<FwdSetup>>()> make =
      [&]() -> Result<std::unique_ptr<FwdSetup>> {
    auto s = std::make_unique<FwdSetup>();
    s->spec = FwdWideTraffic(args.seed);
    s->pool = MakePool(s->spec);
    IPSA_RETURN_IF_ERROR(s->twin.Load(s->spec));
    IPSA_ASSIGN_OR_RETURN(s->inproc, MakeInproc(s->spec, s->twin, s->pool));
    // No traffic runs during fwd-wide's control phase: no per-state goldens.
    IPSA_ASSIGN_OR_RETURN(s->plan, PlanCycle(s->spec, {}, kInprocPorts));
    return s;
  };
  IPSA_ASSIGN_OR_RETURN(std::unique_ptr<FwdSetup> s, TimedSetup(make, out));
  if (!InprocOracleCatches(s->inproc, s->pool, s->spec.burst)) {
    out.correct = false;
    out.notes.push_back("oracle self-test: corrupted golden NOT caught");
  }

  SpanRecorder& fwd_rec = out.NewRecorder();
  SpanRecorder& ctl_rec = out.NewRecorder();
  const int64_t t0 = NowNs();
  const int64_t fwd_end = t0 + Sec(args.seconds * 0.8);
  double overhead = 0;
  RunInproc(s->inproc, s->spec, s->pool, fwd_end, args.trace, true, fwd_rec,
            out, overhead);

  RunInprocControl(*s->inproc.ipbm.controller, s->spec, s->plan, s->twin,
                   t0 + Sec(args.seconds), args.trace, ctl_rec, out);
  if (args.trace) {
    out.layer.push_back({"trace.overhead_frac", overhead, "frac", 1});
  }
  return OkStatus();
}

// --- switchd workloads ---------------------------------------------------------

struct WireSetup {
  TrafficSpec spec;
  std::vector<PoolPacket> pool;
  Twin twin;
  InprocPart inproc;
  CyclePlan plan;
  DaemonRig daemon;
  UdpClient udp;
};

std::function<Result<std::unique_ptr<WireSetup>>()> MakeWireSetup(
    const TrafficSpec& spec) {
  return [spec]() -> Result<std::unique_ptr<WireSetup>> {
    auto s = std::make_unique<WireSetup>();
    s->spec = spec;
    s->pool = MakePool(spec);
    IPSA_RETURN_IF_ERROR(s->twin.Load(spec));
    IPSA_ASSIGN_OR_RETURN(s->inproc, MakeInproc(spec, s->twin, s->pool));
    IPSA_ASSIGN_OR_RETURN(s->plan, PlanCycle(spec, s->pool, kTrafficPorts));
    for (const Golden& g : s->plan.goldens_after.back()) {
      if (!g.delivered) return InternalError("base design drops pool traffic");
    }
    IPSA_ASSIGN_OR_RETURN(s->daemon, StartDaemon(spec));
    IPSA_RETURN_IF_ERROR(s->udp.Open(s->daemon));
    return s;
  };
}

// Wire-side layer metrics of a traced loop: per-call socket timings and
// the per-packet split of one loop iteration into its calls and the rest.
void ReportWireLayers(const SpanRecorder& rec, const WireStats& st,
                      Outcome& out) {
  LayerTimes lt;
  AccumulateSelfTimes(rec.spans(), lt);
  auto per_call_us = [&](const char* key) {
    const LayerTime& t = lt[key];
    return t.count ? static_cast<double>(t.total_ns) / 1e3 / t.count : 0.0;
  };
  out.layer.push_back({"wire.flush_us", per_call_us("wire.iter/wire.flush"),
                       "us", lt["wire.iter/wire.flush"].count});
  out.layer.push_back({"wire.recv_us", per_call_us("wire.iter/wire.recv"),
                       "us", lt["wire.iter/wire.recv"].count});
  out.layer.push_back({"wire.poll_wait_us",
                       per_call_us("wire.iter/wire.poll_wait"), "us",
                       lt["wire.iter/wire.poll_wait"].count});
  out.layer.push_back(
      {"wire.pkts_per_recv",
       st.recv_calls ? static_cast<double>(st.recv_packets) / st.recv_calls
                     : 0,
       "pkts", st.recv_calls});
  const uint64_t pkts = st.delivered;
  const LayerTime& root = lt["wire.iter/wire.iter"];
  out.layer.push_back(
      {"self.pkt.total_ns",
       pkts ? static_cast<double>(root.total_ns) / static_cast<double>(pkts)
            : 0,
       "ns", pkts});
  out.layer.push_back(
      {"self.pkt.other_ns",
       pkts ? static_cast<double>(root.self_ns) / static_cast<double>(pkts) : 0,
       "ns", pkts});
  if (pkts > 0) {
    const double parts =
        static_cast<double>(lt["wire.iter/wire.poll_wait"].self_ns +
                            lt["wire.iter/wire.recv"].self_ns +
                            lt["wire.iter/wire.flush"].self_ns + root.self_ns) /
        static_cast<double>(pkts);
    out.notes.push_back(
        "self time per packet: poll_wait + recv + flush + other = " +
        std::to_string(parts) + " ns of " +
        std::to_string(static_cast<double>(root.total_ns) / pkts) + " ns");
  }
}

void ReportWireE2e(const WireStats& st, Outcome& out) {
  if (st.chunk_pps.empty()) {
    // Open loop: what was delivered of the fixed offered rate.
    out.e2e.push_back({"pps", PerSec(st.delivered, st.timed_ns), "pkt/s",
                       st.delivered});
  } else {
    // Closed loop: packets per CPU-second of the process (daemon loop and
    // client), the rate one core sustains over loopback. The wall-clock
    // rate of a 32-deep loop follows thread wake-up latency, which on a
    // shared host moved 30% between runs; the CPU rate moved 3%.
    out.e2e.push_back({"pps", PerSec(st.delivered, st.cpu_ns), "pkt/s",
                       st.delivered});
    out.layer.push_back({"wire.wall_pps", Median(st.chunk_pps), "pkt/s",
                         st.chunk_pps.size()});
  }
  out.e2e.push_back({"lat_p50_us", SlicedQuantile(st.latency_us, 0.5), "us",
                     st.latency_us.size()});
  out.layer.push_back({"lat_p99_us", SlicedQuantile(st.latency_us, 0.99),
                       "us", st.latency_us.size()});
}

void CountWire(const WireStats& st, Outcome& out) {
  out.attempted += st.sent;
  out.failed += st.lost + st.wrong;
  if (st.lost + st.wrong > 0) {
    out.notes.push_back("wire: " + std::to_string(st.lost) + " lost, " +
                        std::to_string(st.wrong) + " wrong of " +
                        std::to_string(st.sent));
  }
}

// Stops switchd and reports its socket counters.
void StopDaemon(DaemonRig& rig, Outcome& out) {
  rig.client->Close();
  rig.switchd->Stop();
  const daemon::SwitchdCounters& c = rig.switchd->counters();
  out.layer.push_back({"daemon.udp_rx", static_cast<double>(c.udp_rx), "count", 1});
  out.layer.push_back({"daemon.udp_tx", static_cast<double>(c.udp_tx), "count", 1});
  out.layer.push_back(
      {"daemon.udp_no_peer", static_cast<double>(c.udp_no_peer), "count", 1});
}

Status RunWireNarrow(const Args& args, Outcome& out) {
  IPSA_ASSIGN_OR_RETURN(
      std::unique_ptr<WireSetup> s,
      TimedSetup(MakeWireSetup(WireNarrowTraffic(args.seed)), out));
  SpanRecorder off;
  {
    // The wire oracle must reject a corrupted golden.
    std::vector<Golden> bad = s->plan.goldens_after.back();
    CorruptGolden(bad, 0);
    WireStats st;
    RunClosedLoop(s->udp, s->pool, bad, kWireWindow, NowNs() + 20'000'000,
                  off, st);
    if (st.wrong == 0 ||
        !InprocOracleCatches(s->inproc, s->pool, s->spec.burst)) {
      out.correct = false;
      out.notes.push_back("oracle self-test: corrupted golden NOT caught");
    }
  }

  SpanRecorder& wire_rec = out.NewRecorder();
  SpanRecorder& ctl_rec = out.NewRecorder();
  SpanRecorder& fwd_rec = out.NewRecorder();
  const std::vector<Golden>& golden = s->plan.goldens_after.back();
  const int64_t t0 = NowNs();
  const int64_t wire_end = t0 + Sec(args.seconds * 0.6);
  WireStats plain;
  RunClosedLoop(s->udp, s->pool, golden, kWireWindow,
                args.trace ? t0 + (wire_end - t0) / 2 : wire_end, off, plain);
  CountWire(plain, out);
  ReportWireE2e(plain, out);
  if (args.trace) {
    WireStats traced;
    wire_rec.set_enabled(true);
    RunClosedLoop(s->udp, s->pool, golden, kWireWindow, wire_end, wire_rec,
                  traced);
    wire_rec.set_enabled(false);
    CountWire(traced, out);
    ReportWireLayers(wire_rec, traced, out);
    const double plain_pps = PerSec(plain.delivered, plain.timed_ns);
    const double traced_pps = PerSec(traced.delivered, traced.timed_ns);
    out.layer.push_back({"trace.overhead_frac",
                         traced_pps > 0 ? plain_pps / traced_pps - 1 : 0,
                         "frac", 1});
  }

  StopDaemon(s->daemon, out);

  double unused = 0;
  RunInproc(s->inproc, s->spec, s->pool, t0 + Sec(args.seconds * 0.8),
            args.trace, false, fwd_rec, out, unused);
  RunInprocControl(*s->inproc.ipbm.controller, s->spec, s->plan, s->twin,
                   t0 + Sec(args.seconds), args.trace, ctl_rec, out);
  return OkStatus();
}

// One open-loop phase of insitu-churn: traffic on its own thread, the
// control cycle on this one.
struct ChurnPhase {
  WireStats wire;
  std::vector<int64_t> rx_times;
  ControlStats control;
};

void RunChurnPhase(WireSetup& s, int64_t end_ns, Twin* twin,
                   SpanRecorder& traffic_rec, SpanRecorder& ctl_rec,
                   uint64_t& step, ChurnPhase& phase) {
  const uint32_t initial = s.plan.StateBefore(step);
  OpenLoop loop(s.udp, s.pool, s.plan, kChurnRatePps, NowNs() + 1'000'000,
                end_ns);
  std::thread traffic([&] { loop.Run(traffic_rec); });
  RpcTarget target(*s.daemon.client);
  RunControl(target, s.spec, s.plan, end_ns, kChurnStepNs, twin, ctl_rec, step,
             phase.control);
  traffic.join();
  loop.Resolve(phase.control.timeline, initial);
  phase.wire = loop.stats();
  phase.rx_times = loop.rx_times();
}

Status RunInsituChurn(const Args& args, Outcome& out) {
  IPSA_ASSIGN_OR_RETURN(
      std::unique_ptr<WireSetup> s,
      TimedSetup(MakeWireSetup(ChurnTraffic(args.seed)), out));
  SpanRecorder off;
  {
    // The open-loop oracle must reject a corrupted golden.
    CyclePlan bad = s->plan;
    for (auto& goldens : bad.goldens_after) {
      CorruptGolden(goldens, 0);
    }
    OpenLoop loop(s->udp, s->pool, bad, kChurnRatePps, NowNs(),
                  NowNs() + 20'000'000);
    loop.Run(off);
    loop.Resolve({}, bad.base_state());
    if (loop.stats().wrong == 0 ||
        !InprocOracleCatches(s->inproc, s->pool, s->spec.burst)) {
      out.correct = false;
      out.notes.push_back("oracle self-test: corrupted golden NOT caught");
    }
  }

  SpanRecorder& traffic_rec = out.NewRecorder();
  SpanRecorder& ctl_rec = out.NewRecorder();
  SpanRecorder& fwd_rec = out.NewRecorder();
  Twin* twin = args.trace ? &s->twin : nullptr;
  const int64_t t0 = NowNs();
  const int64_t churn_end = t0 + Sec(args.seconds * 0.8);
  uint64_t step = 0;
  ChurnPhase plain;
  RunChurnPhase(*s, args.trace ? t0 + (churn_end - t0) / 2 : churn_end, twin,
                off, off, step, plain);
  CountWire(plain.wire, out);
  ReportWireE2e(plain.wire, out);
  if (!args.trace) {
    ReportControl(plain.control, s->plan, false, off, out);
  } else {
    out.attempted += plain.control.attempted;
    out.failed += plain.control.failed;
    ChurnPhase traced;
    traffic_rec.set_enabled(true);
    ctl_rec.set_enabled(true);
    RunChurnPhase(*s, churn_end, twin, traffic_rec, ctl_rec, step, traced);
    traffic_rec.set_enabled(false);
    ctl_rec.set_enabled(false);
    CountWire(traced.wire, out);
    ReportControl(traced.control, s->plan, true, ctl_rec, out);
    ReportWireLayers(traffic_rec, traced.wire, out);
    out.layer.push_back({"gen.late_p99_us",
                         Percentile(traced.wire.late_us, 0.99), "us",
                         traced.wire.late_us.size()});
    out.layer.push_back({"daemon.stall_max_us",
                         MaxStallUs(traced.rx_times, traced.control.timeline),
                         "us", traced.control.update_ms.size()});
    const double plain_lat = Percentile(plain.wire.latency_us, 0.5);
    out.layer.push_back(
        {"trace.overhead_frac",
         plain_lat > 0 ? Percentile(traced.wire.latency_us, 0.5) / plain_lat - 1
                       : 0,
         "frac", 1});
  }
  StopDaemon(s->daemon, out);

  double unused = 0;
  RunInproc(s->inproc, s->spec, s->pool, t0 + Sec(args.seconds), args.trace,
            false, fwd_rec, out, unused);
  if (args.trace) ReportTableWrites(s->twin, s->spec, out);
  return OkStatus();
}

// --- reporting -----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. A layer a workload does
// not cross reports 0 with 0 samples.
const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"lat_p99_us", "us"},
      {"update_p99_ms", "ms"},
      {"net.rx_push_ns", "ns"},
      {"net.tx_pop_ns", "ns"},
      {"ipsa.drain_ns", "ns"},
      {"pisa.drain_ns", "ns"},
      {"table.lookup_ns.exact", "ns"},
      {"table.lookup_ns.lpm", "ns"},
      {"table.lookups_per_pkt", "lookups"},
      {"table.hit_ratio", "frac"},
      {"hw.cycles_per_pkt.ipbm", "cycles"},
      {"hw.cycles_per_pkt.pbm", "cycles"},
      {"wire.flush_us", "us"},
      {"wire.recv_us", "us"},
      {"wire.poll_wait_us", "us"},
      {"wire.pkts_per_recv", "pkts"},
      {"wire.wall_pps", "pkt/s"},
      {"daemon.udp_rx", "count"},
      {"daemon.udp_tx", "count"},
      {"daemon.udp_no_peer", "count"},
      {"daemon.stall_max_us", "us"},
      {"compiler.compile_update_ms", "ms"},
      {"ipsa.apply_plan_ms", "ms"},
      {"ipsa.config_words_per_update", "words"},
      {"table.write_us_per_op.single", "us"},
      {"table.write_us_per_op.batched", "us"},
      {"rpc.encode_us.table_batch", "us"},
      {"rpc.decode_us.table_batch", "us"},
      {"rpc.apply_batch_us_per_op", "us"},
      {"gen.late_p99_us", "us"},
      {"trace.overhead_frac", "frac"},
      {"self.pkt.total_ns", "ns"},
      {"self.pkt.other_ns", "ns"},
      {"self.update.total_ms", "ms"},
      {"self.update.compile_ms", "ms"},
      {"self.update.load_ms", "ms"},
      {"self.update.other_ms", "ms"},
  };
  return kDefs;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},         {"pps", "pkt/s"},
      {"pbm_pps", "pkt/s"},     {"lat_p50_us", "us"},
      {"update_p50_ms", "ms"},  {"table_ops_per_s", "ops/s"},
      {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

// Orders `have` by `defs`, filling what is missing with 0; reports a
// metric produced twice or not in `defs` as a defect of the benchmark.
std::vector<Metric> Canonical(const std::vector<Metric>& have,
                              const std::vector<MetricDef>& defs,
                              bool fill, Outcome& out) {
  std::vector<Metric> result;
  for (const MetricDef& d : defs) {
    int found = 0;
    for (const Metric& m : have) {
      if (m.name != d.name) continue;
      if (found++ == 0) result.push_back(m);
    }
    if (found == 0 && fill) result.push_back({d.name, 0, d.unit, 0});
    if (found > 1 || (found == 0 && !fill)) {
      out.correct = false;
      out.notes.push_back(std::string("metric ") + d.name +
                          (found ? " reported twice" : " missing"));
    }
  }
  return result;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms, bool with_samples) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"";
    if (with_samples) s += ", \"samples\": " + std::to_string(ms[i].samples);
    s += "}";
  }
  return s + "}";
}

std::string JsonString(const std::string& in) {
  std::string s = "\"";
  for (char c : in) {
    if (c == '"' || c == '\\') s += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) s += c;
  }
  return s + "\"";
}

int Main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench: flags come in --name value pairs\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--out-dir") {
      args.out_dir = v;
    } else if (k == "--git-rev") {
      args.git_rev = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report from a build without NDEBUG "
               "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  if (args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  Outcome out;
  Status status = OkStatus();
  if (args.workload == "fwd-wide") {
    status = RunFwdWide(args, out);
  } else if (args.workload == "wire-narrow") {
    status = RunWireNarrow(args, out);
  } else if (args.workload == "insitu-churn") {
    status = RunInsituChurn(args, out);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  out.e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  if (out.failed > 0) out.correct = false;
  const std::vector<Metric> e2e =
      Canonical(out.e2e, EndToEndMetrics(), /*fill=*/false, out);
  const std::vector<Metric> layer =
      Canonical(out.layer, LayerMetrics(), /*fill=*/true, out);

  double load[3] = {0, 0, 0};
  ::getloadavg(load, 3);
  const long vcpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d build=%s vcpus=%ld "
              "load=%.2f git=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, vcpus, load[0],
              args.git_rev.c_str());
  for (const std::string& n : out.notes) std::printf("note: %s\n", n.c_str());
  for (const auto* group : {&e2e, &layer}) {
    for (const Metric& m : *group) {
      std::printf("%-32s %16.6g %-8s n=%llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    }
  }
  std::printf("failed_frac %.6g (%llu of %llu)\n",
              out.attempted ? static_cast<double>(out.failed) / out.attempted : 0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));

  const std::string stem = args.out_dir + "/" + args.workload + ".seed" +
                           std::to_string(args.seed) + ".trace" +
                           (args.trace ? "1" : "0");
  std::string notes = "[";
  for (size_t i = 0; i < out.notes.size(); ++i) {
    notes += (i ? ", " : "") + JsonString(out.notes[i]);
  }
  notes += "]";
  const std::string report =
      "{\"workload\": " + JsonString(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + Num(args.seconds) +
      ", \"trace\": " + (args.trace ? "true" : "false") +
      ", \"context\": {\"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"ndebug\": true, \"vcpus\": " + std::to_string(vcpus) +
      ", \"loadavg\": [" + Num(load[0]) + ", " + Num(load[1]) + ", " +
      Num(load[2]) + "], \"git_rev\": " + JsonString(args.git_rev) +
      "}, \"correct\": " + (out.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) +
      ", \"notes\": " + notes +
      ", \"end_to_end\": " + MetricsJson(e2e, true) +
      ", \"per_layer\": " + MetricsJson(layer, true) + "}\n";
  Status w = WriteFileAtomic(stem + ".json", report);
  if (w.ok() && args.trace) {
    std::vector<const std::vector<Span>*> spans;
    for (const SpanRecorder& r : out.recorders) spans.push_back(&r.spans());
    w = WriteFileAtomic(stem + ".spans.csv", SpansCsv(spans));
  }
  if (!w.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", w.ToString().c_str());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(out.attempted, 1)),
              static_cast<unsigned long long>(out.failed),
              MetricsJson(args.trace ? layer : e2e, false).c_str());
  return 0;
}

}  // namespace
}  // namespace ipsa::perfbench

int main(int argc, char** argv) { return ipsa::perfbench::Main(argc, argv); }
