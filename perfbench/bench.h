// Shared pieces of the repository benchmark (README.md beside this file):
// clocks and statistics, the span recorder behind the traced run, the
// generated traffic and its golden outputs, and the device rigs the three
// workloads drive through the switch's public entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/rp4bc.h"
#include "compiler/rp4fc.h"
#include "controller/baseline.h"
#include "controller/controller.h"
#include "ipsa/ipbm.h"
#include "net/packet.h"
#include "net/workload.h"
#include "pisa/pisa_switch.h"
#include "rpc/protocol.h"
#include "util/status.h"

namespace ipsa::perfbench {

// --- clock and statistics -----------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// Both cut a time-ordered sample into eight consecutive slices (fewer when
// that would leave a slice under 100 samples).
// The q-quantile of each slice, then the median of those: a tail that one
// host hiccup produced in one slice does not move it.
double SlicedQuantile(const std::vector<double>& values, double q);
// The median of each slice, then the slowest of those (the largest time,
// or with `rate` the smallest rate). On a shared host a core runs at one of
// two speeds depending on what its sibling does; a median over the whole
// run follows the mix of the two, while nearly every run has a slice at the
// slower one.
double SlowestSliceMedian(const std::vector<double>& values, bool rate);

// One reported number: value, unit and how many samples it summarizes.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

// --- spans ---------------------------------------------------------------------

// One timed call into a layer. `parent` indexes the enclosing span in the
// same recorder (kNoParent for a root); spans of one request (a burst, a
// loop iteration, an update) share `request`.
struct Span {
  const char* name = "";
  uint32_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

inline constexpr uint32_t kNoParent = 0xFFFFFFFFu;

// Keeps spans in memory for the run; written out once at exit. One recorder
// per thread, so recording takes no lock. A disabled recorder records
// nothing and costs one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  uint32_t Open(const char* name, uint64_t request,
                uint32_t parent = kNoParent) {
    if (!enabled_) return kNoParent;
    spans_.push_back(Span{name, parent, request, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t id) {
    if (id != kNoParent) spans_[id].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, uint64_t request,
             uint32_t parent = kNoParent)
      : rec_(rec), id_(rec.Open(name, request, parent)) {}
  ~ScopedSpan() { rec_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  uint32_t id_;
};

// Per (root name, span name): summed self time (duration minus the part of
// it that child spans cover), summed duration and span count. A root's self
// time is the "other" remainder of its requests.
struct LayerTime {
  int64_t self_ns = 0;
  int64_t total_ns = 0;
  uint64_t count = 0;
};
using LayerTimes = std::map<std::string, LayerTime>;  // key "root/name"
void AccumulateSelfTimes(const std::vector<Span>& spans, LayerTimes& out);

// --- output --------------------------------------------------------------------

// Writes `content` to `path` through a temporary file and rename(2), so a
// killed run never leaves a truncated file behind.
Status WriteFileAtomic(const std::string& path, const std::string& content);
std::string SpansCsv(const std::vector<const std::vector<Span>*>& recorders);

// --- traffic -------------------------------------------------------------------

// Everything that shapes one workload's generated packets and routes.
struct TrafficSpec {
  net::WorkloadConfig flows;
  controller::BaselineConfig routes;
  uint32_t v4_host_routes = 4;  // ipv4_host /32s (PopulateBaseline adds 4)
  uint32_t pool_size = 1024;    // distinct generated packets, cycled
  uint32_t burst = 64;          // packets per in-process burst / in-port run
  bool tag = false;             // pool index in the payload's last 4 bytes
};

TrafficSpec FwdWideTraffic(uint64_t seed);
TrafficSpec WireNarrowTraffic(uint64_t seed);
TrafficSpec ChurnTraffic(uint64_t seed);

// Ingress ports the generator spreads bursts over; every route egresses on
// ports 0..7 as well (BaselineConfig::PortOfNexthop), so switchd exposes
// exactly these over UDP.
inline constexpr uint32_t kTrafficPorts = 8;

struct PoolPacket {
  net::Packet packet;
  uint32_t in_port = 0;
};
std::vector<PoolPacket> MakePool(const TrafficSpec& spec);

// Tag helpers: the tag is the last 4 payload bytes, big-endian.
void WriteTag(std::span<uint8_t> frame, uint32_t tag);
uint32_t ReadTag(std::span<const uint8_t> frame);

// The routes of a workload as table ops against `api` (kAdd, in table
// order). Used for every device so all of them hold identical tables.
Result<std::vector<rpc::TableOp>> RouteOps(const compiler::ApiSpec& api,
                                           const TrafficSpec& spec);
// `n` upserts of existing ipv4_lpm /32 routes with their current nexthop:
// table work and publication without a forwarding change.
Result<std::vector<rpc::TableOp>> RouteModifyOps(const compiler::ApiSpec& api,
                                                 const TrafficSpec& spec,
                                                 uint64_t draw, uint32_t n);
// C1 selector members for a device that has just loaded ECMP.
Result<std::vector<rpc::TableOp>> EcmpOps(const compiler::ApiSpec& api,
                                          const TrafficSpec& spec);

// Expected outcome of one pool packet: its egress port and bytes, or not
// delivered (dropped, or an egress port nobody listens on).
struct Golden {
  bool delivered = false;
  uint32_t port = 0;
  std::vector<uint8_t> bytes;
};
// Flips one bit of golden `index` (its port when it has no bytes): the
// oracle self-test checks that a run notices.
void CorruptGolden(std::vector<Golden>& goldens, uint32_t index);

// --- devices -------------------------------------------------------------------

// In-process ipbm driven through the rP4 flow controller.
struct IpbmRig {
  std::unique_ptr<ipbm::IpbmSwitch> device;
  std::unique_ptr<controller::Rp4FlowController> controller;
};
// In-process pbm driven through the P4 flow controller.
struct PbmRig {
  std::unique_ptr<pisa::PisaSwitch> device;
  std::unique_ptr<controller::PisaFlowController> controller;
};

Result<IpbmRig> MakeIpbm(const TrafficSpec& spec);
Result<PbmRig> MakePbm(const TrafficSpec& spec);

// The interpreter-pinned oracle twin. It drives the rP4 compiler's public
// functions itself (ParseScript, CompileUpdate, ApplyPlanToDevice) so the
// traced run can time each of them at the daemon's exact state.
struct UpdateCost {
  double compile_ms = 0;  // ParseScript + CompileUpdate
  double apply_ms = 0;    // ApplyPlanToDevice
  uint64_t config_words = 0;
};
class Twin {
 public:
  Status Load(const TrafficSpec& spec);
  // With `rec`, ParseScript+CompileUpdate and ApplyPlanToDevice each run
  // under a span below `parent`.
  Result<UpdateCost> Update(const std::string& script,
                            SpanRecorder* rec = nullptr,
                            uint32_t parent = kNoParent, uint64_t request = 0);
  // Adds (upserts) every op's entry.
  Status Apply(const std::vector<rpc::TableOp>& ops);
  std::vector<Golden> Goldens(const std::vector<PoolPacket>& pool,
                              uint32_t deliver_ports);

  ipbm::IpbmSwitch& device() { return *device_; }
  const compiler::ApiSpec& api() const { return api_; }

 private:
  std::unique_ptr<ipbm::IpbmSwitch> device_;
  rp4::Rp4Program program_;
  compiler::TspLayout layout_;
  compiler::ApiSpec api_;
  compiler::Rp4bcOptions options_;
};

// --- the control cycle ---------------------------------------------------------

// One in-situ step: a script install, a route modify, or the ECMP selector
// population that must follow an ECMP load.
struct ControlStep {
  enum class Kind { kInstall, kRouteModify, kEcmpPopulate } kind;
  const std::string* script = nullptr;  // kInstall
};
// A prefix run once from the base design (ECMP load + populate, the flow
// probe spliced in front of it), then a cycle that ends in the state it
// starts from, so it repeats indefinitely: on-demand probe load, flow-probe
// update to v2, on-demand probe remove, flow-probe update back to v1, ECMP
// remove, reload and populate, with route-modify bursts in between. ECMP
// is removed and reloaded rather than removed for good because its load
// deletes the nexthop stage, and the flow probe is updated rather than
// reloaded because its removal leaves its register behind.
const std::vector<ControlStep>& ControlSteps();
inline constexpr uint32_t kPrefixSteps = 3;
// Index into ControlSteps() of the n-th step run from the base design.
uint32_t StepAt(uint64_t n);
// Ops per route-modify step. Each op republishes ipv4_lpm today (several
// milliseconds at 8k routes) on switchd's packet loop; one op keeps that
// stall well inside the socket buffers at insitu-churn's rate.
inline constexpr uint32_t kRouteModifyOps = 1;

// The steps as replayed on the twin at set-up. Per step index, plus one
// last entry for the base design: the API the device exposes in that state
// (entries for the next step are built against it) and the goldens of the
// pool in it.
struct CyclePlan {
  std::vector<compiler::ApiSpec> api_after;
  std::vector<std::vector<Golden>> goldens_after;
  std::vector<std::vector<rpc::TableOp>> ecmp_ops;  // per kEcmpPopulate step
  // Config words the installs of one steady cycle wrote on the twin, and
  // how many installs: a count fixed by the designs, not by the host.
  uint64_t config_words = 0;
  uint32_t installs = 0;
  uint32_t base_state() const {
    return static_cast<uint32_t>(goldens_after.size() - 1);
  }
  // The state a step starts from.
  uint32_t StateBefore(uint64_t n) const {
    return n == 0 ? base_state() : StepAt(n - 1);
  }
};
// Replays the prefix and two cycles on a twin of its own, and fails
// unless the second cycle repeats the first state for state.
Result<CyclePlan> PlanCycle(const TrafficSpec& spec,
                            const std::vector<PoolPacket>& pool,
                            uint32_t deliver_ports);

}  // namespace ipsa::perfbench
