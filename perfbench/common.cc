#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.h"
#include "controller/designs.h"
#include "controller/runtime_api.h"
#include "controller/script.h"
#include "util/rng.h"

namespace ipsa::perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank > 0) --rank;
  return values[std::min(rank, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// Eight slices, or fewer so that each holds at least 100 samples.
size_t SliceCount(size_t samples) {
  return std::clamp<size_t>(samples / 100, 1, 8);
}

std::vector<double> SliceOf(const std::vector<double>& values, size_t k,
                            size_t slices) {
  return std::vector<double>(values.begin() + values.size() * k / slices,
                             values.begin() + values.size() * (k + 1) / slices);
}

}  // namespace

double SlicedQuantile(const std::vector<double>& values, double q) {
  const size_t slices = SliceCount(values.size());
  std::vector<double> per_slice;
  for (size_t k = 0; k < slices; ++k) {
    per_slice.push_back(Percentile(SliceOf(values, k, slices), q));
  }
  return Median(per_slice);
}

double SlowestSliceMedian(const std::vector<double>& values, bool rate) {
  const size_t slices = SliceCount(values.size());
  double slowest = 0;
  for (size_t k = 0; k < slices; ++k) {
    const double m = Median(SliceOf(values, k, slices));
    if (k == 0 || (rate ? m < slowest : m > slowest)) slowest = m;
  }
  return slowest;
}

void AccumulateSelfTimes(const std::vector<Span>& spans, LayerTimes& out) {
  // Children of one parent run one after another on the recorder's thread,
  // so the covered part of the parent is the sum of their clipped lengths.
  std::vector<int64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans[s.parent];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[s.parent] += hi - lo;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    uint32_t root = static_cast<uint32_t>(i);
    while (spans[root].parent != kNoParent) root = spans[root].parent;
    LayerTime& t = out[std::string(spans[root].name) + "/" + s.name];
    int64_t dur = s.end_ns - s.start_ns;
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, covered[i]);
    ++t.count;
  }
}

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return InternalError("cannot create " + tmp);
  size_t off = 0;
  while (off < content.size()) {
    ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return InternalError("short write to " + tmp);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return InternalError("cannot flush " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return InternalError("cannot rename " + tmp + " to " + path);
  }
  return OkStatus();
}

std::string SpansCsv(const std::vector<const std::vector<Span>*>& recorders) {
  std::ostringstream os;
  os << "recorder,index,name,start_ns,end_ns,parent,request\n";
  for (size_t r = 0; r < recorders.size(); ++r) {
    const std::vector<Span>& spans = *recorders[r];
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << r << ',' << i << ',' << s.name << ',' << s.start_ns << ','
         << s.end_ns << ','
         << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
         << ',' << s.request << '\n';
    }
  }
  return os.str();
}

// --- traffic -------------------------------------------------------------------

TrafficSpec FwdWideTraffic(uint64_t seed) {
  // Thousands of v4 and v6 destinations, each with a host or LPM route,
  // drawn by as many flows; no payload, so per-packet cost dominates.
  TrafficSpec s;
  s.flows.seed = seed;
  s.flows.flow_count = 4096;
  s.flows.ipv6_fraction = 0.3;
  s.flows.payload_size = 0;
  s.flows.v4_dst_count = 4000;
  s.routes.v4_dst_count = 4000;
  s.routes.v6_dst_count = 4000;
  s.v4_host_routes = 2000;
  s.pool_size = 8192;
  s.burst = 64;
  return s;
}

TrafficSpec WireNarrowTraffic(uint64_t seed) {
  // A handful of flows over the default 256 routes: lookups stay cheap and
  // cache-resident, so the socket path dominates.
  TrafficSpec s;
  s.flows.seed = seed;
  s.flows.flow_count = 16;
  s.flows.ipv6_fraction = 0.25;
  s.flows.payload_size = 16;
  s.pool_size = 1024;
  s.burst = 64;
  s.tag = true;
  return s;
}

TrafficSpec ChurnTraffic(uint64_t seed) {
  // ipv4_lpm (size 8192) filled to 8000 /32s plus the covering /8, so every
  // route modify republishes a table at its working capacity.
  TrafficSpec s;
  s.flows.seed = seed;
  s.flows.flow_count = 64;
  s.flows.ipv6_fraction = 0.25;
  s.flows.payload_size = 16;
  s.flows.v4_dst_count = 8000;
  s.routes.v4_dst_count = 8000;
  s.routes.v6_dst_count = 256;
  s.pool_size = 1024;
  s.burst = 64;
  s.tag = true;
  return s;
}

void WriteTag(std::span<uint8_t> frame, uint32_t tag) {
  size_t n = frame.size();
  frame[n - 4] = static_cast<uint8_t>(tag >> 24);
  frame[n - 3] = static_cast<uint8_t>(tag >> 16);
  frame[n - 2] = static_cast<uint8_t>(tag >> 8);
  frame[n - 1] = static_cast<uint8_t>(tag);
}

uint32_t ReadTag(std::span<const uint8_t> frame) {
  size_t n = frame.size();
  return (uint32_t{frame[n - 4]} << 24) | (uint32_t{frame[n - 3]} << 16) |
         (uint32_t{frame[n - 2]} << 8) | uint32_t{frame[n - 1]};
}

void CorruptGolden(std::vector<Golden>& goldens, uint32_t index) {
  Golden& g = goldens[index];
  if (g.bytes.empty()) {
    g.port ^= 1;
  } else {
    g.bytes[g.bytes.size() / 2] ^= 0x01;
  }
}

std::vector<PoolPacket> MakePool(const TrafficSpec& spec) {
  net::Workload workload(spec.flows);
  std::vector<PoolPacket> pool;
  pool.reserve(spec.pool_size);
  for (uint32_t i = 0; i < spec.pool_size; ++i) {
    PoolPacket p;
    p.packet = workload.NextPacket();
    if (spec.tag) WriteTag(p.packet.bytes(), i);
    p.in_port = (i / spec.burst) % kTrafficPorts;
    pool.push_back(std::move(p));
  }
  return pool;
}

Result<std::vector<rpc::TableOp>> RouteOps(const compiler::ApiSpec& api,
                                           const TrafficSpec& spec) {
  std::vector<rpc::TableOp> ops;
  controller::AddEntryFn collect = [&ops](const std::string& table,
                                          const table::Entry& entry) {
    ops.push_back(rpc::TableOp{rpc::TableOpKind::kAdd, table, entry});
    return OkStatus();
  };
  IPSA_RETURN_IF_ERROR(controller::PopulateBaseline(api, collect, spec.routes));
  controller::EntryBuilder builder(api);
  for (uint32_t k = 4; k < spec.v4_host_routes; ++k) {
    IPSA_ASSIGN_OR_RETURN(
        table::Entry e,
        builder.Build("ipv4_host", "set_nexthop",
                      {controller::KeyValue(controller::Ipv4Bits(
                          spec.routes.v4_dst_base + k))},
                      {controller::Bits(16, spec.routes.NexthopOf(k))}));
    ops.push_back(rpc::TableOp{rpc::TableOpKind::kAdd, "ipv4_host", e});
  }
  return ops;
}

Result<std::vector<rpc::TableOp>> RouteModifyOps(const compiler::ApiSpec& api,
                                                 const TrafficSpec& spec,
                                                 uint64_t draw, uint32_t n) {
  util::Rng rng(spec.flows.seed ^ (0x9E3779B97F4A7C15ull * (draw + 1)));
  controller::EntryBuilder builder(api);
  std::vector<rpc::TableOp> ops;
  ops.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t k = static_cast<uint32_t>(rng.NextBelow(spec.routes.v4_dst_count));
    IPSA_ASSIGN_OR_RETURN(
        table::Entry e,
        builder.Build("ipv4_lpm", "set_nexthop",
                      {controller::KeyValue(controller::Ipv4Bits(
                          spec.routes.v4_dst_base + k))},
                      {controller::Bits(16, spec.routes.NexthopOf(k))},
                      /*prefix_len=*/32));
    ops.push_back(rpc::TableOp{rpc::TableOpKind::kModify, "ipv4_lpm", e});
  }
  return ops;
}

Result<std::vector<rpc::TableOp>> EcmpOps(const compiler::ApiSpec& api,
                                          const TrafficSpec& spec) {
  std::vector<rpc::TableOp> ops;
  controller::AddEntryFn collect = [&ops](const std::string& table,
                                          const table::Entry& entry) {
    ops.push_back(rpc::TableOp{rpc::TableOpKind::kAdd, table, entry});
    return OkStatus();
  };
  IPSA_RETURN_IF_ERROR(controller::PopulateEcmp(api, collect, spec.routes));
  return ops;
}

namespace {

// Adds `ops` through `add`, bracketing each run of one table's ops in the
// device's entry batch so set-up publishes every table once.
template <typename Device, typename AddFn>
Status AddBatched(Device& device, const std::vector<rpc::TableOp>& ops,
                  AddFn add) {
  size_t i = 0;
  while (i < ops.size()) {
    const std::string& table = ops[i].table;
    IPSA_RETURN_IF_ERROR(device.BeginEntryBatch(table));
    Status status = OkStatus();
    for (; i < ops.size() && ops[i].table == table && status.ok(); ++i) {
      status = add(ops[i].table, ops[i].entry);
    }
    IPSA_RETURN_IF_ERROR(device.EndEntryBatch(table));
    IPSA_RETURN_IF_ERROR(status);
  }
  return OkStatus();
}

}  // namespace

Result<IpbmRig> MakeIpbm(const TrafficSpec& spec) {
  IpbmRig rig;
  rig.device = std::make_unique<ipbm::IpbmSwitch>();
  rig.controller = std::make_unique<controller::Rp4FlowController>(
      *rig.device, compiler::Rp4bcOptions{});
  IPSA_RETURN_IF_ERROR(
      rig.controller->LoadBaseFromP4(controller::designs::BaseP4()).status());
  IPSA_ASSIGN_OR_RETURN(auto ops, RouteOps(rig.controller->api(), spec));
  controller::Rp4FlowController& ctl = *rig.controller;
  IPSA_RETURN_IF_ERROR(AddBatched(
      *rig.device, ops, [&ctl](const std::string& t, const table::Entry& e) {
        return ctl.AddEntry(t, e, /*upsert=*/false);
      }));
  return rig;
}

Result<PbmRig> MakePbm(const TrafficSpec& spec) {
  PbmRig rig;
  rig.device = std::make_unique<pisa::PisaSwitch>();
  rig.controller = std::make_unique<controller::PisaFlowController>(
      *rig.device, compiler::PisaBackendOptions{});
  IPSA_RETURN_IF_ERROR(
      rig.controller->CompileAndLoad(controller::designs::BaseP4()).status());
  IPSA_ASSIGN_OR_RETURN(auto ops, RouteOps(rig.controller->api(), spec));
  controller::PisaFlowController& ctl = *rig.controller;
  IPSA_RETURN_IF_ERROR(AddBatched(
      *rig.device, ops, [&ctl](const std::string& t, const table::Entry& e) {
        return ctl.AddEntry(t, e, /*upsert=*/false);
      }));
  return rig;
}

// --- twin ----------------------------------------------------------------------

Status Twin::Load(const TrafficSpec& spec) {
  device_ = std::make_unique<ipbm::IpbmSwitch>();
  controller::Rp4FlowController loader(*device_, options_);
  IPSA_RETURN_IF_ERROR(
      loader.LoadBaseFromP4(controller::designs::BaseP4()).status());
  program_ = loader.program();
  layout_ = loader.layout();
  api_ = loader.api();
  device_->SetForceInterpreter(true);
  IPSA_ASSIGN_OR_RETURN(auto ops, RouteOps(api_, spec));
  ipbm::IpbmSwitch& dev = *device_;
  return AddBatched(dev, ops,
                    [&dev](const std::string& t, const table::Entry& e) {
                      return dev.AddEntry(t, e, /*upsert=*/false);
                    });
}

Result<UpdateCost> Twin::Update(const std::string& script, SpanRecorder* rec,
                                uint32_t parent, uint64_t request) {
  SpanRecorder off;
  SpanRecorder& spans = rec != nullptr ? *rec : off;
  UpdateCost cost;
  compiler::UpdatePlan plan;
  const int64_t t0 = NowNs();
  {
    ScopedSpan s(spans, "compiler.compile_update", request, parent);
    IPSA_ASSIGN_OR_RETURN(
        compiler::UpdateRequest req,
        controller::ParseScript(script, controller::designs::ResolveSnippet));
    IPSA_ASSIGN_OR_RETURN(
        plan, compiler::CompileUpdate(program_, layout_, req, options_));
  }
  const int64_t t1 = NowNs();
  const uint64_t words = device_->stats().config_words_written;
  {
    ScopedSpan s(spans, "ipsa.apply_plan", request, parent);
    IPSA_RETURN_IF_ERROR(compiler::ApplyPlanToDevice(plan, *device_));
  }
  const int64_t t2 = NowNs();
  cost.compile_ms = static_cast<double>(t1 - t0) / 1e6;
  cost.apply_ms = static_cast<double>(t2 - t1) / 1e6;
  cost.config_words = device_->stats().config_words_written - words;
  program_ = std::move(plan.updated_program);
  layout_ = std::move(plan.updated_layout);
  api_ = compiler::BuildApiSpec(plan.updated_design);
  return cost;
}

Status Twin::Apply(const std::vector<rpc::TableOp>& ops) {
  for (const rpc::TableOp& op : ops) {
    IPSA_RETURN_IF_ERROR(device_->AddEntry(op.table, op.entry));
  }
  return OkStatus();
}

std::vector<Golden> Twin::Goldens(const std::vector<PoolPacket>& pool,
                                  uint32_t deliver_ports) {
  std::vector<Golden> out(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    net::Packet copy = pool[i].packet;
    auto r = device_->Process(copy, pool[i].in_port);
    if (!r.ok() || r->dropped || r->egress_port >= deliver_ports) continue;
    out[i].delivered = true;
    out[i].port = r->egress_port;
    out[i].bytes.assign(copy.bytes().begin(), copy.bytes().end());
  }
  return out;
}

// --- control cycle -------------------------------------------------------------

namespace {

// The flow probe spliced in front of ECMP rather than the nexthop stage
// (which the ECMP load deletes).
const std::string kProbeOverEcmpScript = R"(
load probe.rp4 --func_name probe
add_link ipv4_lpm flow_probe
add_link flow_probe ecmp
del_link ipv4_lpm ecmp
)";
const std::string kProbeV1UpdateScript = R"(
update probe.rp4 --func_name probe
)";
// ECMP removal bridges flow_probe to l2_l3_rewrite; reloading re-splices it.
const std::string kEcmpReloadScript = R"(
load ecmp.rp4 --func_name ecmp
add_link flow_probe ecmp
add_link ecmp l2_l3_rewrite
del_link flow_probe l2_l3_rewrite
)";

bool SameGoldens(const std::vector<Golden>& a, const std::vector<Golden>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].delivered != b[i].delivered) return false;
    if (a[i].delivered && (a[i].port != b[i].port || a[i].bytes != b[i].bytes))
      return false;
  }
  return true;
}

}  // namespace

const std::vector<ControlStep>& ControlSteps() {
  using K = ControlStep::Kind;
  namespace d = controller::designs;
  static const std::vector<ControlStep> kSteps = {
      // prefix
      {K::kInstall, &d::EcmpScript()},
      {K::kEcmpPopulate, nullptr},
      {K::kInstall, &kProbeOverEcmpScript},
      // cycle
      {K::kInstall, &d::FabricProbeScript()},
      {K::kRouteModify, nullptr},
      {K::kInstall, &d::ProbeUpdateScript()},
      {K::kRouteModify, nullptr},
      {K::kInstall, &d::FabricProbeRemoveScript()},
      {K::kRouteModify, nullptr},
      {K::kInstall, &kProbeV1UpdateScript},
      {K::kRouteModify, nullptr},
      {K::kInstall, &d::EcmpRemoveScript()},
      {K::kInstall, &kEcmpReloadScript},
      {K::kEcmpPopulate, nullptr},
      {K::kRouteModify, nullptr},
  };
  return kSteps;
}

uint32_t StepAt(uint64_t n) {
  const uint64_t cycle = ControlSteps().size() - kPrefixSteps;
  return static_cast<uint32_t>(n < kPrefixSteps
                                   ? n
                                   : kPrefixSteps + (n - kPrefixSteps) % cycle);
}

Result<CyclePlan> PlanCycle(const TrafficSpec& spec,
                            const std::vector<PoolPacket>& pool,
                            uint32_t deliver_ports) {
  Twin twin;
  IPSA_RETURN_IF_ERROR(twin.Load(spec));
  const auto& steps = ControlSteps();
  const uint64_t cycle = steps.size() - kPrefixSteps;
  CyclePlan plan;
  plan.api_after.resize(steps.size() + 1);
  plan.goldens_after.resize(steps.size() + 1);
  plan.ecmp_ops.resize(steps.size());
  plan.api_after.back() = twin.api();
  plan.goldens_after.back() = twin.Goldens(pool, deliver_ports);
  for (uint64_t n = 0; n < kPrefixSteps + 2 * cycle; ++n) {
    const uint32_t s = StepAt(n);
    const bool second_cycle = n >= kPrefixSteps + cycle;
    const ControlStep& step = steps[s];
    if (step.kind == ControlStep::Kind::kInstall) {
      IPSA_ASSIGN_OR_RETURN(UpdateCost cost, twin.Update(*step.script));
      if (second_cycle) {
        plan.config_words += cost.config_words;
        ++plan.installs;
      }
    } else if (step.kind == ControlStep::Kind::kEcmpPopulate) {
      IPSA_ASSIGN_OR_RETURN(plan.ecmp_ops[s], EcmpOps(twin.api(), spec));
      IPSA_RETURN_IF_ERROR(twin.Apply(plan.ecmp_ops[s]));
    }
    std::vector<Golden> goldens = twin.Goldens(pool, deliver_ports);
    if (second_cycle) {
      if (!SameGoldens(goldens, plan.goldens_after[s])) {
        return InternalError("control cycle does not repeat its states");
      }
      continue;
    }
    plan.api_after[s] = twin.api();
    plan.goldens_after[s] = std::move(goldens);
  }
  return plan;
}

}  // namespace ipsa::perfbench
