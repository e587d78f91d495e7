#include "daemon/backends.h"

#include <span>

#include "controller/designs.h"

namespace ipsa::daemon {

namespace {

// Shared between both backends: device counters + per-table stats.
rpc::StatsResponse StatsFrom(const pisa::DeviceStats& st,
                             const arch::TableCatalog& catalog) {
  rpc::StatsResponse resp;
  resp.packets_in = st.packets_in;
  resp.packets_out = st.packets_out;
  resp.packets_dropped = st.packets_dropped;
  resp.packets_marked = st.packets_marked;
  resp.config_words_written = st.config_words_written;
  resp.full_loads = st.full_loads;
  resp.template_writes = st.template_writes;
  resp.table_ops = st.table_ops;
  for (const std::string& name : catalog.TableNames()) {
    auto t = catalog.Get(name);
    if (!t.ok()) continue;
    rpc::TableStatsRow row;
    row.table = name;
    row.match_kind = static_cast<uint8_t>((*t)->spec().match_kind);
    row.entries = (*t)->entry_count();
    row.size = (*t)->spec().size;
    row.hits = (*t)->hits();
    row.misses = (*t)->misses();
    resp.tables.push_back(std::move(row));
  }
  return resp;
}

// Per-table telemetry rows come from the catalog's own hit/miss counters,
// keeping the telemetry layer table-agnostic.
void FillTableRows(const arch::TableCatalog& catalog,
                   telemetry::MetricsSnapshot& snap) {
  for (const std::string& name : catalog.TableNames()) {
    auto t = catalog.Get(name);
    if (!t.ok()) continue;
    telemetry::TableRow row;
    row.table = name;
    row.match_kind = static_cast<uint8_t>((*t)->spec().match_kind);
    row.entries = (*t)->entry_count();
    row.size = (*t)->spec().size;
    row.hits = (*t)->hits();
    row.misses = (*t)->misses();
    snap.tables.push_back(std::move(row));
  }
}

// Runs `body` with every table `ops` touch inside an open entry batch, so
// each of those tables republishes its index once, when `body` returns,
// instead of once per op: the ops become visible to lookups together.
// Frames touch one or two tables in practice, so a linear scan beats a hash
// set here. A table that fails BeginEntryBatch (unknown name) is left out;
// its ops fail individually.
template <typename Device, typename Body>
auto InEntryBatches(Device& device, std::span<const rpc::TableOp> ops,
                    Body&& body) {
  std::vector<const std::string*> batched;
  for (const rpc::TableOp& op : ops) {
    bool seen = false;
    for (const std::string* t : batched) {
      if (*t == op.table) {
        seen = true;
        break;
      }
    }
    if (!seen && device.BeginEntryBatch(op.table).ok()) {
      batched.push_back(&op.table);
    }
  }
  auto result = body();
  for (const std::string* t : batched) (void)device.EndEntryBatch(*t);
  return result;
}

// kModify is erase + add under one publication, so a concurrent lookup sees
// the old entry or the new one, never the miss between them.
template <typename Device, typename Controller>
Status ModifyEntry(Device& device, Controller& controller,
                   const rpc::TableOp& op) {
  return InEntryBatches(device, {&op, 1}, [&] {
    Status erased = device.EraseEntry(op.table, op.entry);
    if (!erased.ok() && erased.code() != StatusCode::kNotFound) {
      return erased;
    }
    return controller.AddEntry(op.table, op.entry);
  });
}

}  // namespace

std::string_view ArchName(ArchKind arch) {
  return arch == ArchKind::kPisa ? "pisa" : "ipsa";
}

Result<ArchKind> ArchFromName(std::string_view name) {
  if (name == "pisa" || name == "pbm") return ArchKind::kPisa;
  if (name == "ipsa" || name == "ipbm") return ArchKind::kIpsa;
  return InvalidArgument("unknown arch '" + std::string(name) +
                         "' (expected pisa|ipsa)");
}

std::vector<TxPacket> CollectTx(net::PortSet& ports) {
  std::vector<TxPacket> out;
  CollectTxInto(ports, out);
  return out;
}

void CollectTxInto(net::PortSet& ports, std::vector<TxPacket>& out) {
  for (uint32_t p = 0; p < ports.count(); ++p) {
    while (auto pkt = ports.port(p).tx().Pop()) {
      out.push_back(TxPacket{p, std::move(*pkt)});
    }
  }
}

Result<std::vector<TxPacket>> InjectAndDrain(DeviceBackend& dev,
                                             net::Packet packet,
                                             uint32_t in_port,
                                             uint32_t workers) {
  if (in_port >= dev.ports().count()) {
    return InvalidArgument("no such port " + std::to_string(in_port));
  }
  if (!dev.ports().port(in_port).rx().Push(std::move(packet))) {
    return ResourceExhausted("port " + std::to_string(in_port) +
                             " RX queue is full");
  }
  IPSA_RETURN_IF_ERROR(dev.RunToCompletion(workers).status());
  return CollectTx(dev.ports());
}

// --- IpsaBackend -------------------------------------------------------------

IpsaBackend::IpsaBackend(ipbm::IpbmOptions options,
                         compiler::Rp4bcOptions compiler_options)
    : device_(options), controller_(device_, std::move(compiler_options)) {}

rpc::BackendInfo IpsaBackend::Info() {
  rpc::BackendInfo info;
  info.arch = std::string(ArchName(ArchKind::kIpsa));
  info.port_count = device_.ports().count();
  info.has_design = has_design_;
  info.epoch = epoch_;
  return info;
}

Result<rpc::InstallOutcome> IpsaBackend::Install(rpc::InstallKind kind,
                                                 const std::string& source) {
  Result<controller::FlowTiming> timing = InvalidArgument("unset");
  switch (kind) {
    case rpc::InstallKind::kBaseP4:
      timing = controller_.LoadBaseFromP4(source);
      break;
    case rpc::InstallKind::kBaseRp4:
      timing = controller_.LoadBaseFromRp4(source);
      break;
    case rpc::InstallKind::kScript:
      if (!has_design_) {
        return FailedPrecondition("no base design to update");
      }
      // Snippet file names inside the script resolve against the built-in
      // designs (ecmp.rp4 / srv6.rp4 / probe.rp4 / ...).
      timing = controller_.ApplyScript(source,
                                       controller::designs::ResolveSnippet);
      break;
  }
  IPSA_RETURN_IF_ERROR(timing.status());
  has_design_ = true;
  ++epoch_;
  rpc::InstallOutcome out;
  out.compile_ms = timing->compile_ms;
  out.load_ms = timing->load_ms;
  out.epoch = epoch_;
  return out;
}

Status IpsaBackend::ApplyTableOp(const rpc::TableOp& op) {
  if (!has_design_) return FailedPrecondition("no design installed");
  return ApplyOne(op, /*strict_add=*/false);
}

Status IpsaBackend::ApplyOne(const rpc::TableOp& op, bool strict_add) {
  switch (op.op) {
    case rpc::TableOpKind::kAdd:
      return controller_.AddEntry(op.table, op.entry, /*upsert=*/!strict_add);
    case rpc::TableOpKind::kModify:
      return ModifyEntry(device_, controller_, op);
    case rpc::TableOpKind::kDelete:
      return device_.EraseEntry(op.table, op.entry);
  }
  return InvalidArgument("bad table op");
}

Result<rpc::TableBatchResponse> IpsaBackend::ApplyTableBatch(
    const rpc::TableBatchRequest& req) {
  return InEntryBatches(device_, req.ops, [&] {
    return rpc::ApplyOpsUntilFailure(
        req.ops, [this](const rpc::TableOp& op) { return ApplyTableOp(op); });
  });
}

Result<rpc::TableBulkResponse> IpsaBackend::ApplyTableBulk(
    const rpc::TableBulkRequest& req) {
  if (!has_design_) return FailedPrecondition("no design installed");
  return InEntryBatches(device_, req.ops, [&] {
    return rpc::ApplyOpsCollectingFailures(
        req.ops,
        [this](const rpc::TableOp& op) {
          return ApplyOne(op, /*strict_add=*/true);
        });
  });
}

Result<compiler::ApiSpec> IpsaBackend::Api() {
  if (!has_design_) return FailedPrecondition("no design installed");
  return controller_.api();
}

Result<rpc::StatsResponse> IpsaBackend::QueryStats() {
  return StatsFrom(device_.stats(), device_.catalog());
}

Result<uint32_t> IpsaBackend::Drain(uint32_t workers) {
  return device_.RunToCompletion(workers);
}

Result<rpc::MetricsResponse> IpsaBackend::QueryMetrics() {
  rpc::MetricsResponse resp;
  resp.arch = std::string(ArchName(ArchKind::kIpsa));
  resp.snapshot =
      device_.telemetry().Snapshot(device_.config_epoch(), device_.stats());
  FillTableRows(device_.catalog(), resp.snapshot);
  return resp;
}

Result<rpc::TracesResponse> IpsaBackend::DrainTraces(uint32_t max) {
  if (max == 0 || max > rpc::kMaxTraceRecords) max = rpc::kMaxTraceRecords;
  rpc::TracesResponse resp;
  resp.traces = device_.telemetry().DrainTraces(max);
  return resp;
}

Status IpsaBackend::ResetMetrics() {
  device_.telemetry().Reset();
  return OkStatus();
}

// --- PisaBackend -------------------------------------------------------------

PisaBackend::PisaBackend(pisa::PisaOptions options,
                         compiler::PisaBackendOptions compiler_options)
    : device_(options), controller_(device_, std::move(compiler_options)) {}

rpc::BackendInfo PisaBackend::Info() {
  rpc::BackendInfo info;
  info.arch = std::string(ArchName(ArchKind::kPisa));
  info.port_count = device_.ports().count();
  info.has_design = has_design_;
  info.epoch = epoch_;
  return info;
}

Result<rpc::InstallOutcome> PisaBackend::Install(rpc::InstallKind kind,
                                                 const std::string& source) {
  if (kind != rpc::InstallKind::kBaseP4) {
    // The whole point of the baseline: no incremental surface. A "runtime
    // update" on PISA is a full recompile+reload of the complete program.
    return Unimplemented(
        "pisa accepts only full P4 programs (kBaseP4); recompile the whole "
        "design to change it");
  }
  IPSA_ASSIGN_OR_RETURN(controller::FlowTiming timing,
                        controller_.CompileAndLoad(source));
  has_design_ = true;
  ++epoch_;
  rpc::InstallOutcome out;
  out.compile_ms = timing.compile_ms;
  out.load_ms = timing.load_ms;
  out.epoch = epoch_;
  return out;
}

Status PisaBackend::ApplyTableOp(const rpc::TableOp& op) {
  if (!has_design_) return FailedPrecondition("no design installed");
  return ApplyOne(op, /*strict_add=*/false);
}

Status PisaBackend::ApplyOne(const rpc::TableOp& op, bool strict_add) {
  switch (op.op) {
    case rpc::TableOpKind::kAdd:
      // Goes through the flow controller so the shadow store keeps a copy
      // for repopulation after the next full reload.
      return controller_.AddEntry(op.table, op.entry, /*upsert=*/!strict_add);
    case rpc::TableOpKind::kModify:
      return ModifyEntry(device_, controller_, op);
    case rpc::TableOpKind::kDelete:
      // Device-only: the shadow keeps the entry and restores it on the next
      // reload, mirroring how a real driver's delete bypasses the
      // controller's repopulation snapshot unless the controller is told.
      return device_.EraseEntry(op.table, op.entry);
  }
  return InvalidArgument("bad table op");
}

Result<rpc::TableBatchResponse> PisaBackend::ApplyTableBatch(
    const rpc::TableBatchRequest& req) {
  return InEntryBatches(device_, req.ops, [&] {
    return rpc::ApplyOpsUntilFailure(
        req.ops, [this](const rpc::TableOp& op) { return ApplyTableOp(op); });
  });
}

Result<rpc::TableBulkResponse> PisaBackend::ApplyTableBulk(
    const rpc::TableBulkRequest& req) {
  if (!has_design_) return FailedPrecondition("no design installed");
  return InEntryBatches(device_, req.ops, [&] {
    return rpc::ApplyOpsCollectingFailures(
        req.ops,
        [this](const rpc::TableOp& op) {
          return ApplyOne(op, /*strict_add=*/true);
        });
  });
}

Result<compiler::ApiSpec> PisaBackend::Api() {
  if (!has_design_) return FailedPrecondition("no design installed");
  return controller_.api();
}

Result<rpc::StatsResponse> PisaBackend::QueryStats() {
  return StatsFrom(device_.stats(), device_.catalog());
}

Result<uint32_t> PisaBackend::Drain(uint32_t workers) {
  return device_.RunToCompletion(workers);
}

Result<rpc::MetricsResponse> PisaBackend::QueryMetrics() {
  rpc::MetricsResponse resp;
  resp.arch = std::string(ArchName(ArchKind::kPisa));
  resp.snapshot =
      device_.telemetry().Snapshot(device_.config_epoch(), device_.stats());
  FillTableRows(device_.catalog(), resp.snapshot);
  return resp;
}

Result<rpc::TracesResponse> PisaBackend::DrainTraces(uint32_t max) {
  if (max == 0 || max > rpc::kMaxTraceRecords) max = rpc::kMaxTraceRecords;
  rpc::TracesResponse resp;
  resp.traces = device_.telemetry().DrainTraces(max);
  return resp;
}

Status PisaBackend::ResetMetrics() {
  device_.telemetry().Reset();
  return OkStatus();
}

std::unique_ptr<DeviceBackend> MakeBackend(ArchKind arch,
                                           const PoolTuning& tuning) {
  // The compiler's allocation solver models the same pool geometry the
  // device constructs; both must see the tuning or the solver would reject
  // tables the deepened pool could actually hold.
  if (arch == ArchKind::kPisa) {
    pisa::PisaOptions opt;
    compiler::PisaBackendOptions copt;
    if (tuning.sram_blocks) {
      opt.sram_blocks_per_stage = tuning.sram_blocks;
      copt.sram_blocks_per_stage = tuning.sram_blocks;
    }
    if (tuning.sram_depth) {
      opt.sram_depth = tuning.sram_depth;
      copt.sram_depth = tuning.sram_depth;
    }
    if (tuning.tcam_blocks) {
      opt.tcam_blocks_per_stage = tuning.tcam_blocks;
      copt.tcam_blocks_per_stage = tuning.tcam_blocks;
    }
    if (tuning.tcam_depth) {
      opt.tcam_depth = tuning.tcam_depth;
      copt.tcam_depth = tuning.tcam_depth;
    }
    return std::make_unique<PisaBackend>(opt, copt);
  }
  ipbm::IpbmOptions opt;
  compiler::Rp4bcOptions copt;
  if (tuning.sram_blocks) {
    opt.sram_blocks = tuning.sram_blocks;
    copt.sram_blocks = tuning.sram_blocks;
  }
  if (tuning.sram_depth) {
    opt.sram_depth = tuning.sram_depth;
    copt.sram_depth = tuning.sram_depth;
  }
  if (tuning.tcam_blocks) {
    opt.tcam_blocks = tuning.tcam_blocks;
    copt.tcam_blocks = tuning.tcam_blocks;
  }
  if (tuning.tcam_depth) {
    opt.tcam_depth = tuning.tcam_depth;
    copt.tcam_depth = tuning.tcam_depth;
  }
  return std::make_unique<IpsaBackend>(opt, copt);
}

}  // namespace ipsa::daemon
