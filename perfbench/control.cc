#include "control.h"

#include <thread>

#include "controller/designs.h"
#include "wire/wire.h"

namespace ipsa::perfbench {

Result<controller::FlowTiming> InProcessTarget::Install(
    const std::string& script) {
  return ctl_.ApplyScript(script, controller::designs::ResolveSnippet);
}

Result<uint32_t> InProcessTarget::Apply(const std::vector<rpc::TableOp>& ops,
                                        SpanRecorder& rec, uint32_t parent,
                                        uint64_t request) {
  ScopedSpan s(rec, "ipsa.add_entry", request, parent);
  uint32_t ok = 0;
  for (const rpc::TableOp& op : ops) {
    if (ctl_.AddEntry(op.table, op.entry).ok()) ++ok;
  }
  return ok;
}

Result<controller::FlowTiming> RpcTarget::Install(const std::string& script) {
  IPSA_ASSIGN_OR_RETURN(rpc::InstallResponse resp,
                        client_.Install(rpc::InstallKind::kScript, script));
  return controller::FlowTiming{resp.compile_ms, resp.load_ms};
}

Result<uint32_t> RpcTarget::Apply(const std::vector<rpc::TableOp>& ops,
                                  SpanRecorder& rec, uint32_t parent,
                                  uint64_t request) {
  if (!rec.enabled()) {
    IPSA_ASSIGN_OR_RETURN(rpc::TableBatchResponse resp,
                          client_.ApplyBatch(ops));
    return resp.applied;
  }
  rpc::TableBatchRequest req;
  req.ops = ops;
  std::vector<uint8_t> payload;
  {
    ScopedSpan s(rec, "rpc.encode", request, parent);
    wire::Writer w;
    req.Encode(w);
    payload = w.Take();
  }
  {
    ScopedSpan s(rec, "rpc.decode", request, parent);
    wire::Reader r(payload);
    auto decoded = rpc::TableBatchRequest::Decode(r);
    if (!decoded.ok() || decoded->ops.size() != ops.size()) {
      return InternalError("table batch codec does not round-trip");
    }
  }
  ScopedSpan s(rec, "rpc.apply_batch", request, parent);
  IPSA_ASSIGN_OR_RETURN(rpc::TableBatchResponse resp,
                        client_.ApplyBatchPrepacked(std::move(payload)));
  return resp.applied;
}

void RunControl(ControlTarget& target, const TrafficSpec& spec,
                const CyclePlan& plan, int64_t deadline_ns,
                int64_t step_period_ns, Twin* twin, SpanRecorder& rec,
                uint64_t& next_step, ControlStats& stats) {
  const auto& steps = ControlSteps();
  int64_t next = NowNs();
  for (uint64_t& n = next_step;; ++n) {
    if (step_period_ns > 0) {
      // Paced: sleep to the slot, then run the step even if it is late.
      int64_t wait = next - NowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      next += step_period_ns;
    }
    if (NowNs() >= deadline_ns) break;
    const uint32_t s = StepAt(n);
    const ControlStep& step = steps[s];
    // Entries are built against the API of the state the step starts from.
    const compiler::ApiSpec& api = plan.api_after[plan.StateBefore(n)];

    if (step.kind == ControlStep::Kind::kInstall) {
      if (twin != nullptr) {
        ScopedSpan root(rec, "twin.update", n);
        auto cost = twin->Update(*step.script, &rec, root.id(), n);
        if (!cost.ok()) ++stats.failed;
      }
      StepRecord r{NowNs(), 0, s, true};
      Result<controller::FlowTiming> timing = InternalError("unset");
      {
        ScopedSpan root(rec, "update", n);
        timing = target.Install(*step.script);
      }
      r.end_ns = NowNs();
      stats.timeline.push_back(r);
      ++stats.attempted;
      if (!timing.ok()) {
        ++stats.failed;
        continue;
      }
      stats.update_ms.push_back(static_cast<double>(r.end_ns - r.start_ns) /
                                1e6);
      stats.server_compile_ms.push_back(timing->compile_ms);
      stats.server_load_ms.push_back(timing->load_ms);
    } else {
      std::vector<rpc::TableOp> ops;
      if (step.kind == ControlStep::Kind::kEcmpPopulate) {
        ops = plan.ecmp_ops[s];
        if (twin != nullptr) {
          ScopedSpan root(rec, "twin.populate", n);
          if (!twin->Apply(ops).ok()) ++stats.failed;
        }
      } else {
        auto built = RouteModifyOps(api, spec, n, kRouteModifyOps);
        if (built.ok()) ops = std::move(*built);
      }
      if (ops.empty()) {
        ++stats.attempted;
        ++stats.failed;
        continue;
      }
      StepRecord r{NowNs(), 0, s, false};
      Result<uint32_t> applied = 0u;
      {
        // Route modifies and the ECMP population are timed apart: only the
        // former have a fixed op count.
        ScopedSpan root(rec,
                        step.kind == ControlStep::Kind::kRouteModify
                            ? "table.batch"
                            : "table.populate",
                        n);
        applied = target.Apply(ops, rec, root.id(), n);
      }
      r.end_ns = NowNs();
      stats.timeline.push_back(r);
      stats.attempted += ops.size();
      const uint32_t ok = applied.ok() ? *applied : 0;
      stats.failed += ops.size() - ok;
      if (step.kind == ControlStep::Kind::kRouteModify) {
        stats.route_ops_ok += ok;
        stats.route_ops_per_s.push_back(static_cast<double>(ok) * 1e9 /
                                        static_cast<double>(r.end_ns - r.start_ns));
      }
    }
  }
}

}  // namespace ipsa::perfbench
