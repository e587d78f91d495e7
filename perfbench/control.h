// The in-situ control cycle, driven either in process (Rp4FlowController)
// or over switchd's RPC channel (rpc::Client).
#pragma once

#include <vector>

#include "bench.h"
#include "rpc/client.h"

namespace ipsa::perfbench {

// Where the cycle's steps go.
class ControlTarget {
 public:
  virtual ~ControlTarget() = default;
  // One script install; returns the device-reported t_C / t_L.
  virtual Result<controller::FlowTiming> Install(const std::string& script) = 0;
  // Applies `ops`; returns how many succeeded. `rec`/`parent` receive the
  // codec and apply spans of the traced run.
  virtual Result<uint32_t> Apply(const std::vector<rpc::TableOp>& ops,
                                 SpanRecorder& rec, uint32_t parent,
                                 uint64_t request) = 0;
};

class InProcessTarget : public ControlTarget {
 public:
  explicit InProcessTarget(controller::Rp4FlowController& ctl) : ctl_(ctl) {}
  Result<controller::FlowTiming> Install(const std::string& script) override;
  Result<uint32_t> Apply(const std::vector<rpc::TableOp>& ops,
                         SpanRecorder& rec, uint32_t parent,
                         uint64_t request) override;

 private:
  controller::Rp4FlowController& ctl_;
};

class RpcTarget : public ControlTarget {
 public:
  explicit RpcTarget(rpc::Client& client) : client_(client) {}
  Result<controller::FlowTiming> Install(const std::string& script) override;
  // Untraced: Client::ApplyBatch. Traced: the same request encoded and
  // decoded by the public codec under spans, then sent as those exact bytes.
  Result<uint32_t> Apply(const std::vector<rpc::TableOp>& ops,
                         SpanRecorder& rec, uint32_t parent,
                         uint64_t request) override;

 private:
  rpc::Client& client_;
};

// One executed step, on the steady clock of the traffic thread.
struct StepRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t step = 0;  // index into ControlSteps()
  bool install = false;
};

struct ControlStats {
  std::vector<double> update_ms;  // wall time per install
  std::vector<double> server_compile_ms, server_load_ms;
  uint64_t route_ops_ok = 0;         // OK route modifies
  std::vector<double> route_ops_per_s;  // per route-modify call
  uint64_t attempted = 0;     // installs + table ops
  uint64_t failed = 0;
  std::vector<StepRecord> timeline;
};

// Runs the cycle from step `next_step` (counted from the device's base
// state; advanced past the last step run) until `deadline_ns`, one step
// every `step_period_ns` (0: back to back). With `twin` set, every install
// and ECMP population is first replayed on the twin under spans, so the
// compiler and template-write costs are timed at the device's exact state.
void RunControl(ControlTarget& target, const TrafficSpec& spec,
                const CyclePlan& plan, int64_t deadline_ns,
                int64_t step_period_ns, Twin* twin, SpanRecorder& rec,
                uint64_t& next_step, ControlStats& stats);

}  // namespace ipsa::perfbench
