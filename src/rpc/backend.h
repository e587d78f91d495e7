// What a control-channel server serves: the Backend interface decouples the
// protocol dispatcher from the device behind it (pbm or ipbm with their flow
// controllers — see daemon/backends.h — or a fake in tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rpc/protocol.h"
#include "util/status.h"

namespace ipsa::rpc {

struct BackendInfo {
  std::string arch;
  uint32_t port_count = 0;
  bool has_design = false;
  uint64_t epoch = 0;
};

// The two op-stream semantics every Backend shares. A TableBatch stops at
// the first failure: the ops before it stay applied (the batch is a latency
// optimization, not a transaction) and the failing index travels in the
// error message ("batch op N: ..."), since non-OK responses carry no body.
template <typename Fn>
Result<TableBatchResponse> ApplyOpsUntilFailure(
    const std::vector<TableOp>& ops, Fn&& apply) {
  TableBatchResponse resp;
  for (uint32_t i = 0; i < ops.size(); ++i) {
    Status s = apply(ops[i]);
    if (!s.ok()) {
      return Status(s.code(),
                    "batch op " + std::to_string(i) + ": " + s.message());
    }
    ++resp.applied;
  }
  return resp;
}

// A bulk frame never aborts: per-op failures travel in the response and the
// remaining ops still apply.
template <typename Fn>
TableBulkResponse ApplyOpsCollectingFailures(const std::vector<TableOp>& ops,
                                             Fn&& apply) {
  TableBulkResponse resp;
  for (uint32_t i = 0; i < ops.size(); ++i) {
    Status s = apply(ops[i]);
    if (s.ok()) {
      ++resp.applied;
    } else {
      resp.failures.push_back(
          BulkFailure{i, static_cast<uint16_t>(s.code()), s.message()});
    }
  }
  return resp;
}

struct InstallOutcome {
  double compile_ms = 0;
  double load_ms = 0;
  uint64_t epoch = 0;
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendInfo Info() = 0;
  virtual Result<InstallOutcome> Install(InstallKind kind,
                                         const std::string& source) = 0;
  virtual Status ApplyTableOp(const TableOp& op) = 0;
  // One TableBatch request: ApplyTableOp semantics per op (kAdd upserts),
  // stopping at the first failure. Device backends override to publish each
  // touched table once per request; the default loops ApplyTableOp.
  virtual Result<TableBatchResponse> ApplyTableBatch(
      const TableBatchRequest& req) {
    return ApplyOpsUntilFailure(
        req.ops, [this](const TableOp& op) { return ApplyTableOp(op); });
  }
  // One frame of a pipelined bulk stream: applies every op, collecting
  // per-op failures (strict kAdd — duplicates fail, they don't upsert).
  // Device backends override to batch index publication per table; the
  // default serves fakes by looping ApplyTableOp (kAdd stays upsert there,
  // close enough for backends without real tables).
  virtual Result<TableBulkResponse> ApplyTableBulk(
      const TableBulkRequest& req) {
    return ApplyOpsCollectingFailures(
        req.ops, [this](const TableOp& op) { return ApplyTableOp(op); });
  }
  virtual Result<compiler::ApiSpec> Api() = 0;
  virtual Result<StatsResponse> QueryStats() = 0;
  // Drains all pending RX through the pipeline (quiesce); returns the
  // number of packets processed.
  virtual Result<uint32_t> Drain(uint32_t workers) = 0;

  // Telemetry surface. Default-implemented so fakes and backends without a
  // collector keep compiling; real device backends override all three.
  virtual Result<MetricsResponse> QueryMetrics() {
    return Unimplemented("backend has no telemetry");
  }
  virtual Result<TracesResponse> DrainTraces(uint32_t max) {
    (void)max;
    return Unimplemented("backend has no telemetry");
  }
  virtual Status ResetMetrics() {
    return Unimplemented("backend has no telemetry");
  }
};

}  // namespace ipsa::rpc
