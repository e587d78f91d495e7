// Device backends for the switchd daemon: each owns a behavioral device and
// its flow controller and implements the control-channel Backend interface
// on top, plus the data-plane surface the daemon's packet loop needs.
//
// The same objects work headless: ipbm_sim drives an IpsaBackend through
// the identical injection path the daemon uses for UDP packet-in, so the
// interactive tool and the networked daemon cannot diverge.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "net/packet.h"
#include "net/ports.h"
#include "rpc/backend.h"
#include "telemetry/collector.h"
#include "telemetry/device_stats.h"
#include "util/status.h"

namespace ipsa::daemon {

enum class ArchKind { kPisa, kIpsa };

std::string_view ArchName(ArchKind arch);
Result<ArchKind> ArchFromName(std::string_view name);

// rpc::Backend plus direct data-plane access.
class DeviceBackend : public rpc::Backend {
 public:
  virtual net::PortSet& ports() = 0;
  virtual Result<uint32_t> RunToCompletion(uint32_t workers) = 0;
  // Single-packet path with optional tracing (ipbm_sim's `trace` command).
  virtual Result<telemetry::ProcessResult> ProcessOne(
      net::Packet& packet, uint32_t in_port,
      telemetry::ProcessTrace* trace = nullptr) = 0;
  virtual const arch::TableCatalog& catalog() const = 0;
  // Configures the device's telemetry collector (the daemon enables it at
  // startup unless --no-telemetry); a disabled collector costs one branch
  // per packet.
  virtual void ConfigureTelemetry(const telemetry::TelemetryConfig& config) = 0;
  // Pins the hosted device to the name-resolving interpreter (the reference
  // configuration every differential oracle compares against) or back to
  // the default specialized plan. Flipping it invalidates compiled state
  // like any other config change.
  virtual void SetForceInterpreter(bool force) = 0;
};

// One packet leaving the device: which port it egressed and its bytes.
struct TxPacket {
  uint32_t port = 0;
  net::Packet packet;
};

// Pops every TX queue in port order (the deterministic drain order the
// loopback equivalence test relies on).
std::vector<TxPacket> CollectTx(net::PortSet& ports);

// Same drain, appending into a caller-owned vector so a steady-state pump
// loop can reuse its capacity (clear() + CollectTxInto per iteration).
void CollectTxInto(net::PortSet& ports, std::vector<TxPacket>& out);

// The daemon's packet-injection path: push into `in_port`'s RX queue, drain
// the device, collect everything that egressed. Shared with ipbm_sim.
Result<std::vector<TxPacket>> InjectAndDrain(DeviceBackend& dev,
                                             net::Packet packet,
                                             uint32_t in_port,
                                             uint32_t workers = 1);

class IpsaBackend : public DeviceBackend {
 public:
  explicit IpsaBackend(ipbm::IpbmOptions options = {},
                       compiler::Rp4bcOptions compiler_options = {});

  // rpc::Backend
  rpc::BackendInfo Info() override;
  Result<rpc::InstallOutcome> Install(rpc::InstallKind kind,
                                      const std::string& source) override;
  Status ApplyTableOp(const rpc::TableOp& op) override;
  Result<rpc::TableBatchResponse> ApplyTableBatch(
      const rpc::TableBatchRequest& req) override;
  Result<rpc::TableBulkResponse> ApplyTableBulk(
      const rpc::TableBulkRequest& req) override;
  Result<compiler::ApiSpec> Api() override;
  Result<rpc::StatsResponse> QueryStats() override;
  Result<uint32_t> Drain(uint32_t workers) override;
  Result<rpc::MetricsResponse> QueryMetrics() override;
  Result<rpc::TracesResponse> DrainTraces(uint32_t max) override;
  Status ResetMetrics() override;

  // DeviceBackend
  net::PortSet& ports() override { return device_.ports(); }
  Result<uint32_t> RunToCompletion(uint32_t workers) override {
    return device_.RunToCompletion(workers);
  }
  Result<telemetry::ProcessResult> ProcessOne(net::Packet& packet, uint32_t in_port,
                                         telemetry::ProcessTrace* trace) override {
    return device_.Process(packet, in_port, trace);
  }
  const arch::TableCatalog& catalog() const override {
    return device_.catalog();
  }
  void ConfigureTelemetry(const telemetry::TelemetryConfig& config) override {
    device_.ConfigureTelemetry(config);
  }
  void SetForceInterpreter(bool force) override {
    device_.SetForceInterpreter(force);
  }

  ipbm::IpbmSwitch& device() { return device_; }
  controller::Rp4FlowController& controller() { return controller_; }

 private:
  Status ApplyOne(const rpc::TableOp& op, bool strict_add);
  ipbm::IpbmSwitch device_;
  controller::Rp4FlowController controller_;
  uint64_t epoch_ = 0;
  bool has_design_ = false;
};

class PisaBackend : public DeviceBackend {
 public:
  explicit PisaBackend(pisa::PisaOptions options = {},
                       compiler::PisaBackendOptions compiler_options = {});

  rpc::BackendInfo Info() override;
  Result<rpc::InstallOutcome> Install(rpc::InstallKind kind,
                                      const std::string& source) override;
  Status ApplyTableOp(const rpc::TableOp& op) override;
  Result<rpc::TableBatchResponse> ApplyTableBatch(
      const rpc::TableBatchRequest& req) override;
  Result<rpc::TableBulkResponse> ApplyTableBulk(
      const rpc::TableBulkRequest& req) override;
  Result<compiler::ApiSpec> Api() override;
  Result<rpc::StatsResponse> QueryStats() override;
  Result<uint32_t> Drain(uint32_t workers) override;
  Result<rpc::MetricsResponse> QueryMetrics() override;
  Result<rpc::TracesResponse> DrainTraces(uint32_t max) override;
  Status ResetMetrics() override;

  net::PortSet& ports() override { return device_.ports(); }
  Result<uint32_t> RunToCompletion(uint32_t workers) override {
    return device_.RunToCompletion(workers);
  }
  Result<telemetry::ProcessResult> ProcessOne(net::Packet& packet, uint32_t in_port,
                                         telemetry::ProcessTrace* trace) override {
    return device_.Process(packet, in_port, trace);
  }
  const arch::TableCatalog& catalog() const override {
    return device_.catalog();
  }
  void ConfigureTelemetry(const telemetry::TelemetryConfig& config) override {
    device_.ConfigureTelemetry(config);
  }
  void SetForceInterpreter(bool force) override {
    device_.SetForceInterpreter(force);
  }

  pisa::PisaSwitch& device() { return device_; }
  controller::PisaFlowController& controller() { return controller_; }

 private:
  Status ApplyOne(const rpc::TableOp& op, bool strict_add);
  pisa::PisaSwitch device_;
  controller::PisaFlowController controller_;
  uint64_t epoch_ = 0;
  bool has_design_ = false;
};

// Optional pool sizing overrides (0 = keep the arch default). Million-entry
// tables need far deeper pools than the defaults; the daemon exposes these
// as --sram-depth / --sram-blocks flags. For PISA, block counts apply
// per stage (its memory is prorated, which is exactly the contrast the
// paper draws).
struct PoolTuning {
  uint32_t sram_blocks = 0;
  uint32_t sram_depth = 0;
  uint32_t tcam_blocks = 0;
  uint32_t tcam_depth = 0;
};

std::unique_ptr<DeviceBackend> MakeBackend(ArchKind arch,
                                           const PoolTuning& tuning = {});

}  // namespace ipsa::daemon
