// switchd over loopback: the daemon rig, one client socket registered on
// every egress port, and the closed- and open-loop packet generators.
#pragma once

#include <memory>
#include <vector>

#include "bench.h"
#include "control.h"
#include "daemon/switchd.h"
#include "rpc/client.h"
#include "wire/socket.h"
#include "wire/udp_batch.h"

namespace ipsa::perfbench {

// An in-process switchd (ipsa) with the base design installed and the
// workload's routes populated over its own RPC channel.
struct DaemonRig {
  std::unique_ptr<daemon::Switchd> switchd;
  std::unique_ptr<rpc::Client> client;
};
Result<DaemonRig> StartDaemon(const TrafficSpec& spec);

class UdpClient {
 public:
  // Binds one socket and registers it as the packet-out peer of every
  // exposed port; returns once the daemon has processed the registrations.
  Status Open(DaemonRig& rig);

  int fd() const { return sock_.fd(); }
  const sockaddr_in& port_addr(uint32_t port) const { return to_[port]; }
  // Device port of a packet-out by its source address; -1 if unknown.
  int PortOf(const sockaddr_in& from) const;

 private:
  wire::Socket sock_;
  std::vector<sockaddr_in> to_;
  std::vector<uint16_t> udp_ports_;
};

struct WireStats {
  uint64_t sent = 0;
  uint64_t delivered = 0;  // received and matching their golden
  uint64_t lost = 0;
  uint64_t wrong = 0;
  int64_t timed_ns = 0;  // measured window, checking excluded
  int64_t cpu_ns = 0;    // closed loop: CPU time of the whole process
  std::vector<double> chunk_pps;  // closed loop: delivered rate per chunk
  std::vector<double> latency_us;
  std::vector<double> late_us;  // open loop: send time minus schedule
  uint64_t recv_calls = 0;
  uint64_t recv_packets = 0;
};

// Closed loop: `window` datagrams in flight; each packet-out is answered
// with the next packet. Every delivered packet is checked against `golden`.
void RunClosedLoop(UdpClient& udp, const std::vector<PoolPacket>& pool,
                   const std::vector<Golden>& golden, uint32_t window,
                   int64_t deadline_ns, SpanRecorder& rec, WireStats& stats);

// Open loop at `rate_pps` while the control thread churns the device;
// latency runs from each packet's scheduled send. A packet-out must equal
// the golden of one state the device could have been in between the
// packet's send and its receipt (the states around the steps in flight); a
// packet never received is lost unless one of those states drops it.
class OpenLoop {
 public:
  OpenLoop(UdpClient& udp, const std::vector<PoolPacket>& pool,
           const CyclePlan& plan, double rate_pps, int64_t start_ns,
           int64_t deadline_ns);
  void Run(SpanRecorder& rec);
  // Classifies every packet sent against the control timeline; before its
  // first record the device was in the state after step `initial_step`.
  void Resolve(const std::vector<StepRecord>& timeline, uint32_t initial_step);

  const WireStats& stats() const { return stats_; }
  const std::vector<int64_t>& rx_times() const { return rx_times_; }

 private:
  void Receive(int64_t t_rx, uint32_t n, wire::UdpBatchReceiver& rx);

  UdpClient& udp_;
  const std::vector<PoolPacket>& pool_;
  const CyclePlan& plan_;
  double rate_pps_;
  int64_t start_ns_;
  int64_t deadline_ns_;
  int64_t drain_end_ns_ = 0;
  std::vector<int64_t> sched_ns_, sent_ns_, recv_ns_;
  std::vector<uint32_t> match_mask_;  // bit s: equals golden after step s
  std::vector<int64_t> rx_times_;
  WireStats stats_;
};

// Longest gap between packet-out bursts that overlaps an install.
double MaxStallUs(const std::vector<int64_t>& rx_times,
                  const std::vector<StepRecord>& timeline);

}  // namespace ipsa::perfbench
