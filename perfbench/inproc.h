// In-process forwarding through RunToCompletion on ipbm and pbm, and the
// in-process table probes of the traced run.
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace ipsa::perfbench {

struct RoundStats {
  uint64_t packets = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // missing, extra or wrong packets
  int64_t ns = 0;       // push + drain + pop, summed over rounds
  std::vector<double> round_us;
};

// Closed loop over the pool: a burst is pushed into one RX queue, drained
// with RunToCompletion(1) and every TX queue popped; the next burst goes
// only after that. ipbm and pbm rounds are interleaved, never run in
// blocks. Every popped packet is compared with its golden after the round's
// clock has stopped.
class Forwarder {
 public:
  Forwarder(IpbmRig& ipbm, PbmRig& pbm, const std::vector<PoolPacket>& pool,
            const std::vector<Golden>& goldens, uint32_t burst);

  // Runs rounds until `deadline_ns` (or `max_rounds` more rounds),
  // continuing where the last call ended.
  void Run(int64_t deadline_ns, SpanRecorder& rec,
           uint64_t max_rounds = UINT64_MAX);

  RoundStats& ipbm_stats() { return ipbm_stats_; }
  RoundStats& pbm_stats() { return pbm_stats_; }
  // Simulated device cycles per packet over the first full pass of the
  // pool; 0 until one pass has run.
  double ipbm_cycles_per_pkt() const { return ipbm_cycles_per_pkt_; }
  double pbm_cycles_per_pkt() const { return pbm_cycles_per_pkt_; }

 private:
  struct Out {
    uint32_t port;
    net::Packet packet;
  };
  template <typename Device>
  int64_t Round(Device& device, uint32_t burst_index, const char* root,
                const char* drain, SpanRecorder& rec, RoundStats& stats);

  IpbmRig& ipbm_;
  PbmRig& pbm_;
  const std::vector<PoolPacket>& pool_;
  const std::vector<Golden>& goldens_;
  uint32_t burst_;
  // Per burst: delivered pool indexes in TX pop order.
  std::vector<std::vector<uint32_t>> expected_;
  std::vector<net::Packet> stage_;
  std::vector<Out> out_;
  uint64_t round_ = 0;
  RoundStats ipbm_stats_, pbm_stats_;
  telemetry::DeviceStats ipbm_start_, pbm_start_;
  double ipbm_cycles_per_pkt_ = 0, pbm_cycles_per_pkt_ = 0;
};

// Lookup keys of `table` (an IPv4 FIB) for the workload's IPv4 flow
// destinations, packed by the runtime API exactly as the datapath does.
std::vector<mem::BitString> LookupKeys(const compiler::ApiSpec& api,
                                       const TrafficSpec& spec,
                                       const std::string& table);
// Mean ns per LookupInto on a live table of `catalog`.
Result<double> TimeLookupsNs(const arch::TableCatalog& catalog,
                             const std::string& table,
                             const std::vector<mem::BitString>& keys,
                             uint64_t lookups, uint64_t& hits);

// AddEntry on the twin's ipv4_lpm (same-value upserts of existing routes),
// one publication per op versus one per Begin/EndEntryBatch.
struct WriteCost {
  double single_us = 0;
  double batched_us = 0;
};
Result<WriteCost> TimeTableWrites(Twin& twin, const TrafficSpec& spec,
                                  uint32_t ops_per_mode);

}  // namespace ipsa::perfbench
