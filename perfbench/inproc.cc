#include "inproc.h"

#include <algorithm>
#include <cstring>

#include "controller/runtime_api.h"

namespace ipsa::perfbench {

Forwarder::Forwarder(IpbmRig& ipbm, PbmRig& pbm,
                     const std::vector<PoolPacket>& pool,
                     const std::vector<Golden>& goldens, uint32_t burst)
    : ipbm_(ipbm), pbm_(pbm), pool_(pool), goldens_(goldens), burst_(burst) {
  const uint32_t bursts = static_cast<uint32_t>(pool.size() / burst);
  expected_.resize(bursts);
  for (uint32_t b = 0; b < bursts; ++b) {
    // A burst enters on one port, so each TX queue holds its packets in
    // burst order; TX is popped port by port.
    for (uint32_t i = b * burst; i < (b + 1) * burst; ++i) {
      if (goldens[i].delivered) expected_[b].push_back(i);
    }
    std::stable_sort(expected_[b].begin(), expected_[b].end(),
                     [&](uint32_t x, uint32_t y) {
                       return goldens[x].port < goldens[y].port;
                     });
  }
  ipbm_start_ = ipbm_.device->stats();
  pbm_start_ = pbm_.device->stats();
}

template <typename Device>
int64_t Forwarder::Round(Device& device, uint32_t b, const char* root,
                         const char* drain, SpanRecorder& rec,
                         RoundStats& stats) {
  stage_.clear();
  for (uint32_t i = b * burst_; i < (b + 1) * burst_; ++i) {
    stage_.push_back(pool_[i].packet);
  }
  const uint32_t in_port = pool_[b * burst_].in_port;
  net::PortSet& ports = device.ports();
  out_.clear();
  bool drained = true;

  const int64_t t0 = NowNs();
  {
    ScopedSpan round(rec, root, round_);
    {
      ScopedSpan s(rec, "net.rx_push", round_, round.id());
      net::PortQueue& rx = ports.port(in_port).rx();
      for (net::Packet& p : stage_) rx.Push(std::move(p));
    }
    {
      ScopedSpan s(rec, drain, round_, round.id());
      drained = device.RunToCompletion(1).ok();
    }
    {
      ScopedSpan s(rec, "net.tx_pop", round_, round.id());
      for (uint32_t p = 0; p < ports.count(); ++p) {
        net::PortQueue& tx = ports.port(p).tx();
        while (auto packet = tx.Pop()) out_.push_back({p, std::move(*packet)});
      }
    }
  }
  const int64_t elapsed = NowNs() - t0;

  // Checked outside the timed region.
  const std::vector<uint32_t>& want = expected_[b];
  stats.attempted += burst_;
  uint64_t bad = drained ? 0 : burst_;
  for (size_t k = 0; k < std::max(want.size(), out_.size()); ++k) {
    if (k >= want.size() || k >= out_.size()) {
      ++bad;
      continue;
    }
    const Golden& g = goldens_[want[k]];
    std::span<const uint8_t> got = out_[k].packet.bytes();
    if (out_[k].port != g.port || got.size() != g.bytes.size() ||
        std::memcmp(got.data(), g.bytes.data(), got.size()) != 0) {
      ++bad;
    }
  }
  stats.failed += std::min<uint64_t>(bad, burst_);
  stats.packets += burst_;
  stats.ns += elapsed;
  stats.round_us.push_back(static_cast<double>(elapsed) / 1e3);
  return elapsed;
}

void Forwarder::Run(int64_t deadline_ns, SpanRecorder& rec,
                    uint64_t max_rounds) {
  const uint32_t bursts = static_cast<uint32_t>(expected_.size());
  const uint64_t last = max_rounds == UINT64_MAX ? UINT64_MAX : round_ + max_rounds;
  while (round_ < last && NowNs() < deadline_ns) {
    const uint32_t b = static_cast<uint32_t>(round_ % bursts);
    // Interleaved, alternating which device goes first, so host drift hits
    // both devices alike.
    if (round_ % 2 == 0) {
      Round(*ipbm_.device, b, "ipbm.round", "ipsa.drain", rec, ipbm_stats_);
      Round(*pbm_.device, b, "pbm.round", "pisa.drain", rec, pbm_stats_);
    } else {
      Round(*pbm_.device, b, "pbm.round", "pisa.drain", rec, pbm_stats_);
      Round(*ipbm_.device, b, "ipbm.round", "ipsa.drain", rec, ipbm_stats_);
    }
    ++round_;
    if (round_ == bursts) {
      // Exactly one pass over the pool: simulated cycles are a property of
      // the packets and the design, not of how long the run lasted.
      const auto& si = ipbm_.device->stats();
      const auto& sp = pbm_.device->stats();
      ipbm_cycles_per_pkt_ =
          static_cast<double>(si.total_cycles - ipbm_start_.total_cycles) /
          static_cast<double>(si.packets_in - ipbm_start_.packets_in);
      pbm_cycles_per_pkt_ =
          static_cast<double>(sp.total_cycles - pbm_start_.total_cycles) /
          static_cast<double>(sp.packets_in - pbm_start_.packets_in);
    }
  }
}

std::vector<mem::BitString> LookupKeys(const compiler::ApiSpec& api,
                                       const TrafficSpec& spec,
                                       const std::string& table) {
  net::Workload workload(spec.flows);
  controller::EntryBuilder builder(api);
  const uint32_t prefix_len = table.find("lpm") != std::string::npos ? 32 : 0;
  std::vector<mem::BitString> keys;
  for (const net::FlowSpec& f : workload.flows()) {
    if (f.is_ipv6) continue;
    auto e = builder.Build(
        table, "set_nexthop",
        {controller::KeyValue(controller::Ipv4Bits(f.v4_dst.value))},
        {controller::Bits(16, 0)}, prefix_len);
    if (e.ok()) keys.push_back(e->key);
  }
  return keys;
}

Result<double> TimeLookupsNs(const arch::TableCatalog& catalog,
                             const std::string& table,
                             const std::vector<mem::BitString>& keys,
                             uint64_t lookups, uint64_t& hits) {
  if (keys.empty()) return InvalidArgument("no lookup keys for " + table);
  IPSA_ASSIGN_OR_RETURN(table::MatchTable * t, catalog.Get(table));
  table::LookupResult r;
  const int64_t t0 = NowNs();
  for (uint64_t i = 0; i < lookups; ++i) {
    t->LookupInto(keys[i % keys.size()], r);
    hits += r.hit ? 1 : 0;
  }
  return static_cast<double>(NowNs() - t0) / static_cast<double>(lookups);
}

Result<WriteCost> TimeTableWrites(Twin& twin, const TrafficSpec& spec,
                                  uint32_t ops_per_mode) {
  IPSA_ASSIGN_OR_RETURN(
      auto ops, RouteModifyOps(twin.api(), spec, /*draw=*/0xFFFF, ops_per_mode));
  ipbm::IpbmSwitch& dev = twin.device();
  WriteCost cost;
  int64_t t0 = NowNs();
  for (const rpc::TableOp& op : ops) {
    IPSA_RETURN_IF_ERROR(dev.AddEntry(op.table, op.entry));
  }
  int64_t t1 = NowNs();
  IPSA_RETURN_IF_ERROR(dev.BeginEntryBatch("ipv4_lpm"));
  for (const rpc::TableOp& op : ops) {
    IPSA_RETURN_IF_ERROR(dev.AddEntry(op.table, op.entry));
  }
  IPSA_RETURN_IF_ERROR(dev.EndEntryBatch("ipv4_lpm"));
  int64_t t2 = NowNs();
  cost.single_us = static_cast<double>(t1 - t0) / 1e3 / ops.size();
  cost.batched_us = static_cast<double>(t2 - t1) / 1e3 / ops.size();
  return cost;
}

}  // namespace ipsa::perfbench
