#include "wire.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <ctime>

#include "controller/designs.h"

namespace ipsa::perfbench {

namespace {

constexpr uint32_t kBurst = 64;
constexpr size_t kMaxFrame = 2048;
// A packet not back this long after its send is counted lost.
constexpr int64_t kLossTimeoutNs = 50'000'000;
// The closed loop's rate is taken per chunk of this length; the median
// chunk ignores a chunk in which the host preempted the loop.
constexpr int64_t kChunkNs = 20'000'000;

bool Matches(const Golden& g, int port, std::span<const uint8_t> got) {
  // The tag (last 4 bytes) is the send sequence, checked by the caller;
  // the devices never read the payload.
  return g.delivered && port == static_cast<int>(g.port) &&
         got.size() == g.bytes.size() &&
         std::memcmp(got.data(), g.bytes.data(), got.size() - 4) == 0;
}

std::vector<std::vector<uint8_t>> Frames(const std::vector<PoolPacket>& pool) {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(pool.size());
  for (const PoolPacket& p : pool) {
    out.emplace_back(p.packet.bytes().begin(), p.packet.bytes().end());
  }
  return out;
}

// Waits for readability up to `timeout_ns` (0: just test) with ppoll's
// nanosecond timeout; returns true when the socket is readable.
int64_t ProcessCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

bool WaitReadable(int fd, int64_t timeout_ns) {
  pollfd pfd{fd, POLLIN, 0};
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  return ::ppoll(&pfd, 1, &ts, nullptr) > 0 && (pfd.revents & POLLIN);
}

}  // namespace

Result<DaemonRig> StartDaemon(const TrafficSpec& spec) {
  DaemonRig rig;
  daemon::SwitchdOptions options;
  options.arch = daemon::ArchKind::kIpsa;
  options.udp_ports = kTrafficPorts;
  rig.switchd = std::make_unique<daemon::Switchd>(options);
  IPSA_RETURN_IF_ERROR(rig.switchd->Start());
  rpc::ClientOptions copts;
  copts.port = rig.switchd->control_port();
  copts.client_name = "perfbench";
  rig.client = std::make_unique<rpc::Client>(copts);
  IPSA_RETURN_IF_ERROR(rig.client
                           ->Install(rpc::InstallKind::kBaseP4,
                                     controller::designs::BaseP4())
                           .status());
  IPSA_ASSIGN_OR_RETURN(compiler::ApiSpec api, rig.client->FetchApi());
  IPSA_ASSIGN_OR_RETURN(auto ops, RouteOps(api, spec));
  IPSA_ASSIGN_OR_RETURN(rpc::BulkResult bulk, rig.client->ApplyBulk(ops));
  if (bulk.applied != ops.size() || !bulk.failures.empty()) {
    return InternalError("route population failed on switchd");
  }
  return rig;
}

Status UdpClient::Open(DaemonRig& rig) {
  IPSA_ASSIGN_OR_RETURN(sock_, wire::UdpBind("127.0.0.1", 0));
  IPSA_RETURN_IF_ERROR(wire::SetNonBlocking(sock_.fd(), true));
  int bytes = 4 << 20;
  ::setsockopt(sock_.fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  ::setsockopt(sock_.fd(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  for (uint32_t p = 0; p < kTrafficPorts; ++p) {
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(rig.switchd->udp_port(p));
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    to_.push_back(a);
    udp_ports_.push_back(rig.switchd->udp_port(p));
    // A zero-length datagram registers this socket as the port's peer.
    if (::sendto(sock_.fd(), "", 0, 0, reinterpret_cast<const sockaddr*>(&a),
                 sizeof(a)) != 0) {
      return Unavailable("peer registration failed");
    }
  }
  // The daemon services UDP before control connections in one poll pass,
  // so a completed RPC means the registrations have landed.
  return rig.client->QueryEpoch().status();
}

int UdpClient::PortOf(const sockaddr_in& from) const {
  const uint16_t port = ntohs(from.sin_port);
  for (size_t i = 0; i < udp_ports_.size(); ++i) {
    if (udp_ports_[i] == port) return static_cast<int>(i);
  }
  return -1;
}

// --- closed loop ---------------------------------------------------------------

void RunClosedLoop(UdpClient& udp, const std::vector<PoolPacket>& pool,
                   const std::vector<Golden>& golden, uint32_t window,
                   int64_t deadline_ns, SpanRecorder& rec, WireStats& stats) {
  const uint32_t pool_size = static_cast<uint32_t>(pool.size());
  std::vector<std::vector<uint8_t>> frames = Frames(pool);
  constexpr uint32_t kIdle = 0xFFFFFFFFu;
  std::vector<uint32_t> inflight(pool_size, kIdle);  // seq by pool slot
  std::vector<int64_t> sent_at(pool_size, 0);
  wire::UdpBatchSender sender(kBurst);
  wire::UdpBatchReceiver receiver(kBurst, kMaxFrame);
  uint32_t seq = 0;
  uint32_t outstanding = 0;
  int64_t check_ns = 0;
  uint64_t iter = 0;
  std::vector<uint32_t> slots;

  auto send = [&](uint32_t count, uint32_t parent) {
    ScopedSpan span(rec, "wire.flush", iter, parent);
    while (count > 0) {
      uint32_t queued = 0;
      for (; queued < count && queued < kBurst; ++queued, ++seq) {
        const uint32_t slot = seq % pool_size;
        if (inflight[slot] != kIdle) {
          ++stats.lost;  // its slot came round again: it never returned
          --outstanding;
        }
        WriteTag(frames[slot], seq);
        sender.Add(frames[slot], udp.port_addr(pool[slot].in_port));
        inflight[slot] = seq;
      }
      const int64_t now = NowNs();
      for (uint32_t s = seq - queued; s != seq; ++s) {
        sent_at[s % pool_size] = now;
      }
      (void)sender.Flush(udp.fd());
      stats.sent += queued;
      outstanding += queued;
      count -= queued;
    }
  };

  // Reserved, not grown: a doubling reallocation would make the peak RSS
  // jump with the sample count.
  stats.latency_us.reserve(size_t{1} << 23);
  const int64_t t0 = NowNs();
  const int64_t cpu0 = ProcessCpuNs();
  int64_t chunk_start = t0, chunk_check_ns = 0;
  uint64_t chunk_delivered = 0;
  send(window, kNoParent);
  bool sending = true;
  while (outstanding > 0) {
    const int64_t now = NowNs();
    if (sending && now - chunk_start >= kChunkNs) {
      stats.chunk_pps.push_back(
          static_cast<double>(stats.delivered - chunk_delivered) * 1e9 /
          static_cast<double>(now - chunk_start - (check_ns - chunk_check_ns)));
      chunk_start = now;
      chunk_check_ns = check_ns;
      chunk_delivered = stats.delivered;
    }
    if (now >= deadline_ns) sending = false;
    if (!sending && now >= deadline_ns + kLossTimeoutNs) break;
    ScopedSpan root(rec, "wire.iter", ++iter);
    bool readable;
    {
      ScopedSpan span(rec, "wire.poll_wait", iter, root.id());
      readable = WaitReadable(udp.fd(), kLossTimeoutNs);
    }
    if (!readable) {
      // Nothing came back for a whole timeout: the window is gone.
      stats.lost += outstanding;
      std::fill(inflight.begin(), inflight.end(), kIdle);
      outstanding = 0;
      if (sending) send(window, root.id());
      continue;
    }
    uint32_t n = 0;
    {
      ScopedSpan span(rec, "wire.recv", iter, root.id());
      auto got = receiver.Recv(udp.fd());
      n = got.ok() ? *got : 0;
    }
    const int64_t t_rx = NowNs();
    ++stats.recv_calls;
    stats.recv_packets += n;
    // Match tags to the window first and answer them, then check bytes.
    slots.clear();
    uint32_t returned = 0;
    for (uint32_t i = 0; i < n; ++i) {
      std::span<uint8_t> data = receiver.data(i);
      uint32_t tag = data.size() >= 4 ? ReadTag(data) : kIdle;
      uint32_t slot = tag % pool_size;
      if (tag == kIdle || inflight[slot] != tag) {
        ++stats.wrong;
        slots.push_back(kIdle);
        continue;
      }
      inflight[slot] = kIdle;
      --outstanding;
      ++returned;
      stats.latency_us.push_back(static_cast<double>(t_rx - sent_at[slot]) /
                                 1e3);
      slots.push_back(slot);
    }
    if (sending && returned > 0) send(returned, root.id());
    const int64_t c0 = NowNs();
    for (uint32_t i = 0; i < n; ++i) {
      if (slots[i] == kIdle) continue;
      if (Matches(golden[slots[i]], udp.PortOf(receiver.from(i)),
                  receiver.data(i))) {
        ++stats.delivered;
      } else {
        ++stats.wrong;
      }
    }
    check_ns += NowNs() - c0;
  }
  stats.lost += outstanding;
  stats.timed_ns = NowNs() - t0 - check_ns;
  stats.cpu_ns = ProcessCpuNs() - cpu0 - check_ns;
}

// --- open loop -----------------------------------------------------------------

OpenLoop::OpenLoop(UdpClient& udp, const std::vector<PoolPacket>& pool,
                   const CyclePlan& plan, double rate_pps, int64_t start_ns,
                   int64_t deadline_ns)
    : udp_(udp),
      pool_(pool),
      plan_(plan),
      rate_pps_(rate_pps),
      start_ns_(start_ns),
      deadline_ns_(deadline_ns) {
  const size_t cap = static_cast<size_t>(
      rate_pps * static_cast<double>(deadline_ns - start_ns) / 1e9) + kBurst;
  sched_ns_.reserve(cap);
  sent_ns_.reserve(cap);
  recv_ns_.reserve(cap);
  match_mask_.reserve(cap);
}

void OpenLoop::Receive(int64_t t_rx, uint32_t n, wire::UdpBatchReceiver& rx) {
  if (n == 0) return;
  rx_times_.push_back(t_rx);
  const uint32_t pool_size = static_cast<uint32_t>(pool_.size());
  for (uint32_t i = 0; i < n; ++i) {
    std::span<uint8_t> data = rx.data(i);
    const uint32_t seq = data.size() >= 4 ? ReadTag(data) : 0xFFFFFFFFu;
    if (seq >= recv_ns_.size() || recv_ns_[seq] != 0) {
      ++stats_.wrong;  // never sent, or a duplicate
      continue;
    }
    recv_ns_[seq] = t_rx;
    const int port = udp_.PortOf(rx.from(i));
    uint32_t mask = 0;
    for (size_t s = 0; s < plan_.goldens_after.size(); ++s) {
      if (Matches(plan_.goldens_after[s][seq % pool_size], port, data)) {
        mask |= 1u << s;
      }
    }
    match_mask_[seq] = mask;
  }
}

void OpenLoop::Run(SpanRecorder& rec) {
  // Sleeps here are tens of microseconds; the default 50 us timer slack
  // would make every send late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const uint32_t pool_size = static_cast<uint32_t>(pool_.size());
  std::vector<std::vector<uint8_t>> frames = Frames(pool_);
  wire::UdpBatchSender sender(kBurst);
  wire::UdpBatchReceiver receiver(kBurst, kMaxFrame);
  const double ns_per_pkt = 1e9 / rate_pps_;
  auto sched = [&](size_t k) {
    return start_ns_ + static_cast<int64_t>(static_cast<double>(k) * ns_per_pkt);
  };
  const size_t cap = sched_ns_.capacity();
  uint64_t iter = 0;
  while (true) {
    const int64_t now = NowNs();
    if (now >= deadline_ns_) break;
    ScopedSpan root(rec, "wire.iter", ++iter);
    size_t k = sched_ns_.size();
    uint32_t queued = 0;
    while (k < cap && sched(k) <= now && queued < kBurst) {
      const uint32_t slot = static_cast<uint32_t>(k % pool_size);
      WriteTag(frames[slot], static_cast<uint32_t>(k));
      sender.Add(frames[slot], udp_.port_addr(pool_[slot].in_port));
      sched_ns_.push_back(sched(k));
      recv_ns_.push_back(0);
      match_mask_.push_back(0);
      ++k;
      ++queued;
    }
    if (queued > 0) {
      ScopedSpan span(rec, "wire.flush", iter, root.id());
      const int64_t t_send = NowNs();
      (void)sender.Flush(udp_.fd());
      for (size_t s = k - queued; s < k; ++s) {
        sent_ns_.push_back(t_send);
        stats_.late_us.push_back(static_cast<double>(t_send - sched_ns_[s]) /
                                 1e3);
      }
      stats_.sent += queued;
    }
    const int64_t wait = k < cap ? std::max<int64_t>(0, sched(k) - NowNs())
                                 : deadline_ns_ - NowNs();
    bool readable;
    {
      ScopedSpan span(rec, "wire.poll_wait", iter, root.id());
      readable = WaitReadable(udp_.fd(), std::max<int64_t>(0, wait));
    }
    if (!readable) continue;
    uint32_t n = 0;
    {
      ScopedSpan span(rec, "wire.recv", iter, root.id());
      auto got = receiver.Recv(udp_.fd());
      n = got.ok() ? *got : 0;
    }
    ++stats_.recv_calls;
    stats_.recv_packets += n;
    Receive(NowNs(), n, receiver);
  }
  // Let the packets in flight come back.
  const int64_t drain_until = NowNs() + kLossTimeoutNs;
  while (NowNs() < drain_until) {
    if (!WaitReadable(udp_.fd(), 1'000'000)) continue;
    auto got = receiver.Recv(udp_.fd());
    Receive(NowNs(), got.ok() ? *got : 0, receiver);
  }
  drain_end_ns_ = NowNs();
  stats_.timed_ns = deadline_ns_ - start_ns_;
}

void OpenLoop::Resolve(const std::vector<StepRecord>& timeline,
                       uint32_t initial_step) {
  const uint32_t pool_size = static_cast<uint32_t>(pool_.size());
  const uint32_t initial = initial_step;
  size_t lo = 0;  // send times only grow, so this only moves forward
  for (size_t seq = 0; seq < sent_ns_.size(); ++seq) {
    const int64_t ts = sent_ns_[seq];
    const bool received = recv_ns_[seq] != 0;
    const int64_t tr =
        received ? recv_ns_[seq] : std::min(ts + kLossTimeoutNs, drain_end_ns_);
    // Steps finished before the send had all landed; steps started before
    // the receipt may have. The device was in the state after one of them.
    while (lo < timeline.size() && timeline[lo].end_ns < ts) ++lo;
    size_t hi = lo;
    while (hi < timeline.size() && timeline[hi].start_ns < tr) ++hi;
    bool ok = false;
    for (size_t j = lo; j <= hi && !ok; ++j) {
      const uint32_t state =
          j == 0 ? initial : timeline[j - 1].step;
      if (received) {
        ok = (match_mask_[seq] >> state) & 1u;
      } else {
        ok = !plan_.goldens_after[state][seq % pool_size].delivered;
      }
    }
    if (received && ok) {
      ++stats_.delivered;
      stats_.latency_us.push_back(
          static_cast<double>(recv_ns_[seq] - sched_ns_[seq]) / 1e3);
    } else if (received) {
      ++stats_.wrong;
    } else if (!ok) {
      ++stats_.lost;
    }
  }
}

double MaxStallUs(const std::vector<int64_t>& rx_times,
                  const std::vector<StepRecord>& timeline) {
  int64_t worst = 0;
  for (const StepRecord& r : timeline) {
    if (!r.install) continue;
    auto it = std::lower_bound(rx_times.begin(), rx_times.end(), r.start_ns);
    if (it != rx_times.begin()) --it;
    for (; it + 1 < rx_times.end() && *it < r.end_ns; ++it) {
      if (*(it + 1) > r.start_ns) worst = std::max(worst, *(it + 1) - *it);
    }
  }
  return static_cast<double>(worst) / 1e3;
}

}  // namespace ipsa::perfbench
