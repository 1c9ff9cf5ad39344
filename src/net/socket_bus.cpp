#include "net/socket_bus.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/contract.hpp"
#include "util/wire.hpp"

namespace ufc::net {

namespace {

// Backoff before the k-th retry: 2^(k-1) rounds, capped — the same
// accounting formula as the in-process bus (bus.cpp), so LinkStats numbers
// mean the same thing on both transports.
std::uint64_t backoff_rounds_before_retry(int failed_attempts) {
  return std::uint64_t{1} << std::min(failed_attempts - 1, 10);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  // Best-effort: Nagle only affects latency, never correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  UFC_EXPECTS(!path.empty() && path.size() < sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_address(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  UFC_EXPECTS(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1);
  return addr;
}

/// One non-blocking connect attempt, poll-bounded by the deadline. Returns
/// the connected fd or -1 (caller retries with backoff).
int dial_endpoint(const SocketEndpoint& endpoint, int deadline_ms) {
  const IoDeadline deadline(deadline_ms);
  const bool is_unix = !endpoint.unix_path.empty();
  const int fd =
      ::socket(is_unix ? AF_UNIX : AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;

  int rc = 0;
  if (is_unix) {
    const sockaddr_un addr = unix_address(endpoint.unix_path);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } else {
    set_tcp_nodelay(fd);
    const sockaddr_in addr =
        tcp_address(endpoint.tcp_host, endpoint.tcp_port);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (rc != 0 && errno != EINPROGRESS) {
    // Includes EAGAIN on a Unix socket whose backlog is full: retryable.
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    while (true) {
      const int prc = ::poll(&pfd, 1, deadline.remaining_ms());
      if (prc < 0 && errno == EINTR && !deadline.expired()) continue;
      if (prc <= 0) {
        ::close(fd);
        return -1;
      }
      break;
    }
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

// --------------------------------------------------------------------------
// Framing

std::vector<std::byte> encode_frame(FrameKind kind,
                                    std::span<const std::byte> body) {
  const auto raw = static_cast<std::uint32_t>(kind);
  UFC_EXPECTS(raw >= 1 && raw <= 4);
  UFC_EXPECTS(body.size() <= kMaxFrameBytes);
  std::vector<std::byte> out;
  out.reserve(2 * sizeof(std::uint32_t) + body.size());
  wire::append(out, raw);
  wire::append(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void FrameReader::feed(std::span<const std::byte> bytes) {
  UFC_EXPECTS(bytes.data() != nullptr || bytes.empty());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameReader::next() {
  constexpr std::size_t kHeader = 2 * sizeof(std::uint32_t);
  if (buffered() < kHeader) return std::nullopt;
  std::size_t offset = consumed_;
  const auto kind = wire::read<std::uint32_t>(buffer_, offset);
  const auto length = wire::read<std::uint32_t>(buffer_, offset);
  // Header validation happens the moment 8 bytes are visible — a hostile
  // declared length is rejected before the body is allocated or awaited.
  UFC_EXPECTS(kind >= 1 && kind <= 4);
  UFC_EXPECTS(length <= kMaxFrameBytes);
  if (buffered() < kHeader + length) return std::nullopt;
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind);
  frame.body.assign(buffer_.begin() + static_cast<std::ptrdiff_t>(offset),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(offset + length));
  consumed_ = offset + length;
  // Compact once the dead prefix dominates, so a long-lived stream does not
  // grow the buffer without bound.
  if (consumed_ >= 65536 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return frame;
}

// ufc-lint: allow(expects-reach) — total encoder of local values;
// decode_hello_body carries the format contract for the pair.
std::vector<std::byte> encode_hello_body(std::uint32_t worker_index,
                                         std::span<const NodeId> nodes) {
  std::vector<std::byte> out;
  wire::append(out, worker_index);
  wire::append(out, static_cast<std::uint32_t>(nodes.size()));
  for (NodeId node : nodes) wire::append(out, node);
  return out;
}

HelloBody decode_hello_body(std::span<const std::byte> body) {
  std::size_t offset = 0;
  HelloBody hello;
  hello.worker_index = wire::read<std::uint32_t>(body, offset);
  const auto count = wire::read<std::uint32_t>(body, offset);
  // Exact-length check before allocation (mirrors message.cpp::deserialize).
  UFC_EXPECTS(body.size() - offset ==
              static_cast<std::size_t>(count) * sizeof(NodeId));
  hello.nodes.reserve(count);
  for (std::uint32_t k = 0; k < count; ++k)
    hello.nodes.push_back(wire::read<NodeId>(body, offset));
  return hello;
}

// ufc-lint: allow(expects-reach) — total encoder of local maps;
// decode_metrics_body carries the format contract for the pair.
std::vector<std::byte> encode_metrics_body(
    const std::map<std::string, std::uint64_t>& counters,
    const std::map<std::string, double>& gauges) {
  std::vector<std::byte> out;
  const auto append_key = [&out](const std::string& key) {
    wire::append(out, static_cast<std::uint32_t>(key.size()));
    for (char c : key) out.push_back(static_cast<std::byte>(c));
  };
  wire::append(out, static_cast<std::uint32_t>(counters.size()));
  for (const auto& [key, value] : counters) {
    append_key(key);
    wire::append(out, value);
  }
  wire::append(out, static_cast<std::uint32_t>(gauges.size()));
  for (const auto& [key, value] : gauges) {
    append_key(key);
    wire::append(out, value);
  }
  return out;
}

MetricsBody decode_metrics_body(std::span<const std::byte> body) {
  std::size_t offset = 0;
  const auto read_key = [&body, &offset]() {
    const auto len = wire::read<std::uint32_t>(body, offset);
    UFC_EXPECTS(body.size() - offset >= len);
    std::string key;
    key.reserve(len);
    for (std::uint32_t k = 0; k < len; ++k)
      key.push_back(static_cast<char>(body[offset + k]));
    offset += len;
    return key;
  };
  MetricsBody tables;
  const auto n_counters = wire::read<std::uint32_t>(body, offset);
  for (std::uint32_t k = 0; k < n_counters; ++k) {
    std::string key = read_key();
    tables.counters[std::move(key)] = wire::read<std::uint64_t>(body, offset);
  }
  const auto n_gauges = wire::read<std::uint32_t>(body, offset);
  for (std::uint32_t k = 0; k < n_gauges; ++k) {
    std::string key = read_key();
    tables.gauges[std::move(key)] = wire::read<double>(body, offset);
  }
  UFC_EXPECTS(offset == body.size());
  return tables;
}

// --------------------------------------------------------------------------
// SocketBus

struct SocketBus::Peer {
  int fd = -1;
  std::uint32_t worker_index = 0;
  bool hello_done = false;
  bool alive = true;
  /// Re-entrancy guard: a blocked write_all drains inbound frames, and a
  /// drained frame may ask to forward onto a peer that is itself mid-frame.
  /// Interleaving bytes into a half-written frame would corrupt the stream,
  /// so a nested write to a busy peer fails instead (a delivery failure the
  /// degraded protocol absorbs).
  bool writing = false;
  FrameReader reader;
  std::vector<NodeId> nodes;
};

SocketBus::SocketBus(SocketBusConfig config) : config_(std::move(config)) {
  // On a real network no fault plan is delivery-preserving, so the
  // unbounded-retry configuration the in-process bus allows is a contract
  // violation here: the attempt cap must be finite.
  UFC_EXPECTS(config_.max_attempts >= 1);
  UFC_EXPECTS(config_.connect_timeout_ms >= 0);
  UFC_EXPECTS(config_.io_timeout_ms >= 0);
  UFC_EXPECTS(!config_.local_nodes.empty());
  const bool is_unix = !config_.endpoint.unix_path.empty();
  if (!is_unix) {
    UFC_EXPECTS(config_.endpoint.tcp_port >= 0 &&
                config_.endpoint.tcp_port <= 65535);
  }
  if (!config_.hub) return;

  if (is_unix) {
    // A stale path from a crashed previous hub would make bind fail.
    (void)::unlink(config_.endpoint.unix_path.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) throw_errno("socket(AF_UNIX)");
    const sockaddr_un addr = unix_address(config_.endpoint.unix_path);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0)
      throw_errno("bind(" + config_.endpoint.unix_path + ")");
    owns_unix_path_ = true;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) throw_errno("socket(AF_INET)");
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
    sockaddr_in addr =
        tcp_address(config_.endpoint.tcp_host, config_.endpoint.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0)
      throw_errno("bind(tcp)");
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0)
      throw_errno("getsockname");
    bound_tcp_port_ = ntohs(addr.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) throw_errno("listen");
}

SocketBus::~SocketBus() {
  for (auto& peer : peers_)
    if (peer->fd >= 0) ::close(peer->fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (owns_unix_path_) (void)::unlink(config_.endpoint.unix_path.c_str());
}

void SocketBus::close_for_child() {
  for (auto& peer : peers_)
    if (peer->fd >= 0) ::close(peer->fd);
  peers_.clear();
  node_owner_.clear();
  queues_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The parent keeps the endpoint; the child must not unlink it on exit.
  owns_unix_path_ = false;
}

bool SocketBus::is_local(NodeId node) const {
  return std::find(config_.local_nodes.begin(), config_.local_nodes.end(),
                   node) != config_.local_nodes.end();
}

void SocketBus::begin_round(int round) { UFC_EXPECTS(round >= 0); }

SocketBus::Peer* SocketBus::peer_for(NodeId destination) {
  if (!config_.hub) {
    // Workers have exactly one stream: everything remote goes via the hub.
    return peers_.empty() || !peers_.front()->alive ? nullptr
                                                    : peers_.front().get();
  }
  const auto it = node_owner_.find(destination);
  if (it == node_owner_.end()) return nullptr;
  Peer* peer = peers_[it->second].get();
  return peer->alive ? peer : nullptr;
}

SendOutcome SocketBus::send(Message message) {
  UFC_EXPECTS(message.source >= kCoordinatorId);
  UFC_EXPECTS(message.destination >= kCoordinatorId);
  auto& link = links_[{message.source, message.destination}];

  if (is_local(message.destination)) {
    // Local short-circuit: same codec round-trip and byte accounting as the
    // in-process bus, no socket involved.
    auto wire_bytes = serialize(message);
    link.bytes += wire_bytes.size();
    total_.bytes += wire_bytes.size();
    Message delivered = deserialize(wire_bytes);
    queues_[delivered.destination].push_back(std::move(delivered));
    ++link.messages;
    ++total_.messages;
    return SendOutcome::Delivered;
  }

  if (!config_.hub && (peers_.empty() || !peers_.front()->alive)) {
    if (!connect_to_hub(config_.connect_timeout_ms)) {
      ++link.delivery_failures;
      ++total_.delivery_failures;
      return SendOutcome::Failed;
    }
  }
  Peer* peer = peer_for(message.destination);
  if (peer == nullptr) {
    ++link.delivery_failures;
    ++total_.delivery_failures;
    return SendOutcome::Failed;
  }

  const auto frame = encode_frame(FrameKind::Data, serialize(message));
  link.bytes += frame.size();
  total_.bytes += frame.size();
  if (!write_all(*peer, frame, config_.io_timeout_ms)) {
    ++link.delivery_failures;
    ++total_.delivery_failures;
    return SendOutcome::Failed;
  }
  ++link.messages;
  ++total_.messages;
  return SendOutcome::Delivered;
}

std::optional<Message> SocketBus::receive(NodeId destination) {
  UFC_EXPECTS(destination >= kCoordinatorId);
  auto it = queues_.find(destination);
  if (it == queues_.end() || it->second.empty()) return std::nullopt;
  Message message = std::move(it->second.front());
  it->second.pop_front();
  return message;
}

std::vector<Message> SocketBus::drain(NodeId destination) {
  UFC_EXPECTS(destination >= kCoordinatorId);
  std::vector<Message> messages;
  auto it = queues_.find(destination);
  if (it == queues_.end()) return messages;
  messages.assign(std::make_move_iterator(it->second.begin()),
                  std::make_move_iterator(it->second.end()));
  it->second.clear();
  return messages;
}

std::size_t SocketBus::pending(NodeId destination) const {
  UFC_EXPECTS(destination >= kCoordinatorId);
  auto it = queues_.find(destination);
  return it == queues_.end() ? 0 : it->second.size();
}

std::size_t SocketBus::poll_pending(NodeId destination, int deadline_ms) {
  UFC_EXPECTS(deadline_ms >= 0);
  const IoDeadline deadline(deadline_ms);
  while (pending(destination) == 0) {
    pump(deadline.remaining_ms());
    if (deadline.expired()) break;
  }
  return pending(destination);
}

std::int32_t SocketBus::max_pending_iteration(NodeId destination) const {
  UFC_EXPECTS(destination >= kCoordinatorId);
  const auto it = queues_.find(destination);
  std::int32_t newest = -1;
  if (it == queues_.end()) return newest;
  for (const Message& message : it->second)
    newest = std::max(newest, message.iteration);
  return newest;
}

void SocketBus::clear_queues() { queues_.clear(); }

void SocketBus::mark_dead(Peer& peer) {
  if (!peer.alive) return;
  peer.alive = false;
  if (peer.fd >= 0) {
    ::close(peer.fd);
    peer.fd = -1;
  }
  for (NodeId node : peer.nodes) {
    newly_disconnected_.push_back(node);
    node_owner_.erase(node);
  }
}

std::vector<NodeId> SocketBus::take_newly_disconnected() {
  std::vector<NodeId> out;
  out.swap(newly_disconnected_);
  std::sort(out.begin(), out.end());
  return out;
}

bool SocketBus::write_all(Peer& peer, std::span<const std::byte> bytes,
                          int deadline_ms) {
  if (!peer.alive || peer.writing) return false;
  peer.writing = true;
  const IoDeadline deadline(deadline_ms);
  std::size_t written = 0;
  bool ok = true;
  while (written < bytes.size()) {
    const ssize_t n = ::send(peer.fd, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The send buffer is full. If the peer is itself mid-write toward us
      // (both directions flooded), waiting on POLLOUT alone deadlocks both
      // sides: neither reads, so neither buffer ever drains. Wait for
      // writability OR readability and drain inbound bytes while blocked —
      // the read is what frees the peer's send buffer and unsticks the
      // cycle.
      pollfd pfd{peer.fd, POLLIN | POLLOUT, 0};
      const int rc = ::poll(&pfd, 1, deadline.remaining_ms());
      if (rc < 0 && errno == EINTR && !deadline.expired()) continue;
      if (rc <= 0) {
        // Deadline elapsed. A partially written frame leaves the stream
        // unframeable, so the peer is unusable from here on.
        if (written > 0) mark_dead(peer);
        ok = false;
        break;
      }
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          (pfd.revents & POLLOUT) == 0) {
        (void)drain_fd(peer);
        if (!peer.alive) {
          ok = false;
          break;
        }
      }
      continue;
    }
    // EPIPE / ECONNRESET / anything else: the peer is gone.
    mark_dead(peer);
    ok = false;
    break;
  }
  peer.writing = false;
  return ok;
}

void SocketBus::dispatch(Peer& peer, Frame frame) {
  switch (frame.kind) {
    case FrameKind::Hello: {
      UFC_EXPECTS(config_.hub);
      const HelloBody hello = decode_hello_body(frame.body);
      peer.worker_index = hello.worker_index;
      peer.nodes = hello.nodes;
      peer.hello_done = true;
      const std::size_t index = [&] {
        for (std::size_t k = 0; k < peers_.size(); ++k)
          if (peers_[k].get() == &peer) return k;
        return peers_.size();
      }();
      UFC_EXPECTS(index < peers_.size());
      for (NodeId node : hello.nodes) {
        UFC_EXPECTS(!is_local(node));
        node_owner_[node] = index;
      }
      return;
    }
    case FrameKind::Data: {
      Message message = deserialize(frame.body);
      if (is_local(message.destination)) {
        queues_[message.destination].push_back(std::move(message));
        return;
      }
      // Only the hub routes between peers; a worker getting a frame for a
      // node it does not host means the hub's routing table is broken.
      UFC_EXPECTS(config_.hub);
      Peer* target = peer_for(message.destination);
      if (target == nullptr) {
        ++total_.delivery_failures;
        return;
      }
      const auto forwarded = encode_frame(FrameKind::Data, frame.body);
      total_.bytes += forwarded.size();
      if (write_all(*target, forwarded, config_.io_timeout_ms))
        ++total_.messages;
      else
        ++total_.delivery_failures;
      return;
    }
    case FrameKind::Metrics: {
      UFC_EXPECTS(config_.hub);
      WorkerMetrics metrics;
      metrics.worker_index = peer.worker_index;
      metrics.tables = decode_metrics_body(frame.body);
      worker_metrics_.push_back(std::move(metrics));
      return;
    }
    case FrameKind::Shutdown: {
      UFC_EXPECTS(!config_.hub);
      shutdown_requested_ = true;
      return;
    }
  }
  UFC_EXPECTS(false);  // FrameReader only yields the four known kinds.
}

std::size_t SocketBus::drain_fd(Peer& peer) {
  std::size_t dispatched = 0;
  std::array<std::byte, 16384> chunk;
  while (peer.alive) {
    const ssize_t n = ::recv(peer.fd, chunk.data(), chunk.size(), 0);
    if (n > 0) {
      peer.reader.feed({chunk.data(), static_cast<std::size_t>(n)});
      while (auto frame = peer.reader.next()) {
        dispatch(peer, std::move(*frame));
        ++dispatched;
      }
      if (static_cast<std::size_t>(n) < chunk.size()) break;
      continue;
    }
    if (n == 0) {
      // Orderly EOF: the peer process exited or was killed.
      mark_dead(peer);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    // ECONNRESET and friends: the peer crashed mid-stream.
    mark_dead(peer);
    break;
  }
  return dispatched;
}

void SocketBus::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: backlog drained. Anything else: try again next pump.
    }
    if (config_.endpoint.unix_path.empty()) set_tcp_nodelay(fd);
    auto peer = std::make_unique<Peer>();
    peer->fd = fd;
    peers_.push_back(std::move(peer));
  }
}

bool SocketBus::pump(int deadline_ms) {
  UFC_EXPECTS(deadline_ms >= 0);
  const IoDeadline deadline(deadline_ms);
  std::size_t dispatched = 0;
  bool first_wait = true;
  while (true) {
    std::vector<pollfd> fds;
    std::vector<Peer*> fd_peers;
    if (listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_peers.push_back(nullptr);
    }
    for (auto& peer : peers_) {
      if (!peer->alive) continue;
      fds.push_back({peer->fd, POLLIN, 0});
      fd_peers.push_back(peer.get());
    }
    if (fds.empty()) {
      // Nothing to read from (worker not yet connected): sleep out the
      // deadline instead of spinning.
      (void)::poll(nullptr, 0, deadline.remaining_ms());
      return false;
    }
    // Wait (at most once) for the first readable fd; afterwards only drain
    // what is already there.
    const int timeout = first_wait ? deadline.remaining_ms() : 0;
    first_wait = false;
    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
    if (rc < 0) {
      if (errno == EINTR && !deadline.expired()) {
        first_wait = dispatched == 0;
        continue;
      }
      return dispatched > 0;
    }
    if (rc == 0) return dispatched > 0;
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (fd_peers[k] == nullptr)
        accept_ready();
      else
        dispatched += drain_fd(*fd_peers[k]);
    }
  }
}

std::size_t SocketBus::connected_workers() const {
  std::size_t count = 0;
  for (const auto& peer : peers_)
    if (peer->alive && peer->hello_done) ++count;
  return count;
}

std::size_t SocketBus::wait_for_workers(std::size_t count, int deadline_ms) {
  UFC_EXPECTS(config_.hub);
  const IoDeadline deadline(deadline_ms);
  while (connected_workers() < count && !deadline.expired())
    pump(deadline.remaining_ms());
  return connected_workers();
}

void SocketBus::send_shutdown(int deadline_ms) {
  UFC_EXPECTS(config_.hub);
  const auto frame = encode_frame(FrameKind::Shutdown, {});
  for (auto& peer : peers_) {
    if (!peer->alive || !peer->hello_done) continue;
    total_.bytes += frame.size();
    (void)write_all(*peer, frame, deadline_ms);
  }
}

std::vector<SocketBus::WorkerMetrics> SocketBus::take_worker_metrics() {
  std::vector<WorkerMetrics> out;
  out.swap(worker_metrics_);
  std::sort(out.begin(), out.end(),
            [](const WorkerMetrics& a, const WorkerMetrics& b) {
              return a.worker_index < b.worker_index;
            });
  return out;
}

int SocketBus::bound_tcp_port() const {
  UFC_EXPECTS(config_.hub && config_.endpoint.unix_path.empty());
  return bound_tcp_port_;
}

bool SocketBus::hub_connected() const {
  return !config_.hub && !peers_.empty() && peers_.front()->alive;
}

bool SocketBus::connect_to_hub(int deadline_ms) {
  UFC_EXPECTS(!config_.hub);
  if (hub_connected()) return true;
  peers_.clear();
  const IoDeadline deadline(deadline_ms);
  for (int attempt = 1; attempt <= config_.max_attempts; ++attempt) {
    const int per_attempt =
        std::min(config_.connect_timeout_ms, deadline.remaining_ms());
    const int fd = dial_endpoint(config_.endpoint, per_attempt);
    if (fd >= 0) {
      auto peer = std::make_unique<Peer>();
      peer->fd = fd;
      peers_.push_back(std::move(peer));
      const auto hello = encode_frame(
          FrameKind::Hello,
          encode_hello_body(config_.worker_index, config_.local_nodes));
      total_.bytes += hello.size();
      if (write_all(*peers_.front(), hello, config_.io_timeout_ms))
        return true;
      peers_.clear();
    }
    ++total_.retransmissions;
    if (attempt == config_.max_attempts || deadline.expired()) break;
    // Same capped exponential accounting as the in-process bus, plus a
    // short real wait so a hub that is still binding gets a chance.
    total_.backoff_rounds += backoff_rounds_before_retry(attempt);
    const int wait_ms = std::min(1 << std::min(attempt - 1, 6),
                                 deadline.remaining_ms());
    (void)::poll(nullptr, 0, wait_ms);
  }
  return false;
}

SendOutcome SocketBus::send_metrics(
    const std::map<std::string, std::uint64_t>& counters,
    const std::map<std::string, double>& gauges, int deadline_ms) {
  UFC_EXPECTS(!config_.hub);
  if (!hub_connected() && !connect_to_hub(config_.connect_timeout_ms))
    return SendOutcome::Failed;
  const auto frame =
      encode_frame(FrameKind::Metrics, encode_metrics_body(counters, gauges));
  total_.bytes += frame.size();
  if (!write_all(*peers_.front(), frame, deadline_ms))
    return SendOutcome::Failed;
  ++total_.messages;
  return SendOutcome::Delivered;
}

}  // namespace ufc::net
