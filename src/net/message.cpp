#include "net/message.hpp"

#include "util/contract.hpp"
#include "util/wire.hpp"

namespace ufc::net {

namespace {

// Node-id layout: front-end i -> i, datacenter j -> kDatacenterBase + j.
constexpr NodeId kDatacenterBase = 1 << 20;

// Fixed-size message header: source, destination, type, iteration, count.
constexpr std::size_t kHeaderBytes = sizeof(NodeId) * 2 +
                                     sizeof(std::uint8_t) +
                                     sizeof(std::int32_t) +
                                     sizeof(std::uint32_t);

}  // namespace

NodeId front_end_id(std::size_t i) {
  UFC_EXPECTS(i < static_cast<std::size_t>(kDatacenterBase));
  return static_cast<NodeId>(i);
}

NodeId datacenter_id(std::size_t j) {
  UFC_EXPECTS(j < static_cast<std::size_t>(kDatacenterBase));
  return kDatacenterBase + static_cast<NodeId>(j);
}

// ufc-lint: allow(expects-reach) — total predicate over every NodeId;
// front_end_index guards on it.
bool is_front_end(NodeId id) { return id >= 0 && id < kDatacenterBase; }

// ufc-lint: allow(expects-reach) — total predicate over every NodeId;
// datacenter_index guards on it.
bool is_datacenter(NodeId id) { return id >= kDatacenterBase; }

std::size_t front_end_index(NodeId id) {
  UFC_EXPECTS(is_front_end(id));
  return static_cast<std::size_t>(id);
}

std::size_t datacenter_index(NodeId id) {
  UFC_EXPECTS(is_datacenter(id));
  return static_cast<std::size_t>(id - kDatacenterBase);
}

// ufc-lint: allow(expects-reach) — total: every in-memory Message has a
// size; deserialize checks the length of bytes that arrive.
std::size_t wire_size(const Message& message) {
  return kHeaderBytes + message.payload.size() * sizeof(double);
}

// ufc-lint: allow(expects-reach) — total encoder: every in-memory Message
// serializes; deserialize carries the format contract for the pair.
std::vector<std::byte> serialize(const Message& message) {
  std::vector<std::byte> out;
  out.reserve(wire_size(message));
  wire::append(out, message.source);
  wire::append(out, message.destination);
  wire::append(out, static_cast<std::uint8_t>(message.type));
  wire::append(out, message.iteration);
  wire::append(out, static_cast<std::uint32_t>(message.payload.size()));
  wire::append_f64s(out, message.payload);
  return out;
}

// Hardened against arbitrary (truncated, mutated, adversarial) byte strings:
// every branch either throws ContractViolation or produces a well-formed
// Message. The fuzz tests feed random mutations of valid frames through here
// under ASan/UBSan to keep this promise honest.
Message deserialize(std::span<const std::byte> bytes) {
  UFC_EXPECTS(bytes.size() >= kHeaderBytes);
  std::size_t offset = 0;
  Message message;
  message.source = wire::read<NodeId>(bytes, offset);
  message.destination = wire::read<NodeId>(bytes, offset);
  const auto type = wire::read<std::uint8_t>(bytes, offset);
  UFC_EXPECTS(type >= 1 && type <= 4);
  message.type = static_cast<MessageType>(type);
  message.iteration = wire::read<std::int32_t>(bytes, offset);
  const auto count = wire::read<std::uint32_t>(bytes, offset);
  // Exact-length check before any allocation, phrased so a garbage `count`
  // cannot overflow the arithmetic (count <= 2^32 - 1, so count * 8 fits in
  // 64 bits) or trigger a multi-gigabyte reserve.
  UFC_EXPECTS(bytes.size() - offset ==
              static_cast<std::size_t>(count) * sizeof(double));
  message.payload.resize(count);
  wire::read_f64s(bytes, offset, message.payload);
  return message;
}

}  // namespace ufc::net
