#include "shard/router.h"

#include <cstring>

#include "common/check.h"

namespace condensa::shard {
namespace {

// SplitMix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Router::Router(RouterOptions options) : options_(options) {
  CONDENSA_CHECK_GE(options_.num_shards, 1u);
}

std::uint64_t Router::HashRecord(const linalg::Vector& record) {
  std::uint64_t hash = Mix64(record.dim());
  for (std::size_t i = 0; i < record.dim(); ++i) {
    std::uint64_t bits = 0;
    const double value = record[i];
    std::memcpy(&bits, &value, sizeof(bits));
    hash = Mix64(hash ^ bits);
  }
  return hash;
}

std::size_t Router::ShardOf(const linalg::Vector& record,
                            std::size_t index) const {
  if (options_.num_shards == 1) return 0;
  switch (options_.policy) {
    case ShardPolicy::kRoundRobin:
      return index % options_.num_shards;
    case ShardPolicy::kHash:
      return static_cast<std::size_t>(HashRecord(record) %
                                      options_.num_shards);
  }
  return 0;  // unreachable
}

std::size_t Router::ShardAmong(
    const linalg::Vector& record, std::size_t index,
    const std::vector<std::size_t>& members) const {
  CONDENSA_CHECK(!members.empty());
  if (members.size() == 1) return members[0];
  switch (options_.policy) {
    case ShardPolicy::kRoundRobin:
      return members[index % members.size()];
    case ShardPolicy::kHash:
      return members[static_cast<std::size_t>(HashRecord(record) %
                                              members.size())];
  }
  return members[0];  // unreachable
}

std::size_t Router::Route(const linalg::Vector& record) {
  const std::size_t index =
      next_index_.fetch_add(1, std::memory_order_relaxed);
  return ShardOf(record, index);
}

std::vector<std::vector<linalg::Vector>> Router::Scatter(
    const std::vector<linalg::Vector>& records) const {
  std::vector<std::vector<linalg::Vector>> partitions(options_.num_shards);
  if (options_.num_shards > 1) {
    // Pre-size: round-robin is exact, hash is approximately uniform.
    const std::size_t expected =
        records.size() / options_.num_shards + 1;
    for (auto& partition : partitions) {
      partition.reserve(expected);
    }
  } else if (!partitions.empty()) {
    partitions[0].reserve(records.size());
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    partitions[ShardOf(records[i], i)].push_back(records[i]);
  }
  return partitions;
}

std::vector<Rng> Router::SplitStreams(Rng& rng, std::size_t num_shards) {
  std::vector<Rng> streams;
  streams.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    streams.push_back(rng.Split());
  }
  return streams;
}

std::vector<std::uint64_t> Router::ShardSeeds(std::uint64_t seed,
                                              std::size_t num_shards) {
  Rng root(seed);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(num_shards);
  for (Rng& stream : SplitStreams(root, num_shards)) {
    seeds.push_back(stream.NextUint64());
  }
  return seeds;
}

}  // namespace condensa::shard
