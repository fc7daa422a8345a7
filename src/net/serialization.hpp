// Topology persistence and external latency data.
//
// The paper drives its latency model from CAIDA / RIPE Atlas / cloud
// provider measurements. This module lets a deployment do the same: load a
// pairwise latency matrix from CSV (one "a,b,latency_ms" triple per line)
// and build the physical graph from it, or save/load a synthesized
// topology so that an experiment's exact world can be archived and
// replayed.
#pragma once

#include <optional>
#include <string>

#include "net/topology.hpp"
#include "support/bytes.hpp"

namespace hermes::net {

// Compact binary encoding of a Topology (magic, regions, edges). The
// decoder returns nullopt on malformed input, including a zero latency.
hermes::Bytes serialize_topology(const Topology& topo);
std::optional<Topology> deserialize_topology(hermes::BytesView bytes);

// File convenience wrappers. Return false / nullopt on I/O failure.
bool save_topology(const Topology& topo, const std::string& path);
std::optional<Topology> load_topology(const std::string& path);

// Parses CSV latency data: lines of "node_a,node_b,latency_ms" (0-based
// ids, '#' comments and blank lines ignored). Node count is 1 + the
// largest id seen, and every id below it must appear in some line. Every
// listed pair becomes an edge with a finite, positive latency; regions are
// assigned round-robin unless a "region,<id>,<region_index>" line
// overrides them. Returns nullopt on malformed input.
std::optional<Topology> topology_from_csv(const std::string& csv_text);

// Renders a topology to the CSV dialect above (edges + region lines).
std::string topology_to_csv(const Topology& topo);

}  // namespace hermes::net
