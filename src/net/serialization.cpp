#include "net/serialization.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/assert.hpp"

namespace hermes::net {

namespace {
constexpr std::uint32_t kTopoMagic = 0x544f5031;  // "TOP1"

std::uint64_t quantize(double ms) {
  return static_cast<std::uint64_t>(ms * 1000.0 + 0.5);  // 1 us resolution
}
double dequantize(std::uint64_t q) { return static_cast<double>(q) / 1000.0; }
}  // namespace

hermes::Bytes serialize_topology(const Topology& topo) {
  hermes::Bytes out;
  hermes::put_u32_be(out, kTopoMagic);
  hermes::put_varint(out, topo.graph.node_count());
  for (Region r : topo.regions) {
    out.push_back(static_cast<std::uint8_t>(r));
  }
  hermes::put_varint(out, topo.graph.edge_count());
  for (NodeId v = 0; v < topo.graph.node_count(); ++v) {
    for (const Edge& e : topo.graph.neighbors(v)) {
      if (e.to < v) continue;  // each undirected edge once
      hermes::put_varint(out, v);
      hermes::put_varint(out, e.to);
      hermes::put_varint(out, quantize(e.latency_ms));
    }
  }
  return out;
}

std::optional<Topology> deserialize_topology(hermes::BytesView bytes) {
  if (bytes.size() < 4 || hermes::get_u32_be(bytes, 0) != kTopoMagic) {
    return std::nullopt;
  }
  std::size_t off = 4;
  std::uint64_t n = 0;
  if (!hermes::get_varint(bytes, &off, &n) || n == 0) return std::nullopt;
  // One region byte per node follows: check before sizing anything by n.
  if (n > bytes.size() - off) return std::nullopt;
  Topology topo;
  topo.graph = Graph(static_cast<std::size_t>(n));
  topo.regions.resize(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint8_t r = bytes[off++];
    if (r >= kRegionCount) return std::nullopt;
    topo.regions[i] = static_cast<Region>(r);
  }
  std::uint64_t edges = 0;
  if (!hermes::get_varint(bytes, &off, &edges)) return std::nullopt;
  for (std::uint64_t i = 0; i < edges; ++i) {
    std::uint64_t a = 0, b = 0, q = 0;
    if (!hermes::get_varint(bytes, &off, &a)) return std::nullopt;
    if (!hermes::get_varint(bytes, &off, &b)) return std::nullopt;
    if (!hermes::get_varint(bytes, &off, &q)) return std::nullopt;
    if (a >= n || b >= n || a == b || q == 0) return std::nullopt;
    topo.graph.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b),
                        dequantize(q));
  }
  if (off != bytes.size()) return std::nullopt;
  return topo;
}

bool save_topology(const Topology& topo, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const hermes::Bytes bytes = serialize_topology(topo);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<Topology> load_topology(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return deserialize_topology(hermes::BytesView(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

std::optional<Topology> topology_from_csv(const std::string& csv_text) {
  struct PendingEdge {
    std::uint64_t a, b;
    double latency;
  };
  std::vector<PendingEdge> edges;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> region_overrides;
  std::vector<std::uint64_t> ids;  // every id any line names
  bool any = false;

  std::istringstream stream(csv_text);
  std::string line;
  while (std::getline(stream, line)) {
    // Strip comments and whitespace-only lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    std::istringstream fields(line);
    std::string first;
    if (!std::getline(fields, first, ',')) return std::nullopt;
    if (first == "region") {
      std::string id_str, region_str;
      if (!std::getline(fields, id_str, ',')) return std::nullopt;
      if (!std::getline(fields, region_str, ',')) return std::nullopt;
      try {
        const std::uint64_t id = std::stoull(id_str);
        const std::uint64_t region = std::stoull(region_str);
        if (region >= kRegionCount) return std::nullopt;
        region_overrides.emplace_back(id, region);
        ids.push_back(id);
      } catch (...) {
        return std::nullopt;
      }
      continue;
    }
    std::string b_str, lat_str;
    if (!std::getline(fields, b_str, ',')) return std::nullopt;
    if (!std::getline(fields, lat_str, ',')) return std::nullopt;
    try {
      PendingEdge e{std::stoull(first), std::stoull(b_str), std::stod(lat_str)};
      if (e.a == e.b || !std::isfinite(e.latency) || e.latency <= 0.0) {
        return std::nullopt;
      }
      ids.push_back(e.a);
      ids.push_back(e.b);
      edges.push_back(e);
      any = true;
    } catch (...) {
      return std::nullopt;
    }
  }
  if (!any) return std::nullopt;
  // The ids must be exactly 0..max, as topology_to_csv writes them: the
  // node count is then bounded by the input, and no id outgrows NodeId.
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const std::uint64_t max_id = ids.back();
  if (max_id != ids.size() - 1 ||
      max_id >= std::numeric_limits<NodeId>::max()) {
    return std::nullopt;
  }

  Topology topo;
  topo.graph = Graph(static_cast<std::size_t>(max_id + 1));
  topo.regions.resize(static_cast<std::size_t>(max_id + 1));
  for (std::uint64_t i = 0; i <= max_id; ++i) {
    topo.regions[i] = static_cast<Region>(i % kRegionCount);
  }
  for (const auto& [id, region] : region_overrides) {
    topo.regions[id] = static_cast<Region>(region);
  }
  for (const PendingEdge& e : edges) {
    topo.graph.add_edge(static_cast<NodeId>(e.a), static_cast<NodeId>(e.b),
                        e.latency);
  }
  return topo;
}

std::string topology_to_csv(const Topology& topo) {
  std::ostringstream out;
  out << "# hermes topology: " << topo.graph.node_count() << " nodes, "
      << topo.graph.edge_count() << " edges\n";
  for (NodeId v = 0; v < topo.graph.node_count(); ++v) {
    out << "region," << v << ','
        << static_cast<unsigned>(topo.regions[v]) << '\n';
  }
  for (NodeId v = 0; v < topo.graph.node_count(); ++v) {
    for (const Edge& e : topo.graph.neighbors(v)) {
      if (e.to < v) continue;
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "%u,%u,%.3f", v, e.to, e.latency_ms);
      out << buffer << '\n';
    }
  }
  return out.str();
}

}  // namespace hermes::net
