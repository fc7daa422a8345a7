// hermes_cli — operator tooling around the library:
//
//   hermes_cli topo gen --nodes N [--seed S] [--min-degree D] --out FILE
//       Synthesize a physical topology (paper's 9-region latency model) and
//       save it (.csv for the human-readable dialect, anything else binary).
//
//   hermes_cli topo info FILE
//       Node/edge/region statistics, connectivity, latency summary.
//
//   hermes_cli overlay build FILE --f F --k K [--seed S] [--no-anneal]
//       Build the k optimized robust-tree overlays over a saved topology,
//       validate them, and print per-overlay structure plus fairness.
//
//   hermes_cli overlay encode FILE --f F [--seed S] --out ENC
//       Build one overlay and write its compact wire encoding (what the
//       committee signs, Algorithm 5).
//
//   hermes_cli overlay decode ENC
//       Decode + validate an overlay encoding.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "net/connectivity.hpp"
#include "net/serialization.hpp"
#include "overlay/builder.hpp"
#include "overlay/encoding.hpp"
#include "overlay/families.hpp"
#include "overlay/roles.hpp"
#include "support/stats.hpp"

namespace {

using namespace hermes;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hermes_cli topo gen --nodes N [--seed S] [--min-degree D] "
               "--out FILE\n"
               "  hermes_cli topo info FILE\n"
               "  hermes_cli overlay build FILE --f F --k K [--seed S] "
               "[--no-anneal]\n"
               "  hermes_cli overlay encode FILE --f F [--seed S] --out ENC\n"
               "  hermes_cli overlay decode ENC\n");
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  std::size_t nodes = 100;
  std::size_t min_degree = 5;
  std::size_t f = 1;
  std::size_t k = 4;
  std::uint64_t seed = 42;
  std::string out;
  bool no_anneal = false;

  // nullopt when a numeric flag's value is not a whole decimal number.
  static std::optional<Args> parse(int argc, char** argv, int start) {
    Args args;
    bool ok = true;
    for (int i = start; i < argc && ok; ++i) {
      auto value = [&](const char* flag) -> const char* {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
        return nullptr;
      };
      if (const char* v = value("--nodes")) ok = number(v, args.nodes);
      else if (const char* v2 = value("--min-degree")) ok = number(v2, args.min_degree);
      else if (const char* v3 = value("--f")) ok = number(v3, args.f);
      else if (const char* v4 = value("--k")) ok = number(v4, args.k);
      else if (const char* v5 = value("--seed")) ok = number(v5, args.seed);
      else if (const char* v6 = value("--out")) args.out = v6;
      else if (std::strcmp(argv[i], "--no-anneal") == 0) args.no_anneal = true;
      else args.positional.push_back(argv[i]);
    }
    if (!ok) return std::nullopt;
    return args;
  }

 private:
  template <typename T>
  static bool number(const char* text, T& out) {
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, out);
    return ec == std::errc() && ptr == end && ptr != text;
  }
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::optional<net::Topology> load_any(const std::string& path) {
  if (ends_with(path, ".csv")) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return net::topology_from_csv(text);
  }
  return net::load_topology(path);
}

int topo_gen(const Args& args) {
  if (args.out.empty() || args.nodes < 2) return usage();
  net::TopologyParams params;
  params.node_count = args.nodes;
  params.min_degree = args.min_degree;
  Rng rng(args.seed);
  const net::Topology topo = net::make_topology(params, rng);
  bool ok;
  if (ends_with(args.out, ".csv")) {
    std::ofstream out(args.out);
    out << net::topology_to_csv(topo);
    ok = static_cast<bool>(out);
  } else {
    ok = net::save_topology(topo, args.out);
  }
  if (!ok) {
    std::fprintf(stderr, "error: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu nodes, %zu edges (seed %llu)\n", args.out.c_str(),
              topo.graph.node_count(), topo.graph.edge_count(),
              static_cast<unsigned long long>(args.seed));
  return 0;
}

int topo_info(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto topo = load_any(args.positional[0]);
  if (!topo) {
    std::fprintf(stderr, "error: cannot load %s\n", args.positional[0].c_str());
    return 1;
  }
  std::printf("nodes: %zu\nedges: %zu\nconnected: %s\n",
              topo->graph.node_count(), topo->graph.edge_count(),
              topo->graph.is_connected() ? "yes" : "no");
  if (topo->graph.node_count() <= 512) {
    std::printf("vertex connectivity: %zu\n",
                net::vertex_connectivity(topo->graph));
  }
  std::vector<double> latencies;
  std::size_t min_deg = SIZE_MAX, max_deg = 0;
  for (net::NodeId v = 0; v < topo->graph.node_count(); ++v) {
    min_deg = std::min(min_deg, topo->graph.degree(v));
    max_deg = std::max(max_deg, topo->graph.degree(v));
    for (const net::Edge& e : topo->graph.neighbors(v)) {
      if (e.to > v) latencies.push_back(e.latency_ms);
    }
  }
  const Summary s = summarize(std::move(latencies));
  std::printf("degree: min %zu, max %zu\n", min_deg, max_deg);
  std::printf("link latency ms: mean %.2f, p5 %.2f, p50 %.2f, p95 %.2f\n",
              s.mean, s.p5, s.p50, s.p95);
  std::size_t counts[net::kRegionCount] = {};
  for (net::Region r : topo->regions) counts[static_cast<std::size_t>(r)]++;
  std::printf("regions:");
  for (std::size_t i = 0; i < net::kRegionCount; ++i) {
    std::printf(" %s=%zu",
                std::string(net::region_name(static_cast<net::Region>(i))).c_str(),
                counts[i]);
  }
  std::printf("\n");
  return 0;
}

int overlay_build(const Args& args) {
  if (args.positional.empty() || args.k == 0) return usage();
  const auto topo = load_any(args.positional[0]);
  if (!topo) {
    std::fprintf(stderr, "error: cannot load %s\n", args.positional[0].c_str());
    return 1;
  }
  // A tree needs f + 1 entry points and one node below them.
  if (topo->graph.node_count() < args.f + 2) return usage();
  overlay::BuilderParams params;
  params.f = args.f;
  params.k = args.k;
  params.optimize = !args.no_anneal;
  Rng rng(args.seed);
  const auto set = overlay::build_overlay_set(topo->graph, params, rng);
  for (std::size_t l = 0; l < set.overlays.size(); ++l) {
    const auto& ov = set.overlays[l];
    const auto errors = ov.validate();
    const auto flood = overlay::measure_overlay_flood(ov);
    std::printf("overlay %zu: depth %zu, %zu links, flood %.1f ms, %s",
                l, ov.max_depth(), ov.edge_count(), flood.avg_latency,
                errors.empty() ? "valid" : "INVALID");
    std::printf(", entries:");
    for (net::NodeId e : ov.entry_points()) std::printf(" %u", e);
    std::printf("\n");
    for (const auto& err : errors) std::printf("  ! %s\n", err.c_str());
  }
  const auto fairness = overlay::fairness_metrics(set.overlays);
  std::printf("fairness: mean-depth stddev %.3f, max entry repeats %zu, "
              "load stddev %.2f\n",
              fairness.mean_depth_stddev, fairness.max_entry_appearances,
              fairness.load_stddev);
  return 0;
}

int overlay_encode(const Args& args) {
  if (args.positional.empty() || args.out.empty()) return usage();
  const auto topo = load_any(args.positional[0]);
  if (!topo) {
    std::fprintf(stderr, "error: cannot load %s\n", args.positional[0].c_str());
    return 1;
  }
  if (topo->graph.node_count() < args.f + 2) return usage();
  overlay::RankTable ranks(topo->graph.node_count(), 0.0);
  const overlay::Overlay ov =
      overlay::build_robust_tree(topo->graph, args.f, ranks);
  const Bytes encoded = overlay::encode_overlay(ov);
  std::ofstream out(args.out, std::ios::binary);
  out.write(reinterpret_cast<const char*>(encoded.data()),
            static_cast<std::streamsize>(encoded.size()));
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu bytes (%zu nodes, %zu links, %.1f bytes/link)\n",
              args.out.c_str(), encoded.size(), ov.node_count(),
              ov.edge_count(),
              static_cast<double>(encoded.size()) /
                  static_cast<double>(ov.edge_count()));
  return 0;
}

int overlay_decode(const Args& args) {
  if (args.positional.empty()) return usage();
  std::ifstream in(args.positional[0], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", args.positional[0].c_str());
    return 1;
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto ov = overlay::decode_overlay(
      BytesView(reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  if (!ov) {
    std::fprintf(stderr, "error: not a valid overlay encoding\n");
    return 1;
  }
  const auto errors = ov->validate();
  std::printf("decoded: %zu nodes, f=%zu, depth %zu, %zu links — %s\n",
              ov->node_count(), ov->f(), ov->max_depth(), ov->edge_count(),
              errors.empty() ? "structurally valid" : "INVALID");
  for (const auto& err : errors) std::printf("  ! %s\n", err.c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string domain = argv[1];
  const std::string verb = argv[2];
  const std::optional<Args> parsed = Args::parse(argc, argv, 3);
  if (!parsed) return usage();
  const Args& args = *parsed;
  if (domain == "topo" && verb == "gen") return topo_gen(args);
  if (domain == "topo" && verb == "info") return topo_info(args);
  if (domain == "overlay" && verb == "build") return overlay_build(args);
  if (domain == "overlay" && verb == "encode") return overlay_encode(args);
  if (domain == "overlay" && verb == "decode") return overlay_decode(args);
  return usage();
}
