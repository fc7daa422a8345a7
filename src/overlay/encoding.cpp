#include "overlay/encoding.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace hermes::overlay {

using hermes::Bytes;
using hermes::BytesView;

namespace {
constexpr std::uint32_t kMagic = 0x4f564c31;  // "OVL1"

// Latencies are quantized to 10 us on the wire; the encoding is a
// structural certificate, not a measurement archive.
std::uint64_t quantize_latency(double ms) {
  return static_cast<std::uint64_t>(std::max(ms, 0.0) * 100.0 + 0.5);
}
double dequantize_latency(std::uint64_t q) {
  return static_cast<double>(q) / 100.0;
}
}  // namespace

Bytes encode_overlay(const Overlay& o) {
  Bytes out;
  hermes::put_u32_be(out, kMagic);
  hermes::put_varint(out, o.node_count());
  hermes::put_varint(out, o.f());
  hermes::put_varint(out, o.entry_points().size());
  for (NodeId e : o.entry_points()) hermes::put_varint(out, e);
  for (NodeId v = 0; v < o.node_count(); ++v) {
    hermes::put_varint(out, o.depth(v));
    // Successors sorted and delta-encoded.
    std::vector<NodeId> succ = o.successors(v);
    std::sort(succ.begin(), succ.end());
    hermes::put_varint(out, succ.size());
    NodeId prev = 0;
    for (NodeId c : succ) {
      hermes::put_varint(out, c - prev);
      prev = c;
      hermes::put_varint(out, quantize_latency(o.link_latency(v, c)));
    }
  }
  return out;
}

std::optional<Overlay> decode_overlay(BytesView bytes) {
  if (bytes.size() < 4 || hermes::get_u32_be(bytes, 0) != kMagic) {
    return std::nullopt;
  }
  std::size_t off = 4;
  std::uint64_t n = 0, f = 0, entries = 0;
  if (!hermes::get_varint(bytes, &off, &n)) return std::nullopt;
  if (!hermes::get_varint(bytes, &off, &f)) return std::nullopt;
  if (!hermes::get_varint(bytes, &off, &entries)) return std::nullopt;
  if (n == 0 || entries > n) return std::nullopt;
  // Every node takes at least two bytes, its depth and its successor
  // count: reject a count the input cannot hold before allocating for it.
  if (n > (bytes.size() - off) / 2) return std::nullopt;

  Overlay o(static_cast<std::size_t>(n), static_cast<std::size_t>(f));
  for (std::uint64_t i = 0; i < entries; ++i) {
    std::uint64_t e = 0;
    if (!hermes::get_varint(bytes, &off, &e) || e >= n) return std::nullopt;
    if (o.is_entry(static_cast<NodeId>(e))) return std::nullopt;
    o.add_entry_point(static_cast<NodeId>(e));
  }

  // First pass: depths; links need both endpoints' depths to validate.
  struct PendingLink {
    NodeId from;
    NodeId to;
    double latency;
  };
  std::vector<PendingLink> links;
  for (std::uint64_t v = 0; v < n; ++v) {
    std::uint64_t depth = 0, succ_count = 0;
    if (!hermes::get_varint(bytes, &off, &depth)) return std::nullopt;
    if (depth == 0 || depth > n) return std::nullopt;
    if (!o.is_entry(static_cast<NodeId>(v))) {
      o.set_depth(static_cast<NodeId>(v), static_cast<std::size_t>(depth));
    } else if (depth != 1) {
      return std::nullopt;
    }
    if (!hermes::get_varint(bytes, &off, &succ_count) || succ_count > n) {
      return std::nullopt;
    }
    std::uint64_t prev = 0;
    for (std::uint64_t s = 0; s < succ_count; ++s) {
      std::uint64_t delta = 0, lat = 0;
      if (!hermes::get_varint(bytes, &off, &delta)) return std::nullopt;
      if (!hermes::get_varint(bytes, &off, &lat)) return std::nullopt;
      const std::uint64_t child = prev + delta;
      prev = child;
      if (child >= n) return std::nullopt;
      links.push_back(PendingLink{static_cast<NodeId>(v),
                                  static_cast<NodeId>(child),
                                  dequantize_latency(lat)});
    }
  }
  if (off != bytes.size()) return std::nullopt;
  for (const auto& l : links) {
    if (o.depth(l.from) >= o.depth(l.to)) return std::nullopt;
    o.add_link(l.from, l.to, l.latency);
  }
  return o;
}

std::optional<CertifiedOverlay> certify_overlay(
    const Overlay& o, const crypto::ThresholdScheme& scheme) {
  CertifiedOverlay cert;
  cert.encoded = encode_overlay(o);
  std::vector<crypto::PartialSignature> partials;
  partials.reserve(scheme.threshold());
  for (std::size_t i = 1; i <= scheme.threshold(); ++i) {
    partials.push_back(scheme.partial_sign(i, cert.encoded));
  }
  auto combined = scheme.combine(cert.encoded, partials);
  if (!combined) return std::nullopt;
  cert.signature = std::move(*combined);
  return cert;
}

bool verify_certified_overlay(const CertifiedOverlay& cert,
                              const crypto::ThresholdScheme& scheme,
                              Overlay* decoded_out) {
  if (!scheme.verify_combined(cert.encoded, cert.signature)) return false;
  auto decoded = decode_overlay(cert.encoded);
  if (!decoded || !decoded->is_valid()) return false;
  if (decoded_out) *decoded_out = std::move(*decoded);
  return true;
}

}  // namespace hermes::overlay
