// Byte-buffer utilities shared by the crypto and wire-encoding layers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hermes {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

Bytes to_bytes(std::string_view s);
std::string to_string(BytesView b);

std::string hex_encode(BytesView b);

// Big-endian fixed-width integer packing (network byte order).
void put_u32_be(Bytes& out, std::uint32_t v);
void put_u64_be(Bytes& out, std::uint64_t v);
std::uint32_t get_u32_be(BytesView b, std::size_t offset);
std::uint64_t get_u64_be(BytesView b, std::size_t offset);

// LEB128-style unsigned varint, used by the compact overlay encoding.
void put_varint(Bytes& out, std::uint64_t v);
// Reads a varint at *offset, advancing it. Returns false on truncation.
bool get_varint(BytesView b, std::size_t* offset, std::uint64_t* v);

void append(Bytes& out, BytesView b);

}  // namespace hermes
