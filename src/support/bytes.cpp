#include "support/bytes.hpp"

#include "support/assert.hpp"

namespace hermes {

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(BytesView b) {
  return std::string(b.begin(), b.end());
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";
}  // namespace

std::string hex_encode(BytesView b) {
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t byte : b) {
    out.push_back(kHexDigits[byte >> 4]);
    out.push_back(kHexDigits[byte & 0xf]);
  }
  return out;
}

void put_u32_be(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u64_be(Bytes& out, std::uint64_t v) {
  put_u32_be(out, static_cast<std::uint32_t>(v >> 32));
  put_u32_be(out, static_cast<std::uint32_t>(v));
}

std::uint32_t get_u32_be(BytesView b, std::size_t offset) {
  HERMES_REQUIRE(offset + 4 <= b.size());
  return (static_cast<std::uint32_t>(b[offset]) << 24) |
         (static_cast<std::uint32_t>(b[offset + 1]) << 16) |
         (static_cast<std::uint32_t>(b[offset + 2]) << 8) |
         static_cast<std::uint32_t>(b[offset + 3]);
}

std::uint64_t get_u64_be(BytesView b, std::size_t offset) {
  return (static_cast<std::uint64_t>(get_u32_be(b, offset)) << 32) |
         get_u32_be(b, offset + 4);
}

void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

bool get_varint(BytesView b, std::size_t* offset, std::uint64_t* v) {
  std::uint64_t result = 0;
  int shift = 0;
  std::size_t pos = *offset;
  while (pos < b.size() && shift < 64) {
    std::uint8_t byte = b[pos++];
    result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *offset = pos;
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

void append(Bytes& out, BytesView b) {
  out.insert(out.end(), b.begin(), b.end());
}

}  // namespace hermes
