#include "util/bytes.hpp"

#include <memory>

#include "util/bitops.hpp"
#include "util/random.hpp"

namespace retri::util {

Bytes& SharedBytes::mutable_bytes() {
  if (block_ == nullptr) {
    block_ = new Block{};
  } else if (block_->refs > 1) {
    Block* const clone = new Block{block_->bytes};
    release();
    block_ = clone;
  }
  return block_->bytes;
}

void SharedBytes::drop(Block* block) noexcept {
  if (block->pool != nullptr) {
    block->pool->recycle(block);
  } else {
    delete block;
  }
}

BytesPool::~BytesPool() {
  for (Block* const block : blocks_) {
    if (block->refs == 0) {
      delete block;
    } else {
      block->pool = nullptr;  // still held: its last holder frees it
    }
  }
}

SharedBytes BytesPool::copy_of(BytesView data) {
  SharedBytes out;
  if (idle_ != nullptr) {
    out.block_ = idle_;
    idle_ = idle_->next_idle;
    out.block_->refs = 1;
  } else {
    auto fresh = std::make_unique<Block>();
    fresh->pool = this;
    blocks_.push_back(fresh.get());
    out.block_ = fresh.release();
  }
  // Held by `out` from here, so a throwing copy still recycles the block.
  out.block_->bytes.assign(data.begin(), data.end());
  return out;
}

void BufferWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void BufferWriter::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void BufferWriter::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void BufferWriter::uvar(std::uint64_t v, unsigned bits) {
  const std::size_t nbytes = bytes_for_bits(bits);
  v &= low_mask(bits);
  for (std::size_t i = nbytes; i > 0; --i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> ((i - 1) * 8)));
  }
}

void BufferWriter::raw(BytesView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::string to_hex(BytesView data) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 3);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i != 0) out.push_back(' ');
    out.push_back(digits[data[i] >> 4]);
    out.push_back(digits[data[i] & 0xf]);
  }
  return out;
}

Bytes random_payload(std::size_t n, std::uint64_t seed) {
  Bytes out;
  fill_random_payload(out, n, seed);
  return out;
}

void fill_random_payload(Bytes& out, std::size_t n, std::uint64_t seed) {
  out.resize(n);
  Xoshiro256 rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next() & 0xff);
}

}  // namespace retri::util
