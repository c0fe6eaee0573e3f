// Byte buffers and byte-order-safe serialization.
//
// AFF fragments, baseline addressed fragments, and the dynamic address
// allocation protocol all serialize to byte vectors through BufferWriter /
// BufferReader. All multi-byte integers are big-endian on the wire, matching
// network convention; variable-width identifier fields are written as the
// minimal whole-byte width for their configured bit width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/bitops.hpp"

namespace retri::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

class BytesPool;

/// Immutable, ref-counted byte buffer with copy-on-write mutation.
///
/// The broadcast medium hands one SharedBytes to every listener's delivery
/// instead of copying the payload N times; copying a SharedBytes bumps a
/// refcount (one pointer, no byte copy). Readers use bytes()/view(). A
/// writer (e.g. the fault injector corrupting one listener's copy) calls
/// mutable_bytes(), which clones the buffer only when it is actually shared
/// — so the corruption never leaks into other listeners' deliveries, and an
/// unshared buffer mutates in place with no copy at all. Default-constructed
/// SharedBytes is an empty buffer (no allocation until first mutation).
///
/// The count is intrusive and not atomic: a buffer and every SharedBytes
/// referencing it belong to one thread, as everything one Simulator runs
/// does. A buffer drawn from a BytesPool goes back to the pool when its last
/// holder lets go; one still held when its pool dies is freed by that
/// holder instead.
class SharedBytes {
 public:
  SharedBytes() noexcept = default;
  explicit SharedBytes(Bytes bytes) : block_(new Block{std::move(bytes)}) {}
  SharedBytes(const SharedBytes& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  SharedBytes(SharedBytes&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  SharedBytes& operator=(SharedBytes other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~SharedBytes() { release(); }

  /// Read access; valid as long as any SharedBytes referencing the buffer
  /// (or the returned reference's user) needs it.
  const Bytes& bytes() const noexcept {
    static const Bytes kEmpty;
    return block_ != nullptr ? block_->bytes : kEmpty;
  }
  BytesView view() const noexcept { return bytes(); }
  std::size_t size() const noexcept { return bytes().size(); }
  bool empty() const noexcept { return size() == 0; }

  /// Write access. Clones the buffer first if other SharedBytes share it
  /// (copy-on-write); mutates in place when uniquely owned.
  Bytes& mutable_bytes();

  /// Number of SharedBytes sharing the buffer (0 when empty-default).
  /// Exposed for tests.
  long use_count() const noexcept {
    return block_ != nullptr ? static_cast<long>(block_->refs) : 0;
  }

 private:
  friend class BytesPool;

  struct Block {
    Bytes bytes;
    std::size_t refs = 1;
    BytesPool* pool = nullptr;  // takes the block back at 0 refs; null: free
    Block* next_idle = nullptr;
  };

  void release() noexcept {
    if (block_ != nullptr && --block_->refs == 0) drop(block_);
    block_ = nullptr;
  }
  /// Returns an unreferenced block to its pool, or frees it.
  static void drop(Block* block) noexcept;

  Block* block_ = nullptr;
};

/// Recycles SharedBytes buffers for one owner's stream of short-lived
/// copies. copy_of() refills an idle buffer, keeping its capacity, so a
/// steady stream of similar-sized copies allocates nothing once warm.
/// Single-threaded, like SharedBytes. The pool may die before buffers it
/// handed out; each of those is then freed by its last holder.
class BytesPool {
 public:
  BytesPool() = default;
  BytesPool(const BytesPool&) = delete;
  BytesPool& operator=(const BytesPool&) = delete;
  ~BytesPool();

  /// A buffer holding a copy of `data`, recycled when one is idle.
  SharedBytes copy_of(BytesView data);

 private:
  friend class SharedBytes;
  using Block = SharedBytes::Block;

  void recycle(Block* block) noexcept {
    block->next_idle = idle_;
    idle_ = block;
  }

  std::vector<Block*> blocks_;  // every block this pool made, idle or held
  Block* idle_ = nullptr;
};

/// Appends big-endian fields to a byte vector.
///
/// The writer owns its buffer; call take() to move it out when done.
class BufferWriter {
 public:
  BufferWriter() = default;
  /// Reserves `expected_size` up front to avoid reallocation in hot paths.
  explicit BufferWriter(std::size_t expected_size) { buf_.reserve(expected_size); }
  /// Writes into `buffer`, dropping its contents but keeping its capacity
  /// (and reserving `expected_size`), so a buffer handed back in from
  /// take() every time encodes without allocating once it is large enough.
  BufferWriter(Bytes&& buffer, std::size_t expected_size)
      : buf_(std::move(buffer)) {
    buf_.clear();
    buf_.reserve(expected_size);
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  /// Writes the low `bits` bits of `v` as a big-endian field occupying
  /// bytes_for_bits(bits) bytes. This is how variable-width RETRI
  /// identifiers are framed on the wire. bits must be in [1, 64].
  void uvar(std::uint64_t v, unsigned bits);

  /// Appends raw bytes.
  void raw(BytesView data);

  std::size_t size() const noexcept { return buf_.size(); }
  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Reads big-endian fields from a byte span. All accessors return
/// std::nullopt on underrun instead of throwing; a malformed frame received
/// from the radio must never crash a node (DESIGN.md: errors are the norm).
/// They are defined here, inline, so a decoder built on them (aff::decode)
/// compiles into straight-line code.
class BufferReader {
 public:
  explicit BufferReader(BytesView data) noexcept : data_(data) {}

  std::optional<std::uint8_t> u8() noexcept {
    if (remaining() < 1) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<std::uint16_t> u16() noexcept {
    if (remaining() < 2) return std::nullopt;
    return static_cast<std::uint16_t>(take_be(2));
  }
  std::optional<std::uint32_t> u32() noexcept {
    if (remaining() < 4) return std::nullopt;
    return static_cast<std::uint32_t>(take_be(4));
  }
  std::optional<std::uint64_t> u64() noexcept {
    if (remaining() < 8) return std::nullopt;
    return take_be(8);
  }

  /// Reads a field written by BufferWriter::uvar with the same bit width.
  /// Padding bits (the high bits of the byte-aligned field beyond `bits`)
  /// are masked off, so corrupted padding aliases onto a valid value.
  std::optional<std::uint64_t> uvar(unsigned bits) noexcept {
    const std::size_t nbytes = bytes_for_bits(bits);
    if (remaining() < nbytes) return std::nullopt;
    return take_be(nbytes) & low_mask(bits);
  }

  /// Like uvar, but rejects (nullopt) fields whose padding bits are
  /// nonzero. BufferWriter::uvar always writes them as zero, so a nonzero
  /// padding bit proves the frame was corrupted or framed with a different
  /// width — wire decoders use this to drop such frames instead of
  /// silently aliasing them onto a masked identifier (which would break
  /// the decode→re-encode round-trip property the fuzz tests assert).
  std::optional<std::uint64_t> uvar_strict(unsigned bits) noexcept {
    const std::size_t nbytes = bytes_for_bits(bits);
    if (remaining() < nbytes) return std::nullopt;
    const std::uint64_t v = take_be(nbytes);
    if ((v & ~low_mask(bits)) != 0) return std::nullopt;
    return v;
  }

  /// Reads exactly n bytes as a view into the underlying buffer (no copy);
  /// nullopt if fewer remain. The view is valid only as long as the buffer
  /// the reader was constructed over.
  std::optional<BytesView> raw_view(std::size_t n) noexcept {
    if (remaining() < n) return std::nullopt;
    const BytesView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// All bytes not yet consumed.
  BytesView rest() const noexcept { return data_.subspan(pos_); }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool empty() const noexcept { return pos_ >= data_.size(); }

 private:
  /// Consumes n (at most 8, at most remaining()) bytes as one big-endian
  /// value.
  std::uint64_t take_be(std::size_t n) noexcept {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += n;
    return v;
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

/// Hex dump ("de ad be ef") for logs and test failure messages.
std::string to_hex(BytesView data);

/// Deterministic pseudo-random payload of n bytes (keyed by seed); used by
/// workload generators so packet contents are reproducible and checksums
/// exercise real data.
Bytes random_payload(std::size_t n, std::uint64_t seed);

/// random_payload(n, seed)'s bytes, written into `out` (resized to n) so a
/// reused buffer keeps its capacity.
void fill_random_payload(Bytes& out, std::size_t n, std::uint64_t seed);

}  // namespace retri::util
