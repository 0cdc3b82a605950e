#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

#include "runtime/message.hpp"
#include "util/check.hpp"

namespace nc {

/// Shared state of one outgoing logical stream: the packed symbol payload
/// plus the closed flag. One heap allocation per stream, shared between the
/// producer's OutChannel and every Link the stream was opened on (a
/// broadcast to many neighbours stores its payload once).
struct OutStreamState {
  SymbolBuffer buf;
  bool closed = false;
};

/// Producer handle for an outgoing logical stream.
///
/// Appending after the runtime has started draining the stream is allowed —
/// that is what makes the coordinate-pipelined convergecasts of Lemma 5.1
/// possible — and `close()` marks the logical end of stream, which links
/// deliver to receivers as an EOS flag.
///
/// Sharded-engine note: the producer appends from its node's wake-phase
/// callback and the owning shard's stage phase reads the buffer in the
/// *next* phase — writes and reads are separated by the pool barrier, so
/// the shared state carries no locks. All links a broadcast was opened on
/// share one OutStreamState and always live on the producer's shard.
class OutChannel {
 public:
  OutChannel() : state_(std::make_shared<OutStreamState>()) {}

  /// Appends one symbol. Precondition: not closed.
  void put(std::uint64_t value, unsigned width) {
    state_->buf.put(value, width);
  }

  /// Appends one bit.
  void put_bit(bool b) { state_->buf.put_bit(b); }

  /// Marks end of stream; links will deliver EOS after the last symbol.
  void close() { state_->closed = true; }

  /// True once close() has been called.
  [[nodiscard]] bool closed() const noexcept { return state_->closed; }

  /// Symbols written so far.
  [[nodiscard]] std::size_t size() const noexcept {
    return state_->buf.size();
  }

  /// Shared state, used by links.
  [[nodiscard]] std::shared_ptr<const OutStreamState> state() const noexcept {
    return state_;
  }

 private:
  std::shared_ptr<OutStreamState> state_;
};

/// Receiver side of a logical stream: the delivered payload bits plus the
/// EOS flag. Protocol code consumes it strictly sequentially.
///
/// The stream holds bits only — no symbol widths. Links never split a
/// symbol, so whenever bits are available at least one whole symbol is,
/// and each pop() names the width that the protocol's message format fixes
/// for the next symbol (an ID is id_width(n) bits, a flag is one). Storage
/// is one BitRun: the first 64 bits inline, one heap block past that, so
/// the typical few-symbol stream lives entirely in its inbox slot. 32 bytes.
class InStream {
 public:
  /// Appends `nbits` delivered payload bits read from a word array starting
  /// at its bit 0 (runtime use — the deliver phase hands over a staged
  /// row's payload words).
  void deliver(const std::uint64_t* words, std::size_t nbits) {
    bits_.append_packed(words, nbits);
  }

  /// Marks EOS delivered (runtime use).
  void deliver_eos() noexcept { closed_ = true; }

  /// Payload bits delivered but not yet consumed; > 0 means at least one
  /// whole symbol is waiting.
  [[nodiscard]] std::size_t available() const noexcept {
    return bits_.bit_size() - read_bit_;
  }

  /// Consumes the next symbol, `width` (1..64) bits wide. Precondition:
  /// width <= available().
  std::uint64_t pop(unsigned width) noexcept {
    nc_invariant(width >= 1 && width <= available(),
                 "InStream::pop past the delivered bits (wrong symbol width "
                 "for this message format?)");
    const std::uint64_t v = bits_.read(read_bit_, width);
    read_bit_ += width;
    return v;
  }

  /// True if EOS was delivered.
  [[nodiscard]] bool closed() const noexcept { return closed_; }

  /// True if EOS was delivered and everything has been consumed.
  [[nodiscard]] bool finished() const noexcept {
    return closed_ && available() == 0;
  }

 private:
  BitRun bits_;
  std::size_t read_bit_ = 0;
  bool closed_ = false;
};

// Inboxes keep InStreams in sorted vectors that shift on every insert: a
// throwing move would make them copy, and the element size is what the
// inbox's cache-footprint budget (inbox.hpp) is written against.
static_assert(std::is_nothrow_move_constructible_v<InStream>);
static_assert(sizeof(InStream) <= 32);

}  // namespace nc
