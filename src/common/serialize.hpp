// Binary serialization used by the active-message layer.
//
// This is the C++ stand-in for the serde/bincode machinery the paper's Rust
// runtime uses.  The format is deterministic little-endian (we assume a
// little-endian host, as the paper's cluster is x86): scalars are raw bytes,
// containers are a u64 length followed by elements, user types implement
//
//   template <class Archive> void serialize(Archive& ar) { ar(a, b, c); }
//
// which is invoked symmetrically for writing and reading — the analogue of
// the `#[AmData]` derive in the paper (Sec. III-C).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/scratch_arena.hpp"

namespace lamellar {

class Serializer;
class Deserializer;

namespace detail {

template <typename T, typename Ar>
concept HasSerializeMember = requires(T& t, Ar& ar) { t.serialize(ar); };

template <typename T>
struct is_std_vector : std::false_type {};
template <typename T, typename A>
struct is_std_vector<std::vector<T, A>> : std::true_type {};

template <typename T>
struct is_std_array : std::false_type {};
template <typename T, std::size_t N>
struct is_std_array<std::array<T, N>> : std::true_type {};

template <typename T>
struct is_std_pair : std::false_type {};
template <typename A, typename B>
struct is_std_pair<std::pair<A, B>> : std::true_type {};

template <typename T>
struct is_std_tuple : std::false_type {};
template <typename... Ts>
struct is_std_tuple<std::tuple<Ts...>> : std::true_type {};

template <typename T>
struct is_std_optional : std::false_type {};
template <typename T>
struct is_std_optional<std::optional<T>> : std::true_type {};

}  // namespace detail

/// Writes values into a ByteBuffer.
class Serializer {
 public:
  explicit Serializer(ByteBuffer& buf) : buf_(buf) {}

  static constexpr bool is_writing = true;

  template <typename... Ts>
  void operator()(const Ts&... vs) {
    (put(vs), ...);
  }

  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      buf_.write_pod(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      put_len(v.size());
      buf_.write(v.data(), v.size());
    } else if constexpr (detail::is_std_vector<T>::value) {
      using E = typename T::value_type;
      put_len(v.size());
      if constexpr (std::is_trivially_copyable_v<E>) {
        buf_.write(v.data(), v.size() * sizeof(E));
      } else {
        for (const auto& e : v) put(e);
      }
    } else if constexpr (detail::is_std_array<T>::value) {
      for (const auto& e : v) put(e);
    } else if constexpr (detail::is_std_pair<T>::value) {
      put(v.first);
      put(v.second);
    } else if constexpr (detail::is_std_tuple<T>::value) {
      std::apply([this](const auto&... es) { (put(es), ...); }, v);
    } else if constexpr (detail::is_std_optional<T>::value) {
      put(static_cast<std::uint8_t>(v.has_value()));
      if (v.has_value()) put(*v);
    } else if constexpr (detail::HasSerializeMember<T, Serializer>) {
      // serialize() is symmetric; writing never mutates, but the member is
      // declared non-const so one definition serves both directions.
      const_cast<T&>(v).serialize(*this);
    } else {
      static_assert(detail::HasSerializeMember<T, Serializer>,
                    "type is not serializable: add a serialize(Archive&) "
                    "member or use a supported container/scalar");
    }
  }

  /// Span-of-elements wire form: u64 count, u8 pad length, pad zeros, then
  /// the raw element bytes.  The pad places the first element at an
  /// alignof(T)-aligned offset within the buffer, so a reader over a
  /// 16-aligned buffer base can borrow the bytes as a `span<const T>`
  /// without copying (see Deserializer::get_elems).
  template <typename T>
  void put_elems(std::span<const T> elems) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_len(elems.size());
    put_align_pad<T>();
    buf_.write(elems.data(), elems.size() * sizeof(T));
  }

  /// Same wire form as put_elems, but elements are produced one at a time by
  /// `fn(j)` — used to write strided/gathered operand slices straight into
  /// the transport buffer without staging a contiguous copy first.
  template <typename T, typename Fn>
  void put_elems_gather(std::size_t n, Fn&& fn) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_len(n);
    put_align_pad<T>();
    for (std::size_t j = 0; j < n; ++j) {
      const T v = fn(j);
      buf_.write_pod(v);
    }
  }

  ByteBuffer& buffer() { return buf_; }

 private:
  template <typename T>
  void put_align_pad() {
    constexpr std::size_t a = alignof(T);
    static_assert(a <= 16, "put_elems: element alignment exceeds the "
                           "buffer base alignment guarantee");
    // First data byte lands at buf_.size() + 1 (after the pad-length byte).
    const std::size_t off = buf_.size() + 1;
    const auto pad = static_cast<std::uint8_t>((a - (off % a)) % a);
    buf_.write_pod(pad);
    static constexpr std::byte kZeros[16]{};
    buf_.write(kZeros, pad);
  }

  void put_len(std::size_t n) { buf_.write_pod(static_cast<std::uint64_t>(n)); }
  ByteBuffer& buf_;
};

/// Reads values in the order they were written.
///
/// Operates over a borrowed span with its own cursor, so receive-side
/// dispatch deserializes straight out of an aggregated inbox buffer with no
/// intermediate copy; the span must outlive the Deserializer.  A ByteBuffer
/// can also be read (starting at its read cursor) without being consumed.
class Deserializer {
 public:
  explicit Deserializer(std::span<const std::byte> data) : data_(data) {}
  explicit Deserializer(const ByteBuffer& buf)
      : data_(buf.as_span().subspan(buf.read_pos())) {}

  static constexpr bool is_writing = false;

  template <typename... Ts>
  void operator()(Ts&... vs) {
    (get(vs), ...);
  }

  template <typename T>
  void get(T& v) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      v = read_pod<T>();
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::size_t n = get_len();
      v.resize(n);
      read(v.data(), n);
    } else if constexpr (detail::is_std_vector<T>::value) {
      using E = typename T::value_type;
      const std::size_t n = get_len();
      v.resize(n);
      if constexpr (std::is_trivially_copyable_v<E>) {
        read(v.data(), n * sizeof(E));
      } else {
        for (auto& e : v) get(e);
      }
    } else if constexpr (detail::is_std_array<T>::value) {
      for (auto& e : v) get(e);
    } else if constexpr (detail::is_std_pair<T>::value) {
      get(v.first);
      get(v.second);
    } else if constexpr (detail::is_std_tuple<T>::value) {
      std::apply([this](auto&... es) { (get(es), ...); }, v);
    } else if constexpr (detail::is_std_optional<T>::value) {
      std::uint8_t has = 0;
      get(has);
      if (has) {
        typename T::value_type inner{};
        get(inner);
        v = std::move(inner);
      } else {
        v.reset();
      }
    } else if constexpr (detail::HasSerializeMember<T, Deserializer>) {
      v.serialize(*this);
    } else {
      static_assert(detail::HasSerializeMember<T, Deserializer>,
                    "type is not deserializable");
    }
  }

  template <typename T>
  T take() {
    T v{};
    get(v);
    return v;
  }

  /// Borrow a span of elements written by Serializer::put_elems /
  /// put_elems_gather.  The returned span aliases the input buffer (which
  /// must outlive it — the AM layer holds the inbox buffer across deferred
  /// execution for exactly this reason).  If the buffer base is not aligned
  /// (possible for views not rooted at a heap vector base), the elements are
  /// copied into the calling thread's ScratchArena instead; the copy lives
  /// until the enclosing ArenaFrame rewinds.
  template <typename T>
  std::span<const T> get_elems() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = get_len();
    const auto pad = read_pod<std::uint8_t>();
    if (pos_ + pad > data_.size()) {
      throw DeserializeError("Deserializer: pad past end of input");
    }
    pos_ += pad;
    if (n == 0) return {};
    const std::size_t bytes = n * sizeof(T);
    if (pos_ + bytes > data_.size()) {
      throw DeserializeError("Deserializer: elems past end of input");
    }
    const std::byte* p = data_.data() + pos_;
    pos_ += bytes;
    if (reinterpret_cast<std::uintptr_t>(p) % alignof(T) != 0) {
      auto staged = ScratchArena::local().alloc_span<T>(n);
      std::memcpy(staged.data(), p, bytes);
      return staged;
    }
    return {reinterpret_cast<const T*>(p), n};
  }

  /// Copy `n` raw bytes at the cursor into `dst`, advancing the cursor.
  void read(void* dst, std::size_t n) {
    if (n == 0) return;  // dst may be null (e.g. empty vector's data())
    if (pos_ + n > data_.size()) {
      throw DeserializeError("Deserializer: read past end of input");
    }
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
  }

  template <typename T>
  T read_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    read(&v, sizeof(T));
    return v;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::size_t get_len() {
    return static_cast<std::size_t>(read_pod<std::uint64_t>());
  }
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Serialize a single value into a fresh buffer.
template <typename T>
ByteBuffer serialize_to_buffer(const T& v) {
  // A small first reserve, so the first write lands in place: appending to
  // a vector with no storage draws a false -Wstringop-overflow from GCC 12.
  ByteBuffer buf(64);
  Serializer ser(buf);
  ser.put(v);
  return buf;
}

/// Deserialize a single value that fills the whole buffer.
template <typename T>
T deserialize_from_buffer(ByteBuffer& buf) {
  Deserializer de(buf);
  return de.take<T>();
}

/// True when T can round-trip through the archives (best-effort check).
template <typename T>
concept Serializable =
    std::is_arithmetic_v<T> || std::is_enum_v<T> ||
    detail::HasSerializeMember<T, Serializer> ||
    std::is_same_v<T, std::string> || detail::is_std_vector<T>::value ||
    detail::is_std_array<T>::value || detail::is_std_pair<T>::value ||
    detail::is_std_tuple<T>::value || detail::is_std_optional<T>::value;

}  // namespace lamellar
