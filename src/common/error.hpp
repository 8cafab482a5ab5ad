// Error types for the lamellar runtime.
//
// The runtime follows the C++ Core Guidelines error philosophy: exceptional
// conditions (misuse of collective calls, allocation exhaustion, protocol
// violations) raise exceptions derived from `lamellar::Error`; expected
// conditions are encoded in return values.
#pragma once

#include <stdexcept>
#include <string>

namespace lamellar {

/// Root of the lamellar exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A symmetric-heap or one-sided-heap allocation could not be satisfied.
class OutOfMemoryError : public Error {
 public:
  explicit OutOfMemoryError(const std::string& what) : Error(what) {}
};

/// A collective operation was invoked inconsistently across PEs.
class CollectiveMismatchError : public Error {
 public:
  explicit CollectiveMismatchError(const std::string& what) : Error(what) {}
};

/// An array conversion was attempted while other references exist.
class ConversionError : public Error {
 public:
  explicit ConversionError(const std::string& what) : Error(what) {}
};

/// An index was outside the bounds of an array or memory region.
class BoundsError : public Error {
 public:
  explicit BoundsError(const std::string& what) : Error(what) {}
};

/// Serialized data could not be decoded (corrupt or mismatched schema).
class DeserializeError : public Error {
 public:
  explicit DeserializeError(const std::string& what) : Error(what) {}
};

[[noreturn]] void throw_bounds(const char* what, std::size_t index,
                               std::size_t len);

[[noreturn]] void throw_bad_pe(const char* what, std::size_t pe,
                               std::size_t num_pes);

/// Throws a BoundsError naming `pe` unless it is one of `num_pes` PEs.
inline void check_pe(const char* what, std::size_t pe, std::size_t num_pes) {
  if (pe >= num_pes) throw_bad_pe(what, pe, num_pes);
}

}  // namespace lamellar
