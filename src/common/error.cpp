#include "common/error.hpp"

namespace lamellar {

void throw_bounds(const char* what, std::size_t index, std::size_t len) {
  throw BoundsError(std::string(what) + ": index " + std::to_string(index) +
                    " out of bounds for length " + std::to_string(len));
}

void throw_bad_pe(const char* what, std::size_t pe, std::size_t num_pes) {
  throw BoundsError(std::string(what) + ": PE " + std::to_string(pe) +
                    " out of range for a " + std::to_string(num_pes) +
                    "-PE world");
}

}  // namespace lamellar
