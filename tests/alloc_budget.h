// A global operator new that counts the bytes requested while armed and
// refuses (std::bad_alloc) any request past the armed budget, so a fuzz test
// can prove a decoder never reserves memory a forged count asked for. Link
// alloc_budget.cpp into the one test binary that needs it: it replaces the
// global operator new/delete for the whole binary.
#pragma once

#include <cstddef>

namespace supremm::testing {

/// Start counting from zero; requests past `budget` bytes in total throw.
void arm_alloc_budget(std::size_t budget);
/// Stop counting.
void disarm_alloc_budget();

}  // namespace supremm::testing
