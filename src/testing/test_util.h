#ifndef BTRIM_TESTING_TEST_UTIL_H_
#define BTRIM_TESTING_TEST_UTIL_H_

// Scratch paths for the gtest suites (header-only: the suites link gtest,
// the btrim_testing library does not).

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace btrim {
namespace testing {

/// A path under the test temp directory whose name starts with this
/// process's id, so suites of two build trees running at once on one
/// machine never share (or delete) each other's files; the name's own
/// extension stays last. The one place the suites call ::testing::TempDir()
/// (tools/btrim_lint.py enforces it).
inline std::string ScratchPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" +
         name;
}

}  // namespace testing
}  // namespace btrim

#endif  // BTRIM_TESTING_TEST_UTIL_H_
