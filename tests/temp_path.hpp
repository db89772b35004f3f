// Scratch-file paths for tests.
//
// ctest runs every gtest case as its own process, many at once (-j), so a
// fixed file name under the temp directory is shared by every case that
// writes it. tempPath() names the file after the running test instead;
// a rerun of the same case reuses (overwrites) its own files.
#pragma once

#include <gtest/gtest.h>

#include <string>

namespace small::test {

/// `<temp dir>/small_<Suite>.<Test>_<name>`, unique to the running test
/// case ('/' in parameterized names becomes '_').
inline std::string tempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? "global"
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& c : test) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "small_" + test + "_" + name;
}

}  // namespace small::test
