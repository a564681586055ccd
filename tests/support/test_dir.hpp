// Per-test scratch directories.
//
// ctest runs every TEST in its own process, many at once under -j, and
// ::testing::TempDir() is the same directory for all of them: a fixed
// file name there is shared by every concurrent test that writes it, so
// parallel tests overwrite each other's fixtures. test_dir() instead
// names a directory after the process id and the running test, creates
// it, and removes the process's directories when the test binary exits.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

#include <unistd.h>

namespace fluxtrace::test_support {

/// TempDir()/fluxtrace_<pid>: the root of every directory this process
/// hands out.
inline std::filesystem::path process_dir() {
  return std::filesystem::path(::testing::TempDir()) /
         ("fluxtrace_" + std::to_string(::getpid()));
}

/// Removes process_dir() once every test of the binary has run.
class TestDirCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(process_dir(), ec);
  }
};

inline const bool kTestDirCleanupRegistered = [] {
  ::testing::AddGlobalTestEnvironment(new TestDirCleanup);
  return true;
}();

/// A directory of this process and the running test,
/// TempDir()/fluxtrace_<pid>/<suite>.<test>, created on first use. Called
/// outside a test (SetUpTestSuite), it names the directory after the
/// suite being set up.
inline std::string test_dir() {
  const ::testing::UnitTest& ut = *::testing::UnitTest::GetInstance();
  std::string name = "suite";
  if (const ::testing::TestInfo* t = ut.current_test_info()) {
    name = std::string(t->test_suite_name()) + "." + t->name();
  } else if (const ::testing::TestSuite* s = ut.current_test_suite()) {
    name = s->name();
  }
  // Parameterized names carry '/'; keep them one path component.
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  const std::filesystem::path dir = process_dir() / name;
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A file in test_dir().
inline std::string test_path(std::string_view file) {
  return test_dir() + "/" + std::string(file);
}

} // namespace fluxtrace::test_support
