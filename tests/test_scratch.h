// Per-test-case scratch files for the gtest suites.
//
// ctest runs every test case as its own process, and `ctest -j` runs
// several at once, so fixed file names in the shared testing::TempDir()
// race. ScratchPath(name) places `name` in a directory private to the
// running test case, named from its suite, its name and the process id;
// the directory and everything in it are removed when the case ends.

#ifndef PIGEONRING_TESTS_TEST_SCRATCH_H_
#define PIGEONRING_TESTS_TEST_SCRATCH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>
#include <vector>

#include "api/db.h"
#include "common/status.h"

namespace pigeonring::testing_util {

namespace internal {

/// The scratch directory of `info`'s test case ("no_test" outside one).
inline std::filesystem::path ScratchDirFor(const ::testing::TestInfo* info) {
  std::string name = "no_test";
  if (info != nullptr) {
    name = std::string(info->test_suite_name()) + "." + info->name();
  }
  // Parameterized names carry '/' ("Prefix/Suite.Test/0").
  std::replace(name.begin(), name.end(), '/', '_');
  return std::filesystem::path(::testing::TempDir()) /
         ("pigeonring_" + name + "." + std::to_string(::getpid()));
}

/// Removes each test case's scratch directory once the case (fixture
/// teardown included) has finished.
class ScratchCleaner : public ::testing::EmptyTestEventListener {
 public:
  void OnTestEnd(const ::testing::TestInfo& info) override {
    std::error_code ignored;
    std::filesystem::remove_all(ScratchDirFor(&info), ignored);
  }
  void OnTestProgramEnd(const ::testing::UnitTest&) override {
    std::error_code ignored;
    std::filesystem::remove_all(ScratchDirFor(nullptr), ignored);
  }
};

}  // namespace internal

/// The running test case's scratch directory, created on first use.
inline std::filesystem::path ScratchDir() {
  // Installed lazily from inside a test body, where no event is being
  // dispatched; gtest owns the listener from then on.
  static const bool installed = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(
        new internal::ScratchCleaner);
    return true;
  }();
  (void)installed;
  const std::filesystem::path dir = internal::ScratchDirFor(
      ::testing::UnitTest::GetInstance()->current_test_info());
  std::filesystem::create_directories(dir);
  return dir;
}

/// `name` inside the running test case's scratch directory.
inline std::string ScratchPath(const std::string& name) {
  return (ScratchDir() / name).string();
}

inline std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path,
                           const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  if (!bytes.empty()) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_TRUE(out.good()) << path;
}

/// Saves `db` to scratch file `name` and returns the file's bytes.
inline std::vector<uint8_t> SaveBytes(const api::Db& db,
                                      const std::string& name) {
  const std::string path = ScratchPath(name);
  const Status saved = db.Save(path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return ReadFileBytes(path);
}

}  // namespace pigeonring::testing_util

#endif  // PIGEONRING_TESTS_TEST_SCRATCH_H_
