// Structured archive bitstream fuzzing suite (ctest label: fuzz;
// DESIGN.md §12).
//
// An archive built from the shared tiny simulation run is mutated with
// format-aware damage — truncations, bit flips with and without forged
// checksums, manifest watermark/bucket skew, out-of-range dictionary codes —
// and after every mutation the Reader must either round-trip the pristine
// tables bit-identically or quarantine/reject the damage. Never crash,
// never silently return wrong rows.
//
// Environment knobs:
//   SUPREMM_TESTKIT_LONG=N      run N mutations instead of the smoke 200
//   SUPREMM_TESTKIT_SEED_DIR=D  dump replay seed files into D (default ".")
//   SUPREMM_TESTKIT_REPLAY=F    additionally re-run the dumped seed file F
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "archive/archive.h"
#include "common/checksum.h"
#include "common/error.h"
#include "common/strings.h"
#include "sim_fixture.h"
#include "testkit/fuzz.h"
#include "testkit/replay.h"

namespace {

using namespace supremm;
namespace fs = std::filesystem;

/// A directory under the temp dir that belongs to this process. ctest runs
/// every test in a process of its own, in parallel under -j, so a fixed
/// name would let one process rebuild the archive another is still copying.
fs::path process_dir(const std::string& name) {
  return fs::temp_directory_path() / (name + "_" + std::to_string(::getpid()));
}

/// Archive of the shared tiny run, built once per process and removed when
/// the process exits.
const std::string& pristine_dir() {
  struct Pristine {
    fs::path dir = process_dir("supremm_testkit_fuzz_pristine");
    std::string path = dir.string();
    Pristine() { supremm::testing::build_archive(path, supremm::testing::tiny_ranger_run()); }
    ~Pristine() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    Pristine(const Pristine&) = delete;
    Pristine& operator=(const Pristine&) = delete;
  };
  static const Pristine pristine;
  return pristine.path;
}

testkit::FuzzConfig make_config() {
  testkit::FuzzConfig cfg;
  cfg.pristine_dir = pristine_dir();
  cfg.scratch_dir = process_dir("supremm_testkit_fuzz_scratch").string();
  cfg.seed = 20130313;
  cfg.iterations = 200;  // smoke floor; the long run is opt-in
  if (const char* n = std::getenv("SUPREMM_TESTKIT_LONG")) {
    cfg.iterations = static_cast<std::size_t>(std::strtoull(n, nullptr, 10));
  }
  if (const char* d = std::getenv("SUPREMM_TESTKIT_SEED_DIR")) cfg.seed_dir = d;
  return cfg;
}

TEST(ArchiveFuzz, ReaderSurvivesStructuredMutations) {
  const testkit::FuzzConfig cfg = make_config();
  const testkit::FuzzReport rep = testkit::run_archive_fuzz(cfg);
  EXPECT_EQ(rep.iterations, cfg.iterations);
  EXPECT_EQ(rep.iterations, rep.roundtrips + rep.quarantines + rep.manifest_rejects +
                                rep.forged_divergences);
  // The mutation mix guarantees every outcome class actually occurs: damage
  // is detected, invalid manifests are rejected, benign skew round-trips.
  EXPECT_GT(rep.quarantines, 0u);
  EXPECT_GT(rep.manifest_rejects, 0u);
  EXPECT_GT(rep.roundtrips, 0u);
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    ADD_FAILURE() << "contract violation (replay: SUPREMM_TESTKIT_REPLAY="
                  << rep.seed_files[i]
                  << " build/tests/test_fuzz_archive): " << rep.failures[i];
  }
  fs::remove_all(cfg.scratch_dir);
}

// Metamorphic: the Reader must restore the canonical row order no matter how
// the manifest orders the partitions, so shuffling the partition lines (and
// re-forging the manifest checksum) must round-trip bit-identically.
TEST(ArchiveFuzz, PartitionOrderShuffleRoundTrips) {
  const fs::path dir = process_dir("supremm_testkit_fuzz_shuffle");
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& e : fs::directory_iterator(pristine_dir())) {
    fs::copy_file(e.path(), dir / e.path().filename());
  }

  // Rewrite the MANIFEST with its `p` lines reversed.
  const fs::path mpath = dir / "MANIFEST";
  std::string text;
  {
    std::ifstream in(mpath, std::ios::binary);
    text.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  std::vector<std::string> head, plines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string line = text.substr(pos, nl - pos);
    pos = nl == std::string::npos ? text.size() : nl + 1;
    if (line.rfind("crc ", 0) == 0) break;
    (line.rfind("p ", 0) == 0 ? plines : head).push_back(line);
  }
  ASSERT_GT(plines.size(), 1u);
  std::reverse(plines.begin(), plines.end());
  std::string out;
  for (const auto& l : head) out += l + "\n";
  for (const auto& l : plines) out += l + "\n";
  out += common::strprintf("crc %08x\n", common::crc32(out));
  {
    std::ofstream o(mpath, std::ios::binary | std::ios::trunc);
    o << out;
  }

  archive::Reader ref(pristine_dir(), 1);
  archive::Reader shuf(dir.string(), 1);
  for (const char* name : {"jobs", "series", "data_quality"}) {
    supremm::testing::expect_tables_identical(ref.table(name), shuf.table(name));
  }
  EXPECT_TRUE(shuf.quarantined().empty());
  fs::remove_all(dir);
}

// Regression for the semantic manifest validation the fuzzer relies on: a
// checksummed-but-nonsensical manifest must be rejected before any loader
// divides by the bucket width or sizes buffers from (watermark - start).
TEST(ArchiveFuzz, SemanticallyInvalidManifestRejected) {
  const auto corrupt = [&](const std::string& key, const std::string& value) {
    const fs::path dir = process_dir("supremm_testkit_fuzz_manifest");
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const auto& e : fs::directory_iterator(pristine_dir())) {
      fs::copy_file(e.path(), dir / e.path().filename());
    }
    const fs::path mpath = dir / "MANIFEST";
    std::string text;
    {
      std::ifstream in(mpath, std::ios::binary);
      text.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    }
    std::string out;
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t nl = text.find('\n', pos);
      std::string line = text.substr(pos, nl - pos);
      pos = nl == std::string::npos ? text.size() : nl + 1;
      if (line.rfind("crc ", 0) == 0) break;
      if (line.rfind(key + " ", 0) == 0) line = key + " " + value;
      out += line + "\n";
    }
    out += common::strprintf("crc %08x\n", common::crc32(out));
    {
      std::ofstream o(mpath, std::ios::binary | std::ios::trunc);
      o << out;
    }
    EXPECT_THROW(archive::Reader(dir.string(), 1), common::ParseError) << key;
    EXPECT_THROW(archive::Archive(dir.string(), 1), common::ParseError) << key;
    fs::remove_all(dir);
  };
  corrupt("bucket", "0");
  corrupt("bucket", "-600");
  corrupt("watermark", "-86400");
}

TEST(ArchiveFuzzReplay, EnvSeedFile) {
  const char* path = std::getenv("SUPREMM_TESTKIT_REPLAY");
  if (path == nullptr) GTEST_SKIP() << "SUPREMM_TESTKIT_REPLAY not set";
  const testkit::FuzzConfig cfg = make_config();
  const auto d = testkit::replay_fuzz_file(cfg, path);
  fs::remove_all(cfg.scratch_dir);
  EXPECT_FALSE(d.has_value()) << "still violates: " << *d;
}

}  // namespace
