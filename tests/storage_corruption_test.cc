// Corruption-injection tests for the persistent index format. Every
// hostile mutation of a valid index file must surface as the documented
// typed Status — kDataLoss for checksum/truncation/structural damage,
// kFailedPrecondition for version or spec mismatches, kInvalidArgument
// for non-index bytes — and must never crash or return partially loaded
// data (the suite runs under ASan/UBSan in CI).
//
// Mutations exercised, per domain:
//   * truncation at every section boundary (and a few interior offsets);
//   * a flipped byte inside every section payload;
//   * a zeroed TOC;
//   * a stale format version (header CRC repaired, so only the version
//     check can reject it);
//   * a mismatched spec fingerprint (header CRC repaired);
//   * corrupted magic;
//   * a missing / unreadable path.

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/db.h"
#include "common/status.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "storage/crc32c.h"
#include "storage/index_file.h"
#include "test_scratch.h"

namespace pigeonring::api {
namespace {

using testing_util::ReadFileBytes;
using testing_util::ScratchPath;
using testing_util::WriteFileBytes;

// One valid saved index per domain, built once for the whole suite.
struct DomainIndex {
  const char* name;
  IndexSpec spec;
  std::vector<uint8_t> image;
};

std::vector<DomainIndex> BuildAllDomains() {
  std::vector<DomainIndex> indexes;

  {
    IndexSpec spec;
    spec.domain = Domain::kHamming;
    spec.tau = 6;
    spec.chain_length = 2;
    spec.num_parts = 8;
    datagen::BinaryVectorConfig config;
    config.dimensions = 64;
    config.num_objects = 80;
    config.num_clusters = 8;
    config.seed = 91;
    auto db =
        Db::Open(spec, Dataset(datagen::GenerateBinaryVectors(config)));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    const std::string path = ScratchPath("corrupt_base_hamming.pgri");
    EXPECT_TRUE(db->Save(path).ok());
    indexes.push_back({"hamming", spec, ReadFileBytes(path)});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kSet;
    spec.tau = 0.7;
    spec.chain_length = 2;
    datagen::TokenSetConfig config;
    config.num_records = 80;
    config.avg_tokens = 10;
    config.universe_size = 240;
    config.seed = 92;
    auto db = Db::Open(spec, Dataset(datagen::GenerateTokenSets(config)));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    const std::string path = ScratchPath("corrupt_base_sets.pgri");
    EXPECT_TRUE(db->Save(path).ok());
    indexes.push_back({"sets", spec, ReadFileBytes(path)});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kEdit;
    spec.tau = 2;
    spec.chain_length = 2;
    spec.kappa = 2;
    datagen::StringConfig config;
    config.num_records = 80;
    config.avg_length = 12;
    config.seed = 93;
    auto db = Db::Open(spec, Dataset(datagen::GenerateStrings(config)));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    const std::string path = ScratchPath("corrupt_base_strings.pgri");
    EXPECT_TRUE(db->Save(path).ok());
    indexes.push_back({"strings", spec, ReadFileBytes(path)});
  }
  {
    // The fixed-length fast path: its kEditFast* sections get the same
    // hostile-mutation coverage as every other domain's sections.
    IndexSpec spec;
    spec.domain = Domain::kEdit;
    spec.tau = 3;
    spec.chain_length = 2;
    spec.edit_fast_path = EditFastPath::kOn;
    datagen::StringConfig config;
    config.num_records = 80;
    config.fixed_length = 10;
    config.seed = 95;
    auto db = Db::Open(spec, Dataset(datagen::GenerateStrings(config)));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    const std::string path = ScratchPath("corrupt_base_strings_fast.pgri");
    EXPECT_TRUE(db->Save(path).ok());
    indexes.push_back({"strings_fast", spec, ReadFileBytes(path)});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kGraph;
    spec.tau = 1;
    spec.chain_length = 2;
    datagen::GraphConfig config;
    config.num_graphs = 40;
    config.avg_vertices = 7;
    config.avg_edges = 8;
    config.vertex_labels = 6;
    config.seed = 94;
    auto db = Db::Open(spec, Dataset(datagen::GenerateGraphs(config)));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    const std::string path = ScratchPath("corrupt_base_graphs.pgri");
    EXPECT_TRUE(db->Save(path).ok());
    indexes.push_back({"graphs", spec, ReadFileBytes(path)});
  }
  return indexes;
}

const std::vector<DomainIndex>& AllDomains() {
  static const std::vector<DomainIndex>* indexes =
      new std::vector<DomainIndex>(BuildAllDomains());
  return *indexes;
}

// Writes `image` to a scratch file and opens it via Db::OpenIndex,
// expecting the given error code. The message must be non-empty — every
// rejection explains itself.
void ExpectOpenFails(const DomainIndex& base, std::vector<uint8_t> image,
                     StatusCode code, const std::string& label) {
  SCOPED_TRACE(std::string(base.name) + ": " + label);
  const std::string path = ScratchPath("corrupt_scratch.pgri");
  WriteFileBytes(path, image);
  auto db = Db::OpenIndex(base.spec, path);
  ASSERT_FALSE(db.ok()) << "corrupted image opened successfully";
  EXPECT_EQ(db.status().code(), code) << db.status().ToString();
  EXPECT_FALSE(db.status().message().empty());
}

void PatchU32(std::vector<uint8_t>& image, size_t offset, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    image[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

void PatchU64(std::vector<uint8_t>& image, size_t offset, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    image[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

// Section boundaries of a valid image, via the reader's own TOC view.
std::vector<std::pair<storage::SectionId, std::pair<uint64_t, uint64_t>>>
SectionRangesOf(const std::vector<uint8_t>& image) {
  auto reader = storage::IndexFileReader::OpenFromBuffer(image);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return reader->SectionRanges();
}

TEST(StorageCorruptionTest, TruncationAtEverySectionBoundary) {
  for (const DomainIndex& base : AllDomains()) {
    const auto ranges = SectionRangesOf(base.image);
    ASSERT_FALSE(ranges.empty());
    // Every section start and end, plus the header boundary and a cut
    // mid-way into the first section's payload.
    std::vector<uint64_t> cuts = {storage::kHeaderSize,
                                  storage::kHeaderSize / 2};
    for (const auto& [id, range] : ranges) {
      cuts.push_back(range.first);
      cuts.push_back(range.second);
      cuts.push_back(range.first + (range.second - range.first) / 2);
    }
    for (uint64_t cut : cuts) {
      if (cut >= base.image.size()) continue;
      std::vector<uint8_t> truncated(base.image.begin(),
                                     base.image.begin() + cut);
      ExpectOpenFails(base, std::move(truncated), StatusCode::kDataLoss,
                      "truncated at " + std::to_string(cut));
    }
    // Trailing garbage (file longer than the header claims) is damage too.
    std::vector<uint8_t> padded = base.image;
    padded.resize(padded.size() + 17, 0xAB);
    ExpectOpenFails(base, std::move(padded), StatusCode::kDataLoss,
                    "trailing garbage");
  }
}

TEST(StorageCorruptionTest, FlippedByteInEverySection) {
  for (const DomainIndex& base : AllDomains()) {
    for (const auto& [id, range] : SectionRangesOf(base.image)) {
      if (range.second == range.first) continue;  // empty payload
      const uint64_t victim = range.first + (range.second - range.first) / 2;
      std::vector<uint8_t> flipped = base.image;
      flipped[victim] ^= 0x40;
      ExpectOpenFails(
          base, std::move(flipped), StatusCode::kDataLoss,
          "byte flip in section " +
              std::to_string(static_cast<uint32_t>(id)));
    }
  }
}

// A flipped payload byte whose section CRC has been "helpfully" repaired
// must still never crash: it reaches the section decoder, which either
// rejects the value (kDataLoss / kFailedPrecondition) or decodes a
// different-but-well-formed index. This drives the decoder validation
// paths the container checksums would otherwise shadow.
TEST(StorageCorruptionTest, RepairedCrcReachesDecoderValidation) {
  for (const DomainIndex& base : AllDomains()) {
    const auto ranges = SectionRangesOf(base.image);
    // TOC location, for re-checksumming after each payload edit.
    auto toc_offset = [&](const std::vector<uint8_t>& image) {
      uint64_t value = 0;
      for (int i = 0; i < 8; ++i) {
        value |= static_cast<uint64_t>(image[storage::kTocOffsetOffset + i])
                 << (8 * i);
      }
      return value;
    };
    const uint64_t toc = toc_offset(base.image);
    for (size_t s = 0; s < ranges.size(); ++s) {
      const auto& [id, range] = ranges[s];
      if (range.second == range.first) continue;
      for (uint64_t delta :
           {uint64_t{0}, (range.second - range.first) / 2}) {
        std::vector<uint8_t> image = base.image;
        image[range.first + delta] ^= 0xFF;
        const uint32_t crc =
            storage::Crc32c(image.data() + range.first,
                            static_cast<size_t>(range.second - range.first));
        // Patch this section's TOC entry CRC, then the TOC CRC, then the
        // header CRC — the file is now "valid" down to the decoder.
        const size_t entry = toc + s * storage::kTocEntrySize;
        PatchU32(image, entry + 24, crc);
        const uint32_t toc_crc = storage::Crc32c(
            image.data() + toc,
            ranges.size() * storage::kTocEntrySize);
        PatchU32(image, storage::kTocCrcOffset, toc_crc);
        storage::RepairHeaderCrc(image);

        SCOPED_TRACE(std::string(base.name) + ": decoder-level flip in " +
                     std::to_string(static_cast<uint32_t>(id)) + "+" +
                     std::to_string(delta));
        const std::string path = ScratchPath("corrupt_scratch.pgri");
        WriteFileBytes(path, image);
        auto db = Db::OpenIndex(base.spec, path);
        if (!db.ok()) {
          EXPECT_TRUE(db.status().code() == StatusCode::kDataLoss ||
                      db.status().code() == StatusCode::kFailedPrecondition ||
                      db.status().code() == StatusCode::kInvalidArgument)
              << db.status().ToString();
          EXPECT_FALSE(db.status().message().empty());
        }
        // db.ok() is acceptable: some byte flips decode to a different but
        // structurally valid index. The invariant is "no crash, no abort".
      }
    }
  }
}

TEST(StorageCorruptionTest, ZeroedToc) {
  for (const DomainIndex& base : AllDomains()) {
    const uint64_t toc = [&] {
      uint64_t value = 0;
      for (int i = 0; i < 8; ++i) {
        value |= static_cast<uint64_t>(
                     base.image[storage::kTocOffsetOffset + i])
                 << (8 * i);
      }
      return value;
    }();
    std::vector<uint8_t> image = base.image;
    for (size_t i = toc; i < image.size(); ++i) image[i] = 0;
    ExpectOpenFails(base, std::move(image), StatusCode::kDataLoss,
                    "zeroed TOC");
  }
}

TEST(StorageCorruptionTest, StaleFormatVersion) {
  for (const DomainIndex& base : AllDomains()) {
    for (uint32_t version : {storage::kFormatVersion + 1, uint32_t{0},
                             uint32_t{0xDEADBEEF}}) {
      std::vector<uint8_t> image = base.image;
      PatchU32(image, storage::kVersionOffset, version);
      storage::RepairHeaderCrc(image);
      ExpectOpenFails(base, std::move(image),
                      StatusCode::kFailedPrecondition,
                      "format version " + std::to_string(version));
    }
  }
}

TEST(StorageCorruptionTest, MismatchedFingerprint) {
  for (const DomainIndex& base : AllDomains()) {
    std::vector<uint8_t> image = base.image;
    PatchU64(image, storage::kFingerprintOffset, 0x1234567890ABCDEFULL);
    storage::RepairHeaderCrc(image);
    ExpectOpenFails(base, std::move(image), StatusCode::kFailedPrecondition,
                    "tampered fingerprint");
  }
}

// Opening an index under a *different spec* (the honest version of the
// fingerprint mismatch) names the disagreeing build field.
TEST(StorageCorruptionTest, SpecMismatchIsNamed) {
  const DomainIndex& base = AllDomains().front();  // hamming, tau=6
  const std::string path = ScratchPath("corrupt_spec.pgri");
  WriteFileBytes(path, base.image);

  IndexSpec wrong_tau = base.spec;
  wrong_tau.tau = 7;
  auto db = Db::OpenIndex(wrong_tau, path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(db.status().message().find("tau"), std::string::npos)
      << db.status().ToString();

  IndexSpec wrong_parts = base.spec;
  wrong_parts.num_parts = 4;
  db = Db::OpenIndex(wrong_parts, path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(db.status().message().find("num_parts"), std::string::npos)
      << db.status().ToString();

  IndexSpec wrong_domain = base.spec;
  wrong_domain.domain = Domain::kEdit;
  wrong_domain.tau = 2;
  db = Db::OpenIndex(wrong_domain, path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StorageCorruptionTest, BadMagic) {
  const DomainIndex& base = AllDomains().front();
  std::vector<uint8_t> image = base.image;
  image[0] = 'X';
  ExpectOpenFails(base, std::move(image), StatusCode::kInvalidArgument,
                  "corrupted magic");

  // A short file that cannot even hold a header.
  ExpectOpenFails(base, {0x50, 0x47}, StatusCode::kInvalidArgument,
                  "two-byte file");
}

TEST(StorageCorruptionTest, MissingPath) {
  const DomainIndex& base = AllDomains().front();
  auto db = Db::OpenIndex(base.spec,
                          ScratchPath("does_not_exist") + "/nowhere.pgri");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kNotFound)
      << db.status().ToString();
}

// A raw dataset handed to the strict index entry is kInvalidArgument (it
// has no index magic), while the sniffing Open falls back to the dataset
// loader and succeeds.
TEST(StorageCorruptionTest, RawDatasetIsNotAnIndex) {
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 1;
  const std::string path = ScratchPath("raw_strings.ds");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "alpha\nalbha\nbeta\n";
  }
  auto strict = Db::OpenIndex(spec, path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument)
      << strict.status().ToString();
  auto sniffed = Db::Open(spec, path);
  ASSERT_TRUE(sniffed.ok()) << sniffed.status().ToString();
  EXPECT_EQ(sniffed->num_records(), 3);
}

}  // namespace
}  // namespace pigeonring::api
