#include "suite/manifest.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace dalut::suite {
namespace {

constexpr const char* kSmall =
    "dalut-manifest v1\n"
    "default width=8 rounds=2 partitions=16\n"
    "job cos8 benchmark=cos algorithm=bssa seed=3\n"
    "job rin benchmark=cos algorithm=round-in drop=2\n"
    "end\n";

TEST(Manifest, ParsesJobsWithDefaults) {
  const auto manifest = manifest_from_string(kSmall);
  ASSERT_EQ(manifest.jobs.size(), 2u);
  const auto& cos8 = manifest.jobs[0];
  EXPECT_EQ(cos8.name, "cos8");
  EXPECT_EQ(cos8.benchmark, "cos");
  EXPECT_EQ(cos8.algorithm, "bssa");
  EXPECT_EQ(cos8.width, 8u);
  EXPECT_EQ(cos8.rounds, 2u);      // from the default line
  EXPECT_EQ(cos8.partitions, 16u);
  EXPECT_EQ(cos8.seed, 3u);
  EXPECT_EQ(cos8.arch, "dalta");   // untouched built-in default
  const auto& rin = manifest.jobs[1];
  EXPECT_EQ(rin.algorithm, "round-in");
  EXPECT_EQ(rin.drop, 2u);
  EXPECT_EQ(rin.width, 8u);
}

TEST(Manifest, LaterDefaultsApplyOnlyToLaterJobs) {
  const auto manifest = manifest_from_string(
      "dalut-manifest v1\n"
      "job a benchmark=cos width=8\n"
      "default seed=9\n"
      "job b benchmark=cos width=8\n"
      "end\n");
  EXPECT_EQ(manifest.jobs[0].seed, 1u);
  EXPECT_EQ(manifest.jobs[1].seed, 9u);
}

TEST(Manifest, JobFieldsOverrideDefaults) {
  const auto manifest = manifest_from_string(
      "dalut-manifest v1\n"
      "default rounds=5\n"
      "job a benchmark=cos width=8 rounds=1\n"
      "end\n");
  EXPECT_EQ(manifest.jobs[0].rounds, 1u);
}

TEST(Manifest, RejectsBadMagic) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v2\nend\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsMissingEnd) {
  EXPECT_THROW(
      manifest_from_string("dalut-manifest v1\njob a benchmark=cos\n"),
      std::invalid_argument);
}

TEST(Manifest, RejectsEmptyManifest) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\nend\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsDuplicateJobNames) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a benchmark=cos\n"
                                    "job a benchmark=log2\n"
                                    "end\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsBadJobName) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job bad/name benchmark=cos\n"
                                    "end\n"),
               std::invalid_argument);
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job " +
                                    std::string(65, 'x') +
                                    " benchmark=cos\n"
                                    "end\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsUnknownKeysAndValues) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a benchmark=cos wat=1\n"
                                    "end\n"),
               std::invalid_argument);
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a algorithm=quantum\n"
                                    "end\n"),
               std::invalid_argument);
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a arch=wide\n"
                                    "end\n"),
               std::invalid_argument);
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a metric=vibes\n"
                                    "end\n"),
               std::invalid_argument);
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a width=99\n"
                                    "end\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsNonKeyValueToken) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a benchmark cos\n"
                                    "end\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsDaltaWithNonDaltaArch) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a algorithm=dalta arch=bto-normal\n"
                                    "end\n"),
               std::invalid_argument);
}

TEST(Manifest, ErrorsAreLineAnchored) {
  try {
    manifest_from_string("dalut-manifest v1\n"
                         "job ok benchmark=cos\n"
                         "job bad width=banana\n"
                         "end\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

TEST(Manifest, RejectsZeroPatternsOnItsLine) {
  // OptForPart needs at least one restart, on a job line and on a default
  // line alike; patterns=1 stays valid.
  for (const char* line : {"job a benchmark=cos patterns=0\n",
                           "default patterns=0\n"}) {
    try {
      manifest_from_string(std::string("dalut-manifest v1\n"
                                       "job ok benchmark=cos\n") +
                           line + "end\n");
      FAIL() << "expected invalid_argument for " << line;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find("patterns must be >= 1"), std::string::npos)
          << what;
    }
  }
  const auto manifest = manifest_from_string(
      "dalut-manifest v1\njob a benchmark=cos patterns=1\nend\n");
  EXPECT_EQ(manifest.jobs.at(0).patterns, 1u);
}

TEST(Manifest, LoadMissingFileThrows) {
  EXPECT_THROW(load_manifest("/nonexistent-dir-zz/suite.manifest"),
               std::runtime_error);
}

}  // namespace
}  // namespace dalut::suite
