// Strict environment-override parsing (common/env.hpp): every EASYSCALE_*
// integer knob must either parse cleanly or fail with an error NAMING the
// variable — silent fallback on a typo ("EASYSCALE_THREADS=fourty") hides
// a misconfigured fleet.  One suite per knob: EASYSCALE_BUCKET_CAP,
// EASYSCALE_THREADS, EASYSCALE_PEER_REPLICAS.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "comm/bucket.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "core/engine.hpp"
#include "fault/supervisor.hpp"
#include "models/datasets.hpp"

namespace easyscale {
namespace {

/// Save/restore one environment variable around a test.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  void set(const char* value) { ::setenv(name_.c_str(), value, 1); }
  void unset() { ::unsetenv(name_.c_str()); }

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

TEST(EnvOverride, StrictParserAcceptsPlainBase10) {
  EXPECT_EQ(parse_int64_strict("0"), 0);
  EXPECT_EQ(parse_int64_strict("42"), 42);
  EXPECT_EQ(parse_int64_strict("-17"), -17);
  EXPECT_EQ(parse_int64_strict("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_int64_strict("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
}

TEST(EnvOverride, StrictParserRejectsEverythingElse) {
  EXPECT_FALSE(parse_int64_strict("").has_value());
  EXPECT_FALSE(parse_int64_strict("-").has_value());
  EXPECT_FALSE(parse_int64_strict(" 1").has_value());   // whitespace
  EXPECT_FALSE(parse_int64_strict("1 ").has_value());
  EXPECT_FALSE(parse_int64_strict("1x").has_value());   // trailing junk
  EXPECT_FALSE(parse_int64_strict("0x10").has_value()); // no hex
  EXPECT_FALSE(parse_int64_strict("1e3").has_value());  // no scientific
  EXPECT_FALSE(parse_int64_strict("+1").has_value());   // no explicit plus
  EXPECT_FALSE(parse_int64_strict("1.5").has_value());
  EXPECT_FALSE(
      parse_int64_strict("9223372036854775808").has_value());   // overflow
  EXPECT_FALSE(
      parse_int64_strict("-9223372036854775809").has_value());  // underflow
}

TEST(EnvOverride, UnsetAndEmptyMeanAbsent) {
  ScopedEnv env("EASYSCALE_TEST_KNOB");
  env.unset();
  EXPECT_FALSE(env_int64("EASYSCALE_TEST_KNOB", 0, 10).has_value());
  env.set("");
  EXPECT_FALSE(env_int64("EASYSCALE_TEST_KNOB", 0, 10).has_value());
}

TEST(EnvOverride, MalformedValueNamesTheVariable) {
  ScopedEnv env("EASYSCALE_TEST_KNOB");
  env.set("not-a-number");
  try {
    (void)env_int64("EASYSCALE_TEST_KNOB", 0, 10);
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("EASYSCALE_TEST_KNOB"),
              std::string::npos)
        << "error must name the variable: " << e.what();
    EXPECT_NE(std::string(e.what()).find("not-a-number"), std::string::npos)
        << "error must quote the value: " << e.what();
  }
}

TEST(EnvOverride, OutOfRangeNamesTheRange) {
  ScopedEnv env("EASYSCALE_TEST_KNOB");
  env.set("11");
  EXPECT_THROW((void)env_int64("EASYSCALE_TEST_KNOB", 0, 10), Error);
  env.set("-1");
  EXPECT_THROW((void)env_int64("EASYSCALE_TEST_KNOB", 0, 10), Error);
  env.set("10");
  EXPECT_EQ(env_int64("EASYSCALE_TEST_KNOB", 0, 10), 10);
}

TEST(EnvOverride, BucketCapHonored) {
  ScopedEnv env("EASYSCALE_BUCKET_CAP");
  env.set("4096");
  EXPECT_EQ(comm::env_default_bucket_cap(), 4096);
  env.unset();
  EXPECT_EQ(comm::env_default_bucket_cap(), 0);
}

TEST(EnvOverride, BucketCapRejectsGarbageAndZero) {
  ScopedEnv env("EASYSCALE_BUCKET_CAP");
  env.set("25MB");
  EXPECT_THROW((void)comm::env_default_bucket_cap(), Error);
  env.set("0");  // a zero cap is out of the [1, inf) range, not "unset"
  EXPECT_THROW((void)comm::env_default_bucket_cap(), Error);
  env.set("-1");
  EXPECT_THROW((void)comm::env_default_bucket_cap(), Error);
}

// How EASYSCALE_BUCKET_CAP feeds comm::resolve_bucket_cap and the engine's
// bucket layout.
class BucketCapEnv : public ::testing::Test {
 protected:
  ScopedEnv env_{"EASYSCALE_BUCKET_CAP"};
};

TEST_F(BucketCapEnv, UnsetResolvesToHistoricalDefault) {
  env_.unset();
  auto model = models::make_workload("NeuMF");
  EXPECT_EQ(comm::env_default_bucket_cap(), 0);
  EXPECT_EQ(comm::resolve_bucket_cap(0, model->params()), 4096);
}

TEST_F(BucketCapEnv, EnvOverrideWinsOverDefault) {
  env_.set("1048576");
  auto model = models::make_workload("NeuMF");
  EXPECT_EQ(comm::env_default_bucket_cap(), 1048576);
  EXPECT_EQ(comm::resolve_bucket_cap(0, model->params()), 1048576);
}

TEST_F(BucketCapEnv, ConfigCapBeatsEnv) {
  env_.set("1048576");
  auto model = models::make_workload("NeuMF");
  EXPECT_EQ(comm::resolve_bucket_cap(8192, model->params()), 8192);
}

TEST_F(BucketCapEnv, EnvCapSmallerThanLargestParameterIsRejected) {
  env_.set("4");  // smaller than any parameter
  auto model = models::make_workload("NeuMF");
  EXPECT_THROW((void)comm::resolve_bucket_cap(0, model->params()), Error);
}

TEST_F(BucketCapEnv, GarbageEnvIsRejectedWithNamedError) {
  // A typo fails the cap resolution too, naming the variable, instead of
  // training silently with the built-in default.
  env_.set("not-a-number");
  auto model = models::make_workload("NeuMF");
  EXPECT_THROW((void)comm::env_default_bucket_cap(), Error);
  try {
    (void)comm::resolve_bucket_cap(0, model->params());
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("EASYSCALE_BUCKET_CAP"),
              std::string::npos)
        << "error must name the variable: " << e.what();
  }
}

TEST_F(BucketCapEnv, EngineLayoutRespectsEnvCap) {
  auto wd = models::make_dataset_for("ResNet18", 16, 1, 42);
  core::EasyScaleConfig cfg;
  cfg.workload = "ResNet18";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  env_.unset();
  core::EasyScaleEngine tight(cfg, *wd.train, wd.augment);
  tight.configure_workers(std::vector<core::WorkerSpec>(1));
  env_.set("16777216");  // everything fits one bucket
  core::EasyScaleEngine wide(cfg, *wd.train, wd.augment);
  wide.configure_workers(std::vector<core::WorkerSpec>(1));
  EXPECT_GT(tight.current_layout().num_buckets(),
            wide.current_layout().num_buckets());
  EXPECT_EQ(wide.current_layout().num_buckets(), 1u);
}

TEST(EnvOverride, ThreadsHonoredAndRejected) {
  // parse_env_threads is the uncached core behind env_default_threads (the
  // cached value is process-wide, so tests exercise the parser directly).
  ScopedEnv env("EASYSCALE_THREADS");
  env.set("4");
  EXPECT_EQ(ComputePool::parse_env_threads(), 4);
  env.unset();
  EXPECT_EQ(ComputePool::parse_env_threads(), 1);
  env.set("fourty");
  EXPECT_THROW(ComputePool::parse_env_threads(), Error);
  env.set("0");
  EXPECT_THROW(ComputePool::parse_env_threads(), Error);
  env.set("257");  // above the 256 sanity cap
  EXPECT_THROW(ComputePool::parse_env_threads(), Error);
}

TEST(EnvOverride, PeerReplicasConfigWinsOverEnv) {
  ScopedEnv env("EASYSCALE_PEER_REPLICAS");
  env.set("3");
  EXPECT_EQ(fault::resolve_peer_replicas(2), 2);  // positive config wins
  EXPECT_EQ(fault::resolve_peer_replicas(0), 3);  // zero defers to env
}

TEST(EnvOverride, PeerReplicasEnvParsedStrictly) {
  ScopedEnv env("EASYSCALE_PEER_REPLICAS");
  env.unset();
  EXPECT_EQ(fault::resolve_peer_replicas(0), 0);  // unset means disabled
  env.set("0");
  EXPECT_EQ(fault::resolve_peer_replicas(0), 0);  // explicit zero is fine
  env.set("two");
  EXPECT_THROW((void)fault::resolve_peer_replicas(0), Error);
  env.set("16");  // above the [0, 15] range
  EXPECT_THROW((void)fault::resolve_peer_replicas(0), Error);
  env.set("-1");
  EXPECT_THROW((void)fault::resolve_peer_replicas(0), Error);
}

TEST(EnvOverride, PeerReplicasNegativeConfigIsAnError) {
  EXPECT_THROW((void)fault::resolve_peer_replicas(-1), Error);
}

}  // namespace
}  // namespace easyscale
