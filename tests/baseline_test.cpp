#include <gtest/gtest.h>

#include <cmath>

#include "baseline/hijack_duration.hpp"
#include "baseline/legacy_pipeline.hpp"

namespace artemis::baseline {
namespace {

// ------------------------------------------------- HijackDurationModel

TEST(HijackDurationTest, CalibratedQuantilesMatchPaper) {
  const HijackDurationModel model;
  // ">20% of hijacks last < 10 min" (§1).
  EXPECT_GT(model.cdf(SimDuration::minutes(10)), 0.20);
  // ARTEMIS's ~6 min cycle beats >80% of hijack durations (§3): i.e. at
  // most ~20% of hijacks are shorter than 6 min.
  EXPECT_NEAR(model.cdf(SimDuration::minutes(6)), 0.20, 0.03);
}

TEST(HijackDurationTest, CdfMonotoneAndBounded) {
  const HijackDurationModel model;
  EXPECT_DOUBLE_EQ(model.cdf(SimDuration::zero()), 0.0);
  double previous = 0.0;
  for (double minutes = 1; minutes <= 4096; minutes *= 2) {
    const double c = model.cdf(SimDuration::minutes(minutes));
    EXPECT_GE(c, previous);
    EXPECT_LE(c, 1.0);
    previous = c;
  }
  EXPECT_GT(previous, 0.9);
}

TEST(HijackDurationTest, QuantileInvertsCdf) {
  const HijackDurationModel model;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const auto d = model.quantile(q);
    EXPECT_NEAR(model.cdf(d), q, 1e-3) << "q=" << q;
  }
  EXPECT_THROW(model.quantile(0.0), std::out_of_range);
  EXPECT_THROW(model.quantile(1.0), std::out_of_range);
}

TEST(HijackDurationTest, MedianMatchesMu) {
  const HijackDurationModel model;
  EXPECT_NEAR(model.quantile(0.5).as_minutes(), std::exp(model.mu()), 0.5);
}

TEST(HijackDurationTest, SamplesFollowCdf) {
  const HijackDurationModel model;
  Rng rng(42);
  int below_median = 0;
  const int n = 20000;
  const auto median = model.quantile(0.5);
  for (int i = 0; i < n; ++i) {
    if (model.sample(rng) <= median) ++below_median;
  }
  EXPECT_NEAR(static_cast<double>(below_median) / n, 0.5, 0.02);
}

TEST(HijackDurationTest, RejectsBadSigma) {
  EXPECT_THROW(HijackDurationModel(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(HijackDurationModel(1.0, -1.0), std::invalid_argument);
}

// ------------------------------------------------------ LegacyPipeline

core::Config victim_config() {
  core::Config config;
  config.add_owned(net::Prefix::must_parse("10.0.0.0/23"), {65001});
  return config;
}

feeds::Observation hijack_obs(double delivered_at) {
  feeds::Observation obs;
  obs.type = feeds::ObservationType::kAnnouncement;
  obs.source = "batch-15m";
  obs.vantage = 9;
  obs.prefix = net::Prefix::must_parse("10.0.0.0/23");
  obs.attrs.as_path = bgp::AsPath({9, 666});
  obs.event_time = SimTime::at_seconds(delivered_at - 600);
  obs.delivered_at = SimTime::at_seconds(delivered_at);
  return obs;
}

/// Delivers one observation as a batch of one, as a feed would.
void feed(LegacyPipeline& pipeline, const feeds::Observation& obs) {
  pipeline.inlet()({&obs, 1});
}

TEST(LegacyPipelineTest, TimelineStacksDelays) {
  const auto config = victim_config();
  sim::Simulator sim;
  OperatorModel model;
  model.verification_min = SimDuration::minutes(10);
  model.verification_max = SimDuration::minutes(10);  // deterministic
  model.mitigation_min = SimDuration::minutes(30);
  model.mitigation_max = SimDuration::minutes(30);
  LegacyPipeline pipeline(config, sim, model, Rng(1), "batch+manual");

  feed(pipeline, hijack_obs(900));
  const auto timings = pipeline.first_hijack();
  ASSERT_TRUE(timings);
  EXPECT_EQ(timings->data_available_at, SimTime::at_seconds(900));
  EXPECT_EQ(timings->verified_at, SimTime::at_seconds(900 + 600));
  EXPECT_EQ(timings->mitigation_done_at, SimTime::at_seconds(900 + 600 + 1800));
  EXPECT_EQ(pipeline.name(), "batch+manual");
}

TEST(LegacyPipelineTest, OnlyFirstHijackRecorded) {
  const auto config = victim_config();
  sim::Simulator sim;
  LegacyPipeline pipeline(config, sim, OperatorModel{}, Rng(2), "x");
  feed(pipeline, hijack_obs(900));
  const auto first = pipeline.first_hijack();
  auto second_obs = hijack_obs(2000);
  second_obs.attrs.as_path = bgp::AsPath({9, 777});  // different offender
  feed(pipeline, second_obs);
  EXPECT_EQ(pipeline.first_hijack()->data_available_at, first->data_available_at);
}

TEST(LegacyPipelineTest, LegitimateTrafficNeverTriggers) {
  const auto config = victim_config();
  sim::Simulator sim;
  LegacyPipeline pipeline(config, sim, OperatorModel{}, Rng(3), "x");
  auto obs = hijack_obs(900);
  obs.attrs.as_path = bgp::AsPath({9, 65001});
  feed(pipeline, obs);
  EXPECT_FALSE(pipeline.first_hijack());
}

TEST(LegacyPipelineTest, DelaysSampledWithinModelBounds) {
  const auto config = victim_config();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sim::Simulator sim;
    OperatorModel model;  // defaults: verify 10-40 min, mitigate 15-60 min
    LegacyPipeline pipeline(config, sim, model, Rng(seed), "x");
    feed(pipeline, hijack_obs(900));
    const auto t = pipeline.first_hijack();
    ASSERT_TRUE(t);
    const auto verify = t->verified_at - t->data_available_at;
    const auto mitigate = t->mitigation_done_at - t->verified_at;
    EXPECT_GE(verify, model.verification_min);
    EXPECT_LE(verify, model.verification_max);
    EXPECT_GE(mitigate, model.mitigation_min);
    EXPECT_LE(mitigate, model.mitigation_max);
  }
}

}  // namespace
}  // namespace artemis::baseline
