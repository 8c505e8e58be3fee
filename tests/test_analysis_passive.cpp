// Unit tests: §5.2.2 passive comparison rules.
#include <gtest/gtest.h>

#include "analysis/passive.h"
#include "ditl/target_stream.h"
#include "ditl/world.h"

namespace {

using namespace cd;
using analysis::PassiveCapture;
using analysis::Records;
using net::IpAddr;

scanner::TargetRecord zero_range_record(const char* addr,
                                        std::uint16_t port) {
  scanner::TargetRecord rec;
  rec.target = IpAddr::must_parse(addr);
  rec.asn = 1;
  rec.first_hit_time = 1;
  rec.categories_hit = {scanner::SourceCategory::kOtherPrefix};
  rec.ports_v4.assign(10, port);
  return rec;
}

TEST(Passive, ClassifiesThreeWays) {
  Records records;
  records.emplace(IpAddr::must_parse("20.0.0.1"),
                  zero_range_record("20.0.0.1", 53));  // already fixed
  records.emplace(IpAddr::must_parse("20.0.0.2"),
                  zero_range_record("20.0.0.2", 53));  // regressed
  records.emplace(IpAddr::must_parse("20.0.0.3"),
                  zero_range_record("20.0.0.3", 53));  // no data
  records.emplace(IpAddr::must_parse("20.0.0.4"),
                  zero_range_record("20.0.0.4", 53));  // thin, mismatched

  PassiveCapture capture;
  capture[IpAddr::must_parse("20.0.0.1")] =
      std::vector<std::uint16_t>(12, 53);
  capture[IpAddr::must_parse("20.0.0.2")] = {1024, 5000, 60000, 2000, 3000,
                                             4000, 7000, 9000, 11000, 13000};
  capture[IpAddr::must_parse("20.0.0.4")] = {9999, 8888};  // neither rule

  const auto cmp = analysis::compare_with_passive(records, capture);
  EXPECT_EQ(cmp.zero_now, 4u);
  EXPECT_EQ(cmp.zero_then, 1u);
  EXPECT_EQ(cmp.varied_then, 1u);
  EXPECT_EQ(cmp.insufficient, 2u);
}

TEST(Passive, Condition2FewSamplesSamePortSuffices) {
  Records records;
  records.emplace(IpAddr::must_parse("20.0.0.1"),
                  zero_range_record("20.0.0.1", 4053));
  PassiveCapture capture;
  // Only 3 old queries, but all on exactly the active fixed port.
  capture[IpAddr::must_parse("20.0.0.1")] = {4053, 4053, 4053};
  const auto cmp = analysis::compare_with_passive(records, capture);
  EXPECT_EQ(cmp.zero_then, 1u);
  EXPECT_EQ(cmp.insufficient, 0u);
}

TEST(Passive, NonZeroRangeResolversIgnored) {
  Records records;
  auto rec = zero_range_record("20.0.0.1", 1000);
  rec.ports_v4 = {1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 9500};
  records.emplace(rec.target, rec);
  const auto cmp = analysis::compare_with_passive(records, {});
  EXPECT_EQ(cmp.zero_now, 0u);
}

TEST(Passive, PlanGeneratesComparableHistory) {
  const auto world =
      ditl::generate_world(ditl::build_campaign_plan(ditl::small_world_spec()));
  const analysis::PassiveCapture capture = ditl::passive_capture(*world->plan);
  EXPECT_FALSE(capture.empty());
  // Every capture entry belongs to a planted resolver, and holds either a
  // comparable history (12 queries) or an insufficient one (3).
  for (const auto& [addr, ports] : capture) {
    EXPECT_TRUE(world->truth_resolvers.count(addr)) << addr.to_string();
    EXPECT_TRUE(ports.size() == 3 || ports.size() == 12)
        << addr.to_string() << ": " << ports.size() << " ports";
  }
}

}  // namespace
