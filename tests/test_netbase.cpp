// Unit tests for the netbase utility layer.
#include <gtest/gtest.h>

#include <set>

#include "netbase/cli.hpp"
#include "netbase/ids.hpp"
#include "netbase/ip.hpp"
#include "netbase/rng.hpp"
#include "netbase/stats.hpp"
#include "netbase/strings.hpp"
#include "netbase/sysinfo.hpp"
#include "netbase/table.hpp"

namespace {

using nb::Ipv4Address;
using nb::Prefix;
using nb::RouterId;

TEST(Ipv4Address, ParsesDottedQuad) {
  auto addr = Ipv4Address::parse("10.1.2.3");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->value(), 0x0a010203u);
  EXPECT_EQ(addr->str(), "10.1.2.3");
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.256").has_value());
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3 ").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10..2.3").has_value());
}

TEST(Ipv4Address, OrderingFollowsValue) {
  EXPECT_LT(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2));
  EXPECT_LT(Ipv4Address(9, 255, 255, 255), Ipv4Address(10, 0, 0, 0));
}

TEST(PrefixTest, ConstructionMasksAndValidates) {
  Prefix p{Ipv4Address(192, 168, 4, 0), 24};
  EXPECT_EQ(p.str(), "192.168.4.0/24");
  EXPECT_THROW((Prefix{Ipv4Address(192, 168, 4, 1), 24}),
               std::invalid_argument);
  EXPECT_THROW((Prefix{Ipv4Address(0, 0, 0, 0), 33}), std::invalid_argument);
}

TEST(PrefixTest, ParseRoundTrip) {
  auto p = Prefix::parse("10.20.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 16);
  EXPECT_EQ(p->str(), "10.20.0.0/16");
  EXPECT_FALSE(Prefix::parse("10.20.0.1/16").has_value());  // host bits
  EXPECT_FALSE(Prefix::parse("10.20.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.20.0.0").has_value());
}

TEST(PrefixTest, ContainsAndCovers) {
  Prefix p{Ipv4Address(10, 1, 0, 0), 16};
  EXPECT_TRUE(p.contains(Ipv4Address(10, 1, 200, 3)));
  EXPECT_FALSE(p.contains(Ipv4Address(10, 2, 0, 0)));
  EXPECT_TRUE(p.covers(Prefix{Ipv4Address(10, 1, 7, 0), 24}));
  EXPECT_FALSE(p.covers(Prefix{Ipv4Address(10, 0, 0, 0), 8}));
  Prefix zero{Ipv4Address(0, 0, 0, 0), 0};
  EXPECT_TRUE(zero.contains(Ipv4Address(255, 255, 255, 255)));
}

TEST(PrefixTest, ForAsnIsDisjointPerAsn) {
  std::set<Prefix> prefixes;
  for (std::uint32_t asn = 1; asn < 500; ++asn)
    prefixes.insert(Prefix::for_asn(asn));
  EXPECT_EQ(prefixes.size(), 499u);
}

TEST(RouterIdTest, EncodesAsnAndIndex) {
  RouterId id{701, 3};
  EXPECT_EQ(id.asn(), 701u);
  EXPECT_EQ(id.index(), 3u);
  EXPECT_EQ(id.str(), "701.3");
  EXPECT_TRUE(id.valid());
  EXPECT_FALSE(nb::kInvalidRouterId.valid());
}

TEST(RouterIdTest, OrderingMatchesTieBreakSemantics) {
  // Lower ASN wins; within an AS, lower index wins.
  EXPECT_LT(RouterId(100, 9), RouterId(101, 0));
  EXPECT_LT(RouterId(100, 0), RouterId(100, 1));
}

TEST(SysInfoTest, ResolveThreadsCentralizesTheZeroConvention) {
  // 0 = "use the hardware": at least one thread, stable across calls, and
  // the single place every --threads consumer resolves through.
  EXPECT_GE(nb::resolve_threads(0), 1u);
  EXPECT_EQ(nb::resolve_threads(0), nb::resolve_threads(0));
  EXPECT_LE(nb::resolve_threads(0), nb::kMaxResolvedThreads);
  // Explicit requests pass through unchanged up to the clamp.
  EXPECT_EQ(nb::resolve_threads(1), 1u);
  EXPECT_EQ(nb::resolve_threads(7), 7u);
  EXPECT_EQ(nb::resolve_threads(nb::kMaxResolvedThreads),
            nb::kMaxResolvedThreads);
  // A runaway request (corrupt config, unit mix-up) is clamped, not obeyed.
  EXPECT_EQ(nb::resolve_threads(1u << 20), nb::kMaxResolvedThreads);
}

TEST(RngTest, DeterministicForSeed) {
  nb::Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  nb::Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowIsInRangeAndRoughlyUniform) {
  nb::Rng rng{7};
  std::array<int, 10> counts{};
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 200);
}

TEST(RngTest, RangeInclusive) {
  nb::Rng rng{7};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.range(2, 4);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 4);
    saw_lo |= v == 2;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  nb::Rng rng{3};
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  nb::Rng rng{3};
  std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted(weights), 1u);
}

TEST(RngTest, ParetoAtLeastOne) {
  nb::Rng rng{3};
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(1.5), 1.0);
}

TEST(RngTest, ShuffleIsPermutation) {
  nb::Rng rng{5};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  nb::Rng a{9};
  nb::Rng child = a.fork(1);
  EXPECT_NE(a(), child());
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = nb::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  auto parts = nb::split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(nb::trim("  x  "), "x");
  EXPECT_EQ(nb::trim(""), "");
  EXPECT_EQ(nb::trim(" \t\n "), "");
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(nb::parse_u64("123").value(), 123u);
  EXPECT_FALSE(nb::parse_u64("12x").has_value());
  EXPECT_FALSE(nb::parse_u64("").has_value());
  EXPECT_FALSE(nb::parse_u64("-1").has_value());
}

TEST(Strings, FmtCount) {
  EXPECT_EQ(nb::fmt_count(0), "0");
  EXPECT_EQ(nb::fmt_count(95), "95");  // regression: no stray separator
  EXPECT_EQ(nb::fmt_count(100), "100");
  EXPECT_EQ(nb::fmt_count(1000), "1,000");
  EXPECT_EQ(nb::fmt_count(4730222), "4,730,222");
}

TEST(Strings, FmtPercentAndFixed) {
  EXPECT_EQ(nb::fmt_percent(0.235), "23.5%");
  EXPECT_EQ(nb::fmt_fixed(1.005, 1), "1.0");
}

TEST(HistogramTest, PercentilesAndCounts) {
  nb::Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<std::uint64_t>(i));
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.percentile(50), 50u);
  EXPECT_EQ(h.percentile(90), 90u);
  EXPECT_EQ(h.percentile(100), 100u);
  EXPECT_EQ(h.count_at_least(91), 10u);
  EXPECT_DOUBLE_EQ(h.fraction_at_least(51), 0.5);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
}

TEST(HistogramTest, AddWithMultiplicity) {
  nb::Histogram h;
  h.add(2, 5);
  h.add(7, 5);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.count_of(2), 5u);
  EXPECT_EQ(h.percentile(50), 2u);
  EXPECT_EQ(h.percentile(51), 7u);
}

TEST(HistogramTest, RenderFoldsTail) {
  nb::Histogram h;
  for (std::uint64_t v : {1, 2, 3, 40, 41, 90}) h.add(v);
  std::string text = h.render(4);
  EXPECT_NE(text.find("1 "), std::string::npos);
  EXPECT_NE(text.find("-"), std::string::npos);  // folded ranges
}

TEST(StatsTest, PercentileOfSamples) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(nb::percentile(xs, 0), 1);
  EXPECT_DOUBLE_EQ(nb::percentile(xs, 50), 3);
  EXPECT_DOUBLE_EQ(nb::percentile(xs, 100), 5);
  // Nearest rank at n = 1, 100 and 400: ys[i] = i + 1, so a percentile's
  // value is its rank ceil(p/100 * n).
  EXPECT_DOUBLE_EQ(nb::percentile({7.5}, 0), 7.5);
  EXPECT_DOUBLE_EQ(nb::percentile({7.5}, 99), 7.5);
  EXPECT_DOUBLE_EQ(nb::percentile({7.5}, 100), 7.5);
  std::vector<double> ys(400);
  for (std::size_t i = 0; i < ys.size(); ++i) ys[i] = static_cast<double>(i + 1);
  EXPECT_DOUBLE_EQ(nb::percentile(ys, 50), 200);
  EXPECT_DOUBLE_EQ(nb::percentile(ys, 99), 396);  // 4 samples (1%) above
  EXPECT_DOUBLE_EQ(nb::percentile(ys, 99.9), 400);
  ys.resize(100);
  EXPECT_DOUBLE_EQ(nb::percentile(ys, 0), 1);
  EXPECT_DOUBLE_EQ(nb::percentile(ys, 50), 50);
  EXPECT_DOUBLE_EQ(nb::percentile(ys, 99), 99);
  EXPECT_DOUBLE_EQ(nb::percentile(ys, 100), 100);
}

TEST(StatsTest, FitLineRecoversSlope) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  auto fit = nb::fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(CliTest, ParsesFlagsBothStyles) {
  // Note: a bare "--flag value" pair binds the value to the flag, so the
  // positional argument goes first.
  const char* argv[] = {"prog", "positional", "--seed=7", "--scale", "0.5",
                        "--verbose"};
  nb::Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_u64("seed", 1), 7u);
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.5);
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_u64("missing", 9), 9u);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(CliTest, UnusedDetection) {
  const char* argv[] = {"prog", "--typo=1"};
  nb::Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.unused().size(), 1u);
  (void)cli.get_u64("typo", 0);
  EXPECT_TRUE(cli.unused().empty());
}

TEST(TableTest, AlignsColumns) {
  nb::TextTable t({"a", "long-header"});
  t.add_row({"xx", "1"});
  t.add_rule();
  t.add_row({"y", "22"});
  std::string text = t.render();
  EXPECT_NE(text.find("a   long-header"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

}  // namespace
