// TailSeries: the incremental append path must stay BITWISE identical
// to bulk-building the same fix sequence through MappingBuilder with
// the generator slicing convention (interior units right-open, last
// unit right-closed, coefficients from UPoint::FromEndpoints). These
// tests enforce the identity stepwise — after EVERY absorbed fix — so
// a divergence pins the exact fix that introduced it.

#include "ingest/tail.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/interval.h"
#include "temporal/mapping.h"
#include "temporal/upoint.h"

namespace modb {
namespace ingest {
namespace {

struct Fix {
  Instant t;
  Point p;
};

// A deterministic walk with a mid-stream constant-velocity stretch
// (fixes 4..7 continue the same motion), so the builder's merge rule is
// exercised, not just plain appends.
std::vector<Fix> Walk() {
  std::vector<Fix> fixes;
  fixes.push_back({0.0, Point(0, 0)});
  fixes.push_back({1.0, Point(1, 2)});
  fixes.push_back({2.5, Point(-0.5, 3)});
  fixes.push_back({4.0, Point(1, 1)});
  // Constant velocity (2, -1) per unit time across three fixes.
  fixes.push_back({5.0, Point(3, 0)});
  fixes.push_back({6.0, Point(5, -1)});
  fixes.push_back({7.0, Point(7, -2)});
  fixes.push_back({9.0, Point(0, 0)});
  return fixes;
}

// The bulk reference: slice fixes [0, n) through MappingBuilder exactly
// as gen/trajectory_gen.cc does.
std::vector<UPoint> BulkUnits(const std::vector<Fix>& fixes, std::size_t n) {
  MappingBuilder<UPoint> builder;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const bool last = i + 2 == n;
    Result<TimeInterval> iv =
        TimeInterval::Make(fixes[i].t, fixes[i + 1].t, true, last);
    EXPECT_TRUE(iv.ok());
    Result<UPoint> u =
        UPoint::FromEndpoints(*iv, fixes[i].p, fixes[i + 1].p);
    EXPECT_TRUE(u.ok());
    EXPECT_TRUE(builder.Append(*u).ok());
  }
  Result<Mapping<UPoint>> m = builder.Build();
  EXPECT_TRUE(m.ok());
  return std::vector<UPoint>(m->units().begin(), m->units().end());
}

// Bitwise equality: every double compared by representation (memcmp),
// so -0.0 vs 0.0 or any rounding difference fails.
void ExpectBitwiseEqual(const std::vector<UPoint>& got,
                        const std::vector<UPoint>& want,
                        std::size_t prefix_len) {
  ASSERT_EQ(got.size(), want.size()) << "after " << prefix_len << " fixes";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TimeInterval& gi = got[i].interval();
    const TimeInterval& wi = want[i].interval();
    const double gd[4] = {gi.start(), gi.end(), got[i].motion().x0,
                          got[i].motion().y0};
    const double wd[4] = {wi.start(), wi.end(), want[i].motion().x0,
                          want[i].motion().y0};
    EXPECT_EQ(0, std::memcmp(gd, wd, sizeof gd))
        << "unit " << i << " after " << prefix_len << " fixes";
    const double gm[2] = {got[i].motion().x1, got[i].motion().y1};
    const double wm[2] = {want[i].motion().x1, want[i].motion().y1};
    EXPECT_EQ(0, std::memcmp(gm, wm, sizeof gm))
        << "unit " << i << " after " << prefix_len << " fixes";
    EXPECT_EQ(gi.left_closed(), wi.left_closed()) << "unit " << i;
    EXPECT_EQ(gi.right_closed(), wi.right_closed()) << "unit " << i;
  }
}

TEST(TailSeries, StepwiseBitwiseIdentityWithBulkBuilder) {
  const std::vector<Fix> fixes = Walk();
  TailSeries tail;
  for (std::size_t n = 1; n <= fixes.size(); ++n) {
    ASSERT_TRUE(tail.Absorb(fixes[n - 1].t, fixes[n - 1].p).ok());
    ExpectBitwiseEqual(tail.units(), BulkUnits(fixes, n), n);
  }
  // The constant-velocity stretch merged: strictly fewer units than
  // fix gaps proves the merge rule fired at least once.
  EXPECT_LT(tail.NumUnits(), fixes.size() - 1);
}

TEST(TailSeries, SealingNeverPerturbsTheIdentity) {
  const std::vector<Fix> fixes = Walk();
  TailSeries tail;
  for (std::size_t n = 1; n <= fixes.size(); ++n) {
    ASSERT_TRUE(tail.Absorb(fixes[n - 1].t, fixes[n - 1].p).ok());
    tail.Seal();  // seal after EVERY fix: the most adversarial policy
    if (tail.NumUnits() > 0) {
      EXPECT_EQ(tail.sealed(), tail.NumUnits() - 1)
          << "the newest unit must stay hot";
    }
    ExpectBitwiseEqual(tail.units(), BulkUnits(fixes, n), n);
  }
}

TEST(TailSeries, StaleOrDuplicateTimestampIsOutOfRangeAndLeavesStateAlone) {
  TailSeries tail;
  ASSERT_TRUE(tail.Absorb(1.0, Point(0, 0)).ok());
  ASSERT_TRUE(tail.Absorb(2.0, Point(1, 1)).ok());
  const std::size_t units_before = tail.NumUnits();
  EXPECT_EQ(StatusCode::kOutOfRange, tail.Absorb(2.0, Point(2, 2)).code());
  EXPECT_EQ(StatusCode::kOutOfRange, tail.Absorb(1.5, Point(2, 2)).code());
  EXPECT_EQ(units_before, tail.NumUnits());
  EXPECT_EQ(2.0, tail.last_time());
}

TEST(TailSeries, MaterializeMatchesBulkMapping) {
  const std::vector<Fix> fixes = Walk();
  TailSeries tail;
  for (const Fix& f : fixes) ASSERT_TRUE(tail.Absorb(f.t, f.p).ok());
  Result<MovingPoint> mp = tail.Materialize();
  ASSERT_TRUE(mp.ok());
  const std::vector<UPoint> bulk = BulkUnits(fixes, fixes.size());
  ExpectBitwiseEqual(
      std::vector<UPoint>(mp->units().begin(), mp->units().end()), bulk,
      fixes.size());
}

TEST(TailSeries, ResumeContinuesBitwiseIdentically) {
  const std::vector<Fix> fixes = Walk();
  const std::size_t cut = 5;
  TailSeries full;
  TailSeries before;
  for (std::size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(full.Absorb(fixes[i].t, fixes[i].p).ok());
    ASSERT_TRUE(before.Absorb(fixes[i].t, fixes[i].p).ok());
  }
  Result<MovingPoint> persisted = before.Materialize();
  ASSERT_TRUE(persisted.ok());
  Result<TailSeries> resumed = TailSeries::Resume(
      *persisted, before.last_time(), before.last_point());
  ASSERT_TRUE(resumed.ok());
  // Same persisted units, and the exact anchor survived.
  ExpectBitwiseEqual(resumed->units(), before.units(), cut);
  EXPECT_EQ(before.last_time(), resumed->last_time());
  for (std::size_t i = cut; i < fixes.size(); ++i) {
    ASSERT_TRUE(full.Absorb(fixes[i].t, fixes[i].p).ok());
    ASSERT_TRUE(resumed->Absorb(fixes[i].t, fixes[i].p).ok());
    ExpectBitwiseEqual(resumed->units(), full.units(), i + 1);
  }
}

TEST(TailSeries, SingleFixHasAnchorButNoUnits) {
  TailSeries tail;
  ASSERT_TRUE(tail.Absorb(3.0, Point(7, -7)).ok());
  EXPECT_TRUE(tail.has_fix());
  EXPECT_EQ(0u, tail.NumUnits());
  Result<MovingPoint> mp = tail.Materialize();
  ASSERT_TRUE(mp.ok());
  EXPECT_EQ(0u, mp->units().size());
}


// A long walk whose heading repeats every tenth step, so some fixes
// merge into one unit and block b's units are not fixes
// [256b, 256(b+1)).
std::vector<Fix> LongWalk(std::size_t n) {
  std::vector<Fix> fixes;
  Point p(0, 0);
  double dx = 1, dy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    fixes.push_back({double(i), p});
    if (i % 10 != 0) {  // consecutive headings differ (7 and 3 mod 11, 7)
      dx = double(int(i * 7 % 11) - 5) * 0.5;
      dy = double(int(i * 3 % 7) - 3) * 0.75;
    }
    p = Point(p.x + dx, p.y + dy);
  }
  return fixes;
}

void ExpectSameCube(const Cube& got, const Cube& want, const std::string& at) {
  const double g[6] = {got.rect.min_x, got.rect.min_y, got.rect.max_x,
                       got.rect.max_y, got.min_t,      got.max_t};
  const double w[6] = {want.rect.min_x, want.rect.min_y, want.rect.max_x,
                       want.rect.max_y, want.min_t,      want.max_t};
  EXPECT_EQ(0, std::memcmp(g, w, sizeof g)) << at;
}

// Every full block below the frontier has its cube, and each is the
// union of its units' cubes.
void ExpectBlocksAreUnitUnions(const TailSeries& tail, const std::string& at) {
  ASSERT_EQ(tail.sealed_blocks().size(), tail.sealed() / kUnitsPerBlock)
      << at;
  for (std::size_t b = 0; b < tail.sealed_blocks().size(); ++b) {
    Cube want;
    for (std::size_t u = b * kUnitsPerBlock; u < (b + 1) * kUnitsPerBlock;
         ++u) {
      want.Extend(tail.units()[u].BoundingCube());
    }
    ExpectSameCube(tail.sealed_blocks()[b], want,
                   at + " block " + std::to_string(b));
  }
}

TEST(TailSeries, SealedBlockCubesAreUnitUnionsAndSurviveResume) {
  const std::vector<Fix> fixes = LongWalk(1400);
  TailSeries tail;
  for (std::size_t i = 0; i < fixes.size(); ++i) {
    ASSERT_TRUE(tail.Absorb(fixes[i].t, fixes[i].p).ok());
    if (i % 7 == 6) {
      tail.Seal();
      ExpectBlocksAreUnitUnions(tail, "after fix " + std::to_string(i));
    }
  }
  tail.Seal();
  ExpectBlocksAreUnitUnions(tail, "sealed");
  ASSERT_GE(tail.sealed_blocks().size(), 3u);
  ASSERT_LT(tail.NumUnits(), fixes.size() - 1) << "no unit merged";

  Result<MovingPoint> persisted = tail.Materialize();
  ASSERT_TRUE(persisted.ok());
  Result<TailSeries> resumed =
      TailSeries::Resume(*persisted, tail.last_time(), tail.last_point());
  ASSERT_TRUE(resumed.ok());
  ASSERT_EQ(resumed->sealed_blocks().size(), tail.sealed_blocks().size());
  for (std::size_t b = 0; b < tail.sealed_blocks().size(); ++b) {
    ExpectSameCube(resumed->sealed_blocks()[b], tail.sealed_blocks()[b],
                   "resumed block " + std::to_string(b));
  }

  // Both keep growing the same blocks.
  Point p = tail.last_point();
  for (int i = 1; i <= 600; ++i) {
    p = Point(p.x + (i % 2 == 0 ? 1.0 : -0.5), p.y + 0.25);
    const Instant t = tail.last_time() + 1;
    ASSERT_TRUE(tail.Absorb(t, p).ok());
    ASSERT_TRUE(resumed->Absorb(t, p).ok());
  }
  tail.Seal();
  resumed->Seal();
  ExpectBlocksAreUnitUnions(*resumed, "resumed, extended");
  ASSERT_EQ(resumed->sealed_blocks().size(), tail.sealed_blocks().size());
  for (std::size_t b = 0; b < tail.sealed_blocks().size(); ++b) {
    ExpectSameCube(resumed->sealed_blocks()[b], tail.sealed_blocks()[b],
                   "extended block " + std::to_string(b));
  }
}

}  // namespace
}  // namespace ingest
}  // namespace modb
