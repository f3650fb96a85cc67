// Differential tests for EverCloserThan: the fused one-pass decision of
// Q2's val(initial(atmin(distance(p, q)))) < d must return exactly what
// the composed operators return — on every R-tree candidate pair of the
// generated planes, at distances on both sides of and exactly at each
// pair's minimum, on hand-built edge cases (merged units, coincident
// points, open unit ends, jumps, single instants), and through the
// served index join.

#include "temporal/lifted_ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "db/modb.h"
#include "db/query.h"
#include "gen/flights_gen.h"
#include "serve/wire.h"

namespace modb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The reference: the paper's expression, composed from the general
// operators exactly as written in Section 2.
bool Composed(const MovingPoint& p, const MovingPoint& q, double d) {
  Result<MovingReal> dist = LiftedDistance(p, q);
  if (!dist.ok() || dist->IsEmpty()) return false;
  Result<MovingReal> am = AtMin(*dist);
  return am.ok() && !am->IsEmpty() && am->Initial().val() < d;
}

// The value the composed predicate compares with d, or nullopt when it
// answers false for every d. Composed(p, q, d) == (v && *v < d).
std::optional<double> ComposedValue(const MovingPoint& p,
                                    const MovingPoint& q) {
  Result<MovingReal> dist = LiftedDistance(p, q);
  if (!dist.ok() || dist->IsEmpty()) return std::nullopt;
  Result<MovingReal> am = AtMin(*dist);
  if (!am.ok() || am->IsEmpty()) return std::nullopt;
  return am->Initial().val();
}

TimeInterval TI(double s, double e, bool lc = true, bool rc = true) {
  return *TimeInterval::Make(s, e, lc, rc);
}

UPoint Leg(TimeInterval iv, Point from, Point to) {
  return *UPoint::FromEndpoints(iv, from, to);
}

MovingPoint MP(std::vector<UPoint> units) {
  Result<MovingPoint> m = MovingPoint::Make(std::move(units));
  EXPECT_TRUE(m.ok()) << m.status();
  return m.ok() ? *std::move(m) : MovingPoint();
}

// Asserts fused == composed at d, both orientations of the pair.
void ExpectAgrees(const MovingPoint& p, const MovingPoint& q, double d) {
  EXPECT_EQ(EverCloserThan(p, q, d), Composed(p, q, d)) << "d = " << d;
  EXPECT_EQ(EverCloserThan(q, p, d), Composed(q, p, d)) << "d = " << d
                                                        << " (swapped)";
}

// The distances every hand-built case is probed at: fixed ones, plus the
// composed value itself, its neighbouring doubles and its guard band.
std::vector<double> Probes(const MovingPoint& p, const MovingPoint& q) {
  std::vector<double> ds = {-1, 0, 1e-12, 0.5, 1, 10, 50, 400, kInf,
                            std::numeric_limits<double>::quiet_NaN()};
  if (std::optional<double> v = ComposedValue(p, q)) {
    for (double x : {*v, std::nextafter(*v, -kInf), std::nextafter(*v, kInf),
                     *v + 1e-8, *v - 1e-8, *v + 1e-3, *v - 1e-3}) {
      ds.push_back(x);
    }
  }
  return ds;
}

void ExpectAgreesEverywhere(const MovingPoint& p, const MovingPoint& q) {
  for (double d : Probes(p, q)) ExpectAgrees(p, q, d);
}

// ---------------------------------------------------------------------------
// Every R-tree candidate pair of the generated planes.
// ---------------------------------------------------------------------------

Relation Planes(int flights, std::uint64_t seed) {
  FlightsOptions gen;
  gen.num_flights = flights;
  gen.seed = seed;
  Result<Relation> planes = GeneratePlanes(gen);
  EXPECT_TRUE(planes.ok()) << planes.status();
  return *std::move(planes);
}

const MovingPoint& Flight(const Relation& rel, std::size_t i) {
  return std::get<MovingPoint>(rel.tuple(i)[kFlightAttrFlight]);
}

// The distinct (i < j) pairs the R-tree yields when probed with an
// expansion of `expand` — the pairs the served join hands to its
// predicate at any distance up to `expand`.
std::vector<std::pair<std::size_t, std::size_t>> CandidatePairs(
    const Relation& planes, double expand) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  Result<Relation> none = IndexJoinOnMovingPoint(
      planes, kFlightAttrFlight, planes, kFlightAttrFlight, expand,
      [&pairs](const Tuple&, std::size_t i, const Tuple&, std::size_t j) {
        if (i < j) pairs.emplace_back(i, j);
        return false;
      });
  EXPECT_TRUE(none.ok()) << none.status();
  return pairs;
}

class PlanesPairs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanesPairs, EveryCandidatePairAgreesWithTheComposition) {
  const Relation planes = Planes(1024, GetParam());
  const auto pairs = CandidatePairs(planes, 400);
  ASSERT_GT(pairs.size(), 10000u);

  const std::vector<double> fixed = {0, 1, 10, 50, 400, kInf};
  std::size_t decided = 0, decisions = 0, hits50 = 0;
  for (const auto& [i, j] : pairs) {
    const MovingPoint& p = Flight(planes, i);
    const MovingPoint& q = Flight(planes, j);
    const std::optional<double> v = ComposedValue(p, q);
    auto composed = [&v](double d) { return v.has_value() && *v < d; };
    // The hoisted reference must be the expression itself.
    ASSERT_EQ(composed(50), Composed(p, q, 50)) << i << "," << j;

    std::vector<double> ds = fixed;
    if (v) {
      ds.push_back(*v);
      ds.push_back(std::nextafter(*v, -kInf));
      ds.push_back(std::nextafter(*v, kInf));
    }
    for (double d : ds) {
      ASSERT_EQ(EverCloserThan(p, q, d), composed(d))
          << "pair " << i << "," << j << " d = " << d;
      const std::optional<bool> fast =
          lifted_internal::EverCloserFastPath(p, q, d);
      if (fast) {
        ASSERT_EQ(*fast, composed(d)) << i << "," << j << " d = " << d;
      }
    }
    for (double d : {1.0, 10.0, 50.0, 400.0}) {
      ++decisions;
      if (lifted_internal::EverCloserFastPath(p, q, d)) ++decided;
    }
    if (composed(50)) ++hits50;
  }
  // The join must find close pairs, and the fused walk (not the
  // fallback) must decide nearly all of them away from the band.
  EXPECT_GT(hits50, 0u);
  EXPECT_GE(double(decided), 0.99 * double(decisions))
      << decided << " of " << decisions << " decided without fallback";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanesPairs, ::testing::Values(99u, 7u));

// ---------------------------------------------------------------------------
// Hand-built cases.
// ---------------------------------------------------------------------------

TEST(EverCloserCases, AdjacentEqualCoefficientUnitsMerge) {
  // Both planes turn at t = 1 in lockstep, 5 apart: the two unit pairs
  // give identical squared-distance coefficients, which the composed
  // distance merges into one constant unit.
  MovingPoint p = MP({Leg(TI(0, 1), Point(0, 0), Point(1, 0)),
                      Leg(TI(1, 2, false, true), Point(1, 0), Point(1, 1))});
  MovingPoint q = MP({Leg(TI(0, 1), Point(0, 5), Point(1, 5)),
                      Leg(TI(1, 2, false, true), Point(1, 5), Point(1, 6))});
  Result<MovingReal> dist = LiftedDistance(p, q);
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->NumUnits(), 1u);
  EXPECT_EQ(EverCloserThan(p, q, 6), true);
  EXPECT_EQ(EverCloserThan(p, q, 5), false);
  EXPECT_EQ(lifted_internal::EverCloserFastPath(p, q, 6),
            std::optional<bool>(true));
  EXPECT_EQ(lifted_internal::EverCloserFastPath(p, q, 4),
            std::optional<bool>(false));
  ExpectAgreesEverywhere(p, q);
}

TEST(EverCloserCases, MergedUnitWithAnInteriorVertex) {
  // p turns at t = 1 and q starts moving then, by the same velocity
  // change, so p - q = (t - 1, 1) throughout: one merged unit whose
  // parabola vertex (the minimum, 1) sits on the old unit boundary.
  MovingPoint p = MP({Leg(TI(0, 1), Point(0, 0), Point(1, 0)),
                      Leg(TI(1, 2, false, true), Point(1, 0), Point(1, 2))});
  MovingPoint q = MP({Leg(TI(0, 1), Point(1, -1), Point(1, -1)),
                      Leg(TI(1, 2, false, true), Point(1, -1), Point(0, 1))});
  Result<MovingReal> dist = LiftedDistance(p, q);
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->NumUnits(), 1u);
  EXPECT_EQ(lifted_internal::EverCloserFastPath(p, q, 1.5),
            std::optional<bool>(true));
  EXPECT_EQ(lifted_internal::EverCloserFastPath(p, q, 0.5),
            std::optional<bool>(false));
  ExpectAgreesEverywhere(p, q);
}

TEST(EverCloserCases, MergingDropsTheOldUnitBoundaryAsACandidate) {
  // p - q = (1 + e·(2 - t), 0) on (0, 2) across a lockstep turn at t = 1:
  // one merged unit, open at both ends, with no vertex inside. Its end
  // values are within tol of the minimum but no unit holds them, so
  // atmin is empty and the answer is false — while the old boundary
  // t = 1, also within tol, would have made it non-empty.
  const double e = std::ldexp(1.0, -33);
  MovingPoint p = MP({Leg(TI(0, 1, false, true), Point(0, 0), Point(1, 0)),
                      Leg(TI(1, 2, false, false), Point(1, 0), Point(1, 1))});
  MovingPoint q =
      MP({Leg(TI(0, 1, false, true), Point(-1 - 2 * e, 0), Point(-e, 0)),
          Leg(TI(1, 2, false, false), Point(-e, 0), Point(0, 1))});
  Result<MovingReal> dist = LiftedDistance(p, q);
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->NumUnits(), 1u);
  EXPECT_FALSE(EverCloserThan(p, q, 10));
  ExpectAgreesEverywhere(p, q);
}

TEST(EverCloserCases, NearTieMinimaInsideTheGuardBand) {
  // Two minima 5e-10 apart: atmin keeps both, and initial() reads the
  // earlier, larger one. A d between the two values is the band's case.
  const double h = 1 + 5e-10;
  MovingPoint p = MP({Leg(TI(0, 4), Point(0, 0), Point(0, 0))});
  MovingPoint q = MP({Leg(TI(0, 2), Point(-1, h), Point(1, h)),
                      Leg(TI(2, 4, false, true), Point(-1, 1), Point(1, 1))});
  const std::optional<double> v = ComposedValue(p, q);
  ASSERT_TRUE(v.has_value());
  EXPECT_GT(*v, 1.0);
  for (double d : {1.0, 1 + 2.5e-10, std::nextafter(*v, -kInf), *v,
                   std::nextafter(*v, kInf), 1 + 1e-6}) {
    ExpectAgrees(p, q, d);
  }
  EXPECT_EQ(lifted_internal::EverCloserFastPath(p, q, 1 + 2.5e-10),
            std::nullopt);
  ExpectAgreesEverywhere(p, q);
}

TEST(EverCloserCases, CoincidentPoints) {
  MovingPoint p = MP({Leg(TI(0, 10), Point(0, 0), Point(10, 0))});
  ExpectAgreesEverywhere(p, p);
  EXPECT_TRUE(EverCloserThan(p, p, 1));
  EXPECT_FALSE(EverCloserThan(p, p, 0));

  // Meeting head-on at one instant (t = 5, an interior vertex).
  MovingPoint q = MP({Leg(TI(0, 10), Point(10, 0), Point(0, 0))});
  ExpectAgreesEverywhere(p, q);
  EXPECT_TRUE(EverCloserThan(p, q, 1e-6));
  EXPECT_FALSE(EverCloserThan(p, q, 0));
}

TEST(EverCloserCases, MinimumAtAnOpenUnitEndHeldByTheNextUnit) {
  // Continuous approach then retreat: the minimum sits at t = 1, open for
  // the first unit and closed for the second.
  MovingPoint p = MP({Leg(TI(0, 1, true, false), Point(0, 0), Point(1, 0)),
                      Leg(TI(1, 2), Point(1, 0), Point(0, 0))});
  MovingPoint q = MP({Leg(TI(0, 2), Point(1, 1), Point(1, 1))});
  ExpectAgreesEverywhere(p, q);
  EXPECT_EQ(lifted_internal::EverCloserFastPath(p, q, 2),
            std::optional<bool>(true));
}

TEST(EverCloserCases, MinimumAtAnOpenEndThatNoUnitHolds) {
  // q ends (open) at t = 1 where the distance would reach its minimum;
  // atmin keeps only that instant and atperiods finds no unit there, so
  // the composed answer is false for every d.
  MovingPoint p = MP({Leg(TI(0, 2), Point(0, 0), Point(2, 0))});
  MovingPoint q = MP({Leg(TI(0, 1, true, false), Point(3, 0), Point(1, 0))});
  ExpectAgreesEverywhere(p, q);
  EXPECT_FALSE(EverCloserThan(p, q, 400));
}

TEST(EverCloserCases, TrajectoryJumpingAtAUnitBoundary) {
  // p runs into q at t = 1 (open end), then jumps 99 away: atmin keeps
  // t = 1 and initial() reads it in the unit after the jump.
  MovingPoint p = MP({Leg(TI(0, 1, true, false), Point(0, 0), Point(1, 0)),
                      Leg(TI(1, 2), Point(100, 0), Point(100, 0))});
  MovingPoint q = MP({Leg(TI(0, 2), Point(1, 0), Point(1, 0))});
  ExpectAgreesEverywhere(p, q);
  EXPECT_FALSE(EverCloserThan(p, q, 50));
  EXPECT_TRUE(EverCloserThan(p, q, 100));
  // The holder check refuses to decide either way.
  EXPECT_EQ(lifted_internal::EverCloserFastPath(p, q, 50), std::nullopt);

  // A later minimum kept inside its own unit does not hide the jump:
  // initial() still reads t = 1, 99 away, after the jump.
  MovingPoint back = MP({Leg(TI(0, 1, true, false), Point(0, 0), Point(1, 0)),
                         Leg(TI(1, 5), Point(100, 0), Point(1, 0))});
  MovingPoint still = MP({Leg(TI(0, 5), Point(1, 0), Point(1, 0))});
  ExpectAgreesEverywhere(back, still);
  EXPECT_FALSE(EverCloserThan(back, still, 50));
  EXPECT_TRUE(EverCloserThan(back, still, 100));
  EXPECT_EQ(lifted_internal::EverCloserFastPath(back, still, 50),
            std::nullopt);
  EXPECT_EQ(lifted_internal::EverCloserFastPath(back, still, 100),
            std::optional<bool>(true));

  // The same jump, but landing closer than d: still exact.
  MovingPoint near = MP({Leg(TI(0, 1, true, false), Point(0, 0), Point(1, 0)),
                         Leg(TI(1, 2), Point(3, 0), Point(3, 0))});
  ExpectAgreesEverywhere(near, q);
}

TEST(EverCloserCases, SingleInstantUnits) {
  MovingPoint p = MP({Leg(TI(0, 0), Point(0, 0), Point(0, 0)),
                      Leg(TI(0, 1, false, true), Point(5, 0), Point(6, 0)),
                      Leg(TI(2, 2), Point(1, 1), Point(1, 1))});
  MovingPoint q = MP({Leg(TI(0, 2), Point(0, 1), Point(2, 1))});
  ExpectAgreesEverywhere(p, q);

  MovingPoint r = MP({Leg(TI(0.5, 0.5), Point(5, 1), Point(5, 1))});
  ExpectAgreesEverywhere(p, r);
  ExpectAgreesEverywhere(q, r);
}

TEST(EverCloserCases, DisjointAndTouchingDeftimes) {
  MovingPoint p = MP({Leg(TI(0, 1), Point(0, 0), Point(1, 0))});
  MovingPoint later = MP({Leg(TI(2, 3), Point(1, 0), Point(2, 0))});
  ExpectAgreesEverywhere(p, later);
  EXPECT_FALSE(EverCloserThan(p, later, kInf));
  EXPECT_EQ(lifted_internal::EverCloserFastPath(p, later, kInf),
            std::optional<bool>(false));

  // Open at the shared instant: no common point at all.
  MovingPoint open = MP({Leg(TI(1, 2, false, true), Point(1, 0), Point(2, 0))});
  ExpectAgreesEverywhere(p, open);
  EXPECT_FALSE(EverCloserThan(p, open, kInf));

  // Closed on both sides: a single common instant.
  MovingPoint touch = MP({Leg(TI(1, 2), Point(1, 3), Point(2, 0))});
  ExpectAgreesEverywhere(p, touch);
  EXPECT_TRUE(EverCloserThan(p, touch, 4));
  EXPECT_FALSE(EverCloserThan(p, touch, 3));
}

TEST(EverCloserCases, NaNDistanceValuesGoToTheComposition) {
  // Squared coefficients overflow to infinity on the first unit, whose
  // values are then NaN; MinValue starts from that NaN and the composed
  // answer is false although the second unit stays 4 apart.
  MovingPoint p = MP({Leg(TI(0, 1), Point(0, 0), Point(0, 0)),
                      Leg(TI(2, 3), Point(3, 0), Point(3, 0))});
  MovingPoint q = MP({Leg(TI(0, 1), Point(-1e155, 0), Point(1e155, 0)),
                      Leg(TI(2, 3), Point(3, 4), Point(3, 4))});
  ExpectAgreesEverywhere(p, q);
  EXPECT_FALSE(EverCloserThan(p, q, 10));
  EXPECT_EQ(lifted_internal::EverCloserFastPath(p, q, 10), std::nullopt);
}

TEST(EverCloserCases, EmptyOperands) {
  MovingPoint p = MP({Leg(TI(0, 1), Point(0, 0), Point(1, 0))});
  ExpectAgreesEverywhere(p, MovingPoint());
  ExpectAgreesEverywhere(MovingPoint(), MovingPoint());
}

TEST(EverCloserCases, RandomPiecewiseTrajectories) {
  // Short random tracks on shared and staggered unit grids, with open
  // and closed boundaries, stationary legs, jumps and extreme
  // magnitudes (whose NaN and infinite distances go to the composition).
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> coord(-20, 20);
  std::uniform_int_distribution<int> coin(0, 3);
  auto track = [&](double t0, double scale) {
    std::vector<UPoint> units;
    double t = t0;
    Point at(coord(rng) * scale, coord(rng) * scale);
    const int n = 1 + coin(rng) * 2;
    bool closed_left = true;
    for (int k = 0; k < n; ++k) {
      const double len = (coin(rng) == 0) ? 0.0 : 0.5 * (1 + coin(rng));
      const bool closed_right = len == 0 || coin(rng) != 0;
      const bool lc = len == 0 ? true : closed_left;
      if (len == 0 && !closed_left) break;
      Point to = (coin(rng) == 0) ? at
                                  : Point(coord(rng) * scale,
                                          coord(rng) * scale);
      if (len == 0) to = at;
      units.push_back(Leg(TI(t, t + len, lc, len == 0 || closed_right), at,
                          to));
      // Continue from the end point, or jump.
      at = (coin(rng) == 0) ? Point(coord(rng) * scale, coord(rng) * scale)
                            : to;
      closed_left = !(len == 0 || closed_right);
      t += len;
      if (coin(rng) == 0) {
        t += 0.25;  // a gap
        closed_left = true;
      }
    }
    // Two stationary legs at one spot are not a minimal mapping.
    return MovingPoint::Make(std::move(units));
  };
  int checked = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const double scale = (iter % 100 == 97)   ? 1e-150
                         : (iter % 100 == 98) ? 1e150
                         : (iter % 100 == 99) ? 1e154
                                              : 1.0;
    Result<MovingPoint> mp = track(0.5 * coin(rng), scale);
    Result<MovingPoint> mq = track(0.5 * coin(rng), scale);
    if (!mp.ok() || !mq.ok()) continue;
    const MovingPoint& p = *mp;
    const MovingPoint& q = *mq;
    ++checked;
    for (double d : Probes(p, q)) {
      ASSERT_EQ(EverCloserThan(p, q, d), Composed(p, q, d))
          << "iter " << iter << " d = " << d;
    }
  }
  EXPECT_GT(checked, 2000);
}

// ---------------------------------------------------------------------------
// The served join against the composition.
// ---------------------------------------------------------------------------

std::string RenamedBlock(const Relation& rows) {
  QueryResult out;
  out.rows = Relation("joined", rows.schema());
  for (const Tuple& t : rows.tuples()) EXPECT_TRUE(out.rows.Insert(t).ok());
  Result<std::string> block = serve::EncodeResultBlock(out);
  EXPECT_TRUE(block.ok()) << block.status();
  return block.ok() ? *block : std::string();
}

TEST(EverCloserServed, IndexJoinMatchesTheComposedPredicate) {
  Relation planes = Planes(1024, 99);
  Db db;
  ASSERT_TRUE(db.Register(planes).ok());
  ASSERT_TRUE(db.BuildIndex("planes", "flight").ok());

  QueryRequest req;
  req.kind = QueryRequest::Kind::kIndexJoin;
  req.relation = "planes";
  req.join_relation = "planes";
  req.attr = "flight";
  req.join_attr = "flight";
  req.distance = 50;
  req.distinct_pairs = true;

  for (int threads : {1, 2, 4}) {
    ExecOptions options;
    options.parallel.num_threads = threads;
    Result<Relation> expect = IndexJoinOnMovingPoint(
        planes, kFlightAttrFlight, planes, kFlightAttrFlight, req.distance,
        [&req](const Tuple& a, std::size_t i, const Tuple& b, std::size_t j) {
          if (i >= j) return false;
          return Composed(std::get<MovingPoint>(a[kFlightAttrFlight]),
                          std::get<MovingPoint>(b[kFlightAttrFlight]),
                          req.distance);
        },
        options);
    ASSERT_TRUE(expect.ok()) << expect.status();
    ASSERT_GT(expect->NumTuples(), 0u);

    Result<QueryResult> served = db.Run(req, options);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(served->rows.NumTuples(), expect->NumTuples());
    EXPECT_EQ(RenamedBlock(served->rows), RenamedBlock(*expect))
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace modb
