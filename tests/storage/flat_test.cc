#include "storage/flat.h"

#include <gtest/gtest.h>

#include <random>
#include <type_traits>
#include <variant>
#include <vector>

#include "gen/region_gen.h"
#include "gen/trajectory_gen.h"
#include "spatial/region_builder.h"

namespace modb {
namespace {

TimeInterval TI(double s, double e, bool lc = true, bool rc = true) {
  return *TimeInterval::Make(s, e, lc, rc);
}

TEST(FlatBlob, SerializeParseRoundTrip) {
  FlatValue v{"rootbytes", {"array-one", std::string(1000, 'z')}};
  std::string blob = SerializeFlat(v);
  auto back = ParseFlat(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->root, v.root);
  ASSERT_EQ(back->arrays.size(), 2u);
  EXPECT_EQ(back->arrays[0], "array-one");
  EXPECT_EQ(back->arrays[1].size(), 1000u);
}

TEST(FlatBlob, RejectsGarbage) {
  EXPECT_FALSE(ParseFlat("nonsense").ok());
  FlatValue v{"root", {}};
  std::string blob = SerializeFlat(v);
  blob.push_back('x');  // Trailing byte.
  EXPECT_FALSE(ParseFlat(blob).ok());
}

TEST(FlatBase, IntRealBoolRoundTrip) {
  EXPECT_EQ(*IntFromFlat(ToFlat(IntValue(-42))), IntValue(-42));
  EXPECT_EQ(*IntFromFlat(ToFlat(IntValue::Undefined())),
            IntValue::Undefined());
  EXPECT_EQ(*RealFromFlat(ToFlat(RealValue(3.25))), RealValue(3.25));
  EXPECT_EQ(*BoolFromFlat(ToFlat(BoolValue(true))), BoolValue(true));
  EXPECT_EQ(*BoolFromFlat(ToFlat(BoolValue::Undefined())),
            BoolValue::Undefined());
}

TEST(FlatString, FixedLengthRoundTrip) {
  auto f = ToFlat(StringValue(std::string("Lufthansa")));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*StringFromFlat(*f), StringValue(std::string("Lufthansa")));
  EXPECT_FALSE(ToFlat(StringValue(std::string(100, 'x'))).ok());
  auto undef = ToFlat(StringValue::Undefined());
  ASSERT_TRUE(undef.ok());
  EXPECT_EQ(*StringFromFlat(*undef), StringValue::Undefined());
}

TEST(FlatSpatial, PointAndPoints) {
  Point p(1.5, -2.5);
  EXPECT_EQ(*PointFromFlat(ToFlat(p)), p);
  Points ps = Points::FromVector({{1, 2}, {3, 4}, {0, 0}});
  EXPECT_EQ(*PointsFromFlat(ToFlat(ps)), ps);
  EXPECT_EQ(*PointsFromFlat(ToFlat(Points())), Points());
}

TEST(FlatSpatial, LineRoundTrip) {
  Line l = *Line::Make({*Seg::Make(Point(0, 0), Point(1, 1)),
                        *Seg::Make(Point(2, 0), Point(3, 5))});
  auto back = LineFromFlat(ToFlat(l));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, l);
  EXPECT_DOUBLE_EQ(back->Length(), l.Length());
}

TEST(FlatSpatial, RegionRoundTripWithHoles) {
  Region r = *Region::FromRings(
      {Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)},
      {{Point(2, 2), Point(4, 2), Point(4, 4), Point(2, 4)},
       {Point(6, 6), Point(8, 6), Point(8, 8), Point(6, 8)}});
  auto back = RegionFromFlat(ToFlat(r));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(*back == r);
  EXPECT_DOUBLE_EQ(back->Area(), r.Area());
  EXPECT_EQ(back->NumCycles(), 3u);
  EXPECT_EQ(back->faces()[0].num_holes, 2);
  // The reconstructed structure still answers queries.
  EXPECT_FALSE(back->Contains(Point(3, 3)));
  EXPECT_TRUE(back->Contains(Point(5, 5)));
}

TEST(FlatSpatial, EmptyRegion) {
  auto back = RegionFromFlat(ToFlat(Region()));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->IsEmpty());
}

TEST(FlatRange, PeriodsRoundTrip) {
  Periods p = Periods::FromIntervals(
      {TI(0, 1, true, false), TI(2, 3, false, true), TimeInterval::At(9)});
  auto back = PeriodsFromFlat(ToFlat(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(FlatMoving, BoolIntStringRoundTrip) {
  MovingBool mb = *MovingBool::Make({*UBool::Make(TI(0, 1, true, false), true),
                                     *UBool::Make(TI(1, 2), false)});
  EXPECT_EQ(MovingBoolFromFlat(ToFlat(mb))->NumUnits(), 2u);
  EXPECT_TRUE(MovingBoolFromFlat(ToFlat(mb))->AtInstant(0.5).val());

  MovingInt mi = *MovingInt::Make({*UInt::Make(TI(0, 5), 7)});
  EXPECT_EQ(MovingIntFromFlat(ToFlat(mi))->AtInstant(3).val(), 7);

  MovingString ms = *MovingString::Make(
      {*UString::Make(TI(0, 1, true, false), "taxi"),
       *UString::Make(TI(1, 2), "idle")});
  auto f = ToFlat(ms);
  ASSERT_TRUE(f.ok());
  auto back = MovingStringFromFlat(*f);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->AtInstant(1.5).val(), "idle");
}

TEST(FlatMoving, RealRoundTrip) {
  MovingReal mr = *MovingReal::Make(
      {*UReal::Make(TI(0, 1, true, false), 1, 2, 3, false),
       *UReal::Make(TI(1, 2), 0, 0, 9, true)});
  auto back = MovingRealFromFlat(ToFlat(mr));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->NumUnits(), 2u);
  EXPECT_DOUBLE_EQ(back->AtInstant(0.5).val(), 1 * 0.25 + 2 * 0.5 + 3);
  EXPECT_DOUBLE_EQ(back->AtInstant(1.5).val(), 3);  // √9.
}

TEST(FlatMoving, PointRoundTrip) {
  std::mt19937_64 rng(4);
  TrajectoryOptions opts;
  opts.num_units = 20;
  MovingPoint mp = *RandomWalkPoint(rng, opts);
  auto back = MovingPointFromFlat(ToFlat(mp));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->NumUnits(), mp.NumUnits());
  for (double t = 0; t < 20; t += 0.5) {
    EXPECT_EQ(back->Present(t), mp.Present(t));
    if (mp.Present(t)) {
      EXPECT_TRUE(ApproxEqual(back->AtInstant(t).val(),
                              mp.AtInstant(t).val()));
    }
  }
}

TEST(FlatMoving, PointsSharedSubarray) {
  MovingPoints mps = *MovingPoints::Make(
      {*UPoints::Make(TI(0, 1, true, false),
                      {LinearMotion{0, 1, 0, 0}, LinearMotion{5, 0, 5, 0}}),
       *UPoints::Make(TI(1, 2), {LinearMotion{0, 2, 0, 0}})});
  FlatValue f = ToFlat(mps);
  EXPECT_EQ(f.arrays.size(), 2u);  // units + shared motions (Figure 7).
  auto back = MovingPointsFromFlat(f);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->NumUnits(), 2u);
  EXPECT_EQ(back->AtInstant(0.5).val().Size(), 2u);
  EXPECT_EQ(back->AtInstant(1.5).val().Size(), 1u);
}

TEST(FlatMoving, LineRoundTrip) {
  MSeg a = *MSeg::FromEndSegments(0, *Seg::Make(Point(0, 0), Point(1, 0)), 10,
                                  *Seg::Make(Point(5, 5), Point(6, 5)));
  MovingLine ml = *MovingLine::Make({*ULine::Make(TI(0, 10), {a})});
  auto back = MovingLineFromFlat(ToFlat(ml));
  ASSERT_TRUE(back.ok()) << back.status();
  Line l5 = back->AtInstant(5).val();
  ASSERT_EQ(l5.NumSegments(), 1u);
  EXPECT_TRUE(ApproxEqual(l5.segment(0).a(), Point(2.5, 2.5)));
}

TEST(FlatMoving, RegionRoundTripWithHoles) {
  std::mt19937_64 rng(8);
  MovingRegionOptions opts;
  opts.shape.num_vertices = 8;
  opts.shape.radius = 20;
  opts.shape.center = Point(0, 0);
  opts.shape.with_hole = true;
  opts.num_units = 3;
  opts.unit_duration = 5;
  opts.drift = Point(10, 0);
  opts.drift_alternation = Point(0, 2);
  MovingRegion mr = *GenerateMovingRegion(rng, opts);
  FlatValue f = ToFlat(mr);
  EXPECT_EQ(f.arrays.size(), 4u);  // units, mfaces, mcycles, msegments.
  auto back = MovingRegionFromFlat(f);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->NumUnits(), mr.NumUnits());
  for (double t = 0.5; t < 15; t += 1.7) {
    double oa = mr.unit(*mr.FindUnit(t)).ValueAt(t).Area();
    double ba = back->unit(*back->FindUnit(t)).ValueAt(t).Area();
    EXPECT_NEAR(ba, oa, 1e-9);
  }
}

// One value of every attribute type, each with real arrays.
std::vector<AttributeValue> EveryKind() {
  std::mt19937_64 rng(11);
  TrajectoryOptions traj;
  traj.num_units = 7;
  RegionGenOptions shape;
  shape.num_vertices = 9;
  shape.with_hole = true;
  MovingRegionOptions mro;
  mro.shape = shape;
  mro.num_units = 2;
  const MSeg mseg =
      *MSeg::FromEndSegments(0, *Seg::Make(Point(0, 0), Point(1, 0)), 10,
                             *Seg::Make(Point(5, 5), Point(6, 5)));
  return {
      IntValue(-42),
      RealValue::Undefined(),
      BoolValue(true),
      StringValue(std::string("Lufthansa")),
      Point(1.5, -2.5),
      Points::FromVector({{1, 2}, {3, 4}}),
      *Line::Make({*Seg::Make(Point(0, 0), Point(1, 1))}),
      *GenerateRegion(rng, shape),
      Periods::FromIntervals({TI(0, 1, true, false), TI(2, 3)}),
      *MovingBool::Make({*UBool::Make(TI(0, 1), true)}),
      *MovingInt::Make({*UInt::Make(TI(0, 5), 7)}),
      *MovingString::Make({*UString::Make(TI(0, 1), "taxi")}),
      *MovingReal::Make({*UReal::Make(TI(0, 1), 1, 2, 3, false)}),
      *RandomWalkPoint(rng, traj),
      *MovingPoints::Make({*UPoints::Make(
          TI(0, 1), {LinearMotion{0, 1, 0, 0}, LinearMotion{5, 0, 5, 0}})}),
      *MovingLine::Make({*ULine::Make(TI(0, 10), {mseg})}),
      *GenerateMovingRegion(rng, mro),
  };
}

// The in-place attribute encoder, the FlatValue encoder and the blob
// packer are one layout: AppendAttribute must write exactly the tag plus
// SerializeFlat(ToFlat(v)), and AttributeBytes must predict its size.
TEST(FlatAttribute, AppendMatchesFlatValueForEveryKind) {
  const std::vector<AttributeValue> values = EveryKind();
  ASSERT_EQ(values.size(), std::variant_size_v<AttributeValue>);
  for (const AttributeValue& v : values) {
    const std::string expect =
        std::string(1, char(TypeOf(v))) +
        std::visit(
            [](const auto& x) {
              if constexpr (std::is_same_v<decltype(ToFlat(x)), FlatValue>) {
                return SerializeFlat(ToFlat(x));
              } else {
                return SerializeFlat(*ToFlat(x));
              }
            },
            v);
    std::string out = "prefix";
    ASSERT_TRUE(AppendAttribute(&out, v).ok());
    EXPECT_EQ(out.substr(6), expect) << AttributeTypeName(TypeOf(v));
    EXPECT_EQ(AttributeBytes(v), expect.size()) << AttributeTypeName(TypeOf(v));
    Result<AttributeValue> back = ParseAttribute(expect);
    ASSERT_TRUE(back.ok()) << AttributeTypeName(TypeOf(v)) << back.status();
    EXPECT_EQ(TypeOf(*back), TypeOf(v));
  }
  // A too-long string appends nothing.
  std::string out = "prefix";
  EXPECT_EQ(AppendAttribute(&out, StringValue(std::string(100, 'x'))).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(out, "prefix");
}

// Bytes no writer produces are corruption, not padding: the decoders
// read a fixed record or a fixed-unit array to its end, so the
// FlatValue path and the in-place attribute path accept exactly the
// blobs the writers make.
TEST(FlatStrict, UnconsumedArrayBytesAreRejected) {
  std::mt19937_64 rng(9);
  TrajectoryOptions opts;
  opts.num_units = 5;
  FlatValue mp = ToFlat(*RandomWalkPoint(rng, opts));
  mp.arrays[0].append(7, '\0');
  EXPECT_EQ(MovingPointFromFlat(mp).status().code(),
            StatusCode::kInvalidArgument);
  const std::string blob =
      std::string(1, char(AttributeType::kMovingPoint)) + SerializeFlat(mp);
  EXPECT_EQ(ParseAttribute(blob).status().code(),
            StatusCode::kInvalidArgument);

  FlatValue mr = ToFlat(*MovingReal::Make({*UReal::Make(TI(0, 1), 1, 2, 3,
                                                        false)}));
  mr.arrays[0].push_back('\0');
  EXPECT_EQ(MovingRealFromFlat(mr).status().code(),
            StatusCode::kInvalidArgument);
  FlatValue periods = ToFlat(Periods::FromIntervals({TI(0, 1)}));
  periods.arrays[0].append(3, '\0');
  EXPECT_EQ(PeriodsFromFlat(periods).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FlatStrict, UnconsumedRootBytesAreRejected) {
  FlatValue s = *ToFlat(StringValue(std::string("LH")));
  s.root.append(3, 'x');
  EXPECT_EQ(StringFromFlat(s).status().code(), StatusCode::kInvalidArgument);
  const std::string blob =
      std::string(1, char(AttributeType::kString)) + SerializeFlat(s);
  EXPECT_EQ(ParseAttribute(blob).status().code(),
            StatusCode::kInvalidArgument);

  FlatValue i = ToFlat(IntValue(7));
  i.root.push_back('\0');
  EXPECT_EQ(IntFromFlat(i).status().code(), StatusCode::kInvalidArgument);
  FlatValue r = ToFlat(RealValue(1.5));
  r.root.push_back('\0');
  EXPECT_EQ(RealFromFlat(r).status().code(), StatusCode::kInvalidArgument);
  FlatValue b = ToFlat(BoolValue(false));
  b.root.push_back('\0');
  EXPECT_EQ(BoolFromFlat(b).status().code(), StatusCode::kInvalidArgument);
  FlatValue p = ToFlat(Point(1, 2));
  p.root.push_back('\0');
  EXPECT_EQ(PointFromFlat(p).status().code(), StatusCode::kInvalidArgument);
  // A base value carries no database arrays.
  FlatValue extra = ToFlat(IntValue(7));
  extra.arrays.push_back("x");
  EXPECT_EQ(IntFromFlat(extra).status().code(), StatusCode::kInvalidArgument);
}

TEST(AttributeStoreTest, SmallArraysInline) {
  AttributeStore store(256);
  FlatValue v{"root", {"tiny"}};
  std::string tuple = store.Put(v);
  EXPECT_EQ(store.page_store().NumPages(), 0u);  // Nothing paged.
  auto back = store.Get(tuple);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->arrays[0], "tiny");
}

TEST(AttributeStoreTest, LargeArraysPaged) {
  AttributeStore store(256);
  FlatValue v{"root", {std::string(10000, 'q'), "small"}};
  std::string tuple = store.Put(v);
  EXPECT_GT(store.page_store().NumPages(), 0u);
  // The tuple itself stays compact (the paper's requirement that the root
  // record live inside the tuple).
  EXPECT_LT(tuple.size(), 200u);
  auto back = store.Get(tuple);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->arrays[0].size(), 10000u);
  EXPECT_EQ(back->arrays[1], "small");
}

TEST(AttributeStoreTest, RealMovingPointAttribute) {
  std::mt19937_64 rng(6);
  TrajectoryOptions opts;
  opts.num_units = 500;  // Big enough to page out.
  MovingPoint mp = *RandomWalkPoint(rng, opts);
  AttributeStore store(256);
  std::string tuple = store.Put(ToFlat(mp));
  EXPECT_GT(store.page_store().NumPages(), 1u);
  auto f = store.Get(tuple);
  ASSERT_TRUE(f.ok());
  auto back = MovingPointFromFlat(*f);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumUnits(), mp.NumUnits());
}

}  // namespace
}  // namespace modb
