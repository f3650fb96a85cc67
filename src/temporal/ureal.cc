#include "temporal/ureal.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/real.h"

namespace modb {

std::vector<double> QuadraticRoots(double a, double b, double c) {
  std::vector<double> roots;
  if (a == 0) {
    if (b == 0) return roots;  // Constant: no isolated roots.
    roots.push_back(-c / b);
    return roots;
  }
  double disc = b * b - 4 * a * c;
  if (disc < 0) return roots;
  if (disc == 0) {
    roots.push_back(-b / (2 * a));
    return roots;
  }
  // Numerically stable quadratic formula.
  double sq = std::sqrt(disc);
  double q = -0.5 * (b + (b >= 0 ? sq : -sq));
  double r1 = q / a;
  double r2 = c / q;
  roots.push_back(std::min(r1, r2));
  roots.push_back(std::max(r1, r2));
  return roots;
}

Result<UReal> UReal::Make(TimeInterval interval, double a, double b, double c,
                          bool r) {
  if (r) {
    // The radicand must be non-negative on the unit interval: check the
    // endpoints and, if interior, the vertex of the parabola.
    Instant candidates[3] = {};
    const int n = ExtremumCandidates(interval, a, b, candidates);
    for (int k = 0; k < n; ++k) {
      if (NegativeRadicand(Poly(a, b, c, candidates[k]), c)) {
        return Status::InvalidArgument(
            k < 2 ? "ureal: radicand negative at unit interval endpoint"
                  : "ureal: radicand negative inside unit interval");
      }
    }
  }
  return UReal(interval, a, b, c, r);
}

URealExtrema UReal::Extrema() const {
  Instant candidates[3] = {};
  const int n = ExtremumCandidates(interval_, a_, b_, candidates);
  URealExtrema ex{ValueAt(candidates[0]), candidates[0],
                  ValueAt(candidates[0]), candidates[0]};
  for (int k = 0; k < n; ++k) {
    const Instant t = candidates[k];
    double v = ValueAt(t);
    if (v < ex.min_value) {
      ex.min_value = v;
      ex.min_at = t;
    }
    if (v > ex.max_value) {
      ex.max_value = v;
      ex.max_at = t;
    }
  }
  return ex;
}

std::vector<Instant> UReal::InstantsAtValue(double v) const {
  // Solve ι(t) = v. For the root case: √poly = v requires v >= 0 and
  // poly = v².
  if (EqualsEverywhere(v)) return {};
  double target_c = c_;
  double rhs = v;
  if (root_) {
    if (v < 0) return {};
    rhs = v * v;
  }
  std::vector<double> roots = QuadraticRoots(a_, b_, target_c - rhs);
  std::vector<Instant> out;
  for (double t : roots) {
    if (interval_.Contains(t)) out.push_back(t);
  }
  return out;
}

bool UReal::EqualsEverywhere(double v) const {
  if (a_ != 0 || b_ != 0) return false;
  if (!root_) return c_ == v;
  return v >= 0 && ApproxEq(c_, v * v);
}

std::string UReal::ToString() const {
  std::ostringstream os;
  os << "ureal" << interval_.ToString() << " ";
  if (root_) os << "sqrt(";
  os << a_ << "t^2 + " << b_ << "t + " << c_;
  if (root_) os << ")";
  return os.str();
}

}  // namespace modb
