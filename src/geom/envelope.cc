#include "geom/envelope.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace uvd {
namespace geom {

namespace {

constexpr double kTwoPi = 2.0 * M_PI;
// Angular resolution below which two breakpoints are considered identical.
constexpr double kAngleEps = 1e-12;

}  // namespace

RadialEnvelope::RadialEnvelope(Point center, const Box& domain, Stats* stats)
    : center_(center), domain_(domain), stats_(stats) {
  UVD_CHECK(domain.Contains(center)) << "anchor center outside the domain";
  arcs_.push_back({0.0, kTwoPi, EnvelopeArc::kUnbounded});
  for (const RadialConstraint& wall : RadialConstraint::ForDomainWalls(center, domain)) {
    Insert(wall);
  }
}

int RadialEnvelope::ArcIndexAt(double theta) const {
  UVD_DCHECK(!arcs_.empty());
  const double t = NormalizeAngle(theta);
  // Arcs are sorted by begin and cover [begin_0, begin_0 + 2*pi). An angle
  // before the first begin wraps around into the last arc.
  if (t < arcs_.front().begin) return static_cast<int>(arcs_.size()) - 1;
  int lo = 0;
  int hi = static_cast<int>(arcs_.size()) - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (arcs_[static_cast<size_t>(mid)].begin <= t) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

double RadialEnvelope::RhoOfArc(const EnvelopeArc& arc, double theta) const {
  if (arc.cidx == EnvelopeArc::kUnbounded) {
    return std::numeric_limits<double>::infinity();
  }
  return constraints_[static_cast<size_t>(arc.cidx)].RhoAtAngle(theta);
}

bool RadialEnvelope::Insert(const RadialConstraint& c) {
  if (stats_ != nullptr) stats_->Add(Ticker::kEnvelopeInsertions);
  if (c.IsVacuous()) return false;

  // Candidate breakpoints: existing arc boundaries, the finite-domain
  // endpoints of the new constraint, and its crossings with every owner
  // currently on the envelope. Between consecutive candidates the winner of
  // "new vs current envelope" cannot change, so midpoint evaluation decides
  // ownership exactly.
  std::vector<double>& cand = cand_scratch_;
  cand.clear();
  cand.reserve(arcs_.size() + 8);
  for (const EnvelopeArc& arc : arcs_) cand.push_back(NormalizeAngle(arc.begin));

  const auto dom = c.FiniteDomain();
  UVD_DCHECK(dom.has_value());
  cand.push_back(NormalizeAngle(dom->first));
  cand.push_back(NormalizeAngle(dom->second));

  std::vector<int>& owners = owner_scratch_;
  owners.clear();
  owners.reserve(arcs_.size());
  for (const EnvelopeArc& arc : arcs_) {
    if (arc.cidx != EnvelopeArc::kUnbounded) owners.push_back(arc.cidx);
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  for (int cidx : owners) {
    double cross[2];
    const int nc = CrossingAngles(c, constraints_[static_cast<size_t>(cidx)], cross);
    for (int j = 0; j < nc; ++j) cand.push_back(cross[j]);
  }

  // The arc-begin prefix of cand is already ascending (the arcs_ invariant
  // ArcIndexAt's binary search relies on), so sort only the appended tail
  // and merge — the merged value sequence is exactly sort(cand)'s.
  const size_t prefix = arcs_.size();
  std::sort(cand.begin() + static_cast<long>(prefix), cand.end());
  // Deduplicate near-identical angles (also across the 0/2*pi seam) while
  // merging the two sorted runs.
  std::vector<double>& angles = angle_scratch_;
  angles.clear();
  angles.reserve(cand.size());
  {
    const size_t total = cand.size();
    size_t a = 0;
    size_t b = prefix;
    while (a < prefix || b < total) {
      const double v = (b >= total || (a < prefix && cand[a] <= cand[b]))
                           ? cand[a++]
                           : cand[b++];
      if (angles.empty() || v - angles.back() > kAngleEps) angles.push_back(v);
    }
  }
  if (angles.size() > 1 && (angles.front() + kTwoPi) - angles.back() <= kAngleEps) {
    angles.pop_back();
  }
  UVD_DCHECK(!angles.empty());

  constraints_.push_back(c);
  const int new_idx = static_cast<int>(constraints_.size()) - 1;

  std::vector<EnvelopeArc>& result = arc_scratch_;
  result.clear();
  result.reserve(angles.size());
  bool used = false;
  const size_t m = angles.size();
  // The sweep's midpoints ascend (one possible wrap past 2*pi at the end),
  // so the owning arc advances monotonically: walk forward from the last
  // hit instead of binary-searching every interval. The walk computes the
  // same "last arc with begin <= t" the binary search does, so ownership
  // decisions are bit-identical.
  const size_t n_arcs = arcs_.size();
  int arc_hint = -1;
  for (size_t i = 0; i < m; ++i) {
    const double begin = angles[i];
    const double end = (i + 1 < m) ? angles[i + 1] : angles[0] + kTwoPi;
    const double mid = 0.5 * (begin + end);
    const double t = NormalizeAngle(mid);
    int ai;
    if (arc_hint >= 0 && arcs_[static_cast<size_t>(arc_hint)].begin <= t) {
      ai = arc_hint;
      while (ai + 1 < static_cast<int>(n_arcs) &&
             arcs_[static_cast<size_t>(ai) + 1].begin <= t) {
        ++ai;
      }
    } else {
      ai = ArcIndexAt(t);
    }
    arc_hint = ai;
    const EnvelopeArc& old_arc = arcs_[static_cast<size_t>(ai)];
    // One sincos per midpoint: both rho evaluations share the direction.
    const Vec2 u = UnitVector(mid);
    const double rho_old =
        old_arc.cidx == EnvelopeArc::kUnbounded
            ? std::numeric_limits<double>::infinity()
            : constraints_[static_cast<size_t>(old_arc.cidx)].Rho(u);
    const double rho_new = c.Rho(u);
    // Strict comparison keeps the incumbent on exact ties (e.g. duplicate
    // objects), which makes ownership deterministic.
    const int winner = (rho_new < rho_old) ? new_idx : old_arc.cidx;
    if (winner == new_idx) used = true;
    if (!result.empty() && result.back().cidx == winner) {
      result.back().end = end;
    } else {
      result.push_back({begin, end, winner});
    }
  }
  // Circular merge: first and last arc may share an owner across the seam.
  if (result.size() > 1 && result.front().cidx == result.back().cidx) {
    result.front().begin = result.back().begin - kTwoPi;
    result.pop_back();
    // Keep begins sorted: rotate so that the (possibly negative) begin stays
    // first; ArcIndexAt works on the covered interval [begin_0, begin_0+2pi).
    std::sort(result.begin(), result.end(),
              [](const EnvelopeArc& a, const EnvelopeArc& b) { return a.begin < b.begin; });
    // Renormalize so all begins are in [0, 2*pi): shift the first arc.
    if (result.front().begin < 0.0) {
      EnvelopeArc wrapped = result.front();
      result.erase(result.begin());
      wrapped.begin = NormalizeAngle(wrapped.begin);
      // wrapped.end also moves by +2pi to stay > begin.
      wrapped.end += kTwoPi;
      result.push_back(wrapped);
    }
  }

  if (!used) {
    constraints_.pop_back();  // keep the constraint store compact
    return false;
  }
  // Swap (not move): the outgoing arcs_ buffer becomes next call's scratch.
  arcs_.swap(arc_scratch_);
  return true;
}

double RadialEnvelope::RhoAt(double theta) const {
  const EnvelopeArc& arc = arcs_[static_cast<size_t>(ArcIndexAt(theta))];
  return RhoOfArc(arc, theta);
}

int RadialEnvelope::OwnerAt(double theta) const {
  const EnvelopeArc& arc = arcs_[static_cast<size_t>(ArcIndexAt(theta))];
  if (arc.cidx == EnvelopeArc::kUnbounded) return EnvelopeArc::kUnbounded;
  return constraints_[static_cast<size_t>(arc.cidx)].owner;
}

bool RadialEnvelope::Contains(const Point& p) const {
  const Vec2 d = p - center_;
  const double r = d.Norm();
  if (r == 0.0) return true;
  return r <= RhoAt(d.Angle());
}

double RadialEnvelope::MaxVertexDistance() const {
  double best = 0.0;
  // Adjacent arcs share their boundary angle bitwise (arc.end is assigned
  // from the next arc's begin), so one sincos serves both evaluations.
  double cached_angle = std::numeric_limits<double>::quiet_NaN();
  Vec2 cached_u{0.0, 0.0};
  const auto unit = [&](double a) {
    if (a != cached_angle) {
      cached_u = UnitVector(a);
      cached_angle = a;
    }
    return cached_u;
  };
  for (const EnvelopeArc& arc : arcs_) {
    if (arc.cidx == EnvelopeArc::kUnbounded) {
      return std::numeric_limits<double>::infinity();
    }
    const RadialConstraint& c = constraints_[static_cast<size_t>(arc.cidx)];
    best = std::max(best, c.Rho(unit(arc.begin)));
    best = std::max(best, c.Rho(unit(arc.end)));
  }
  return best;
}

std::vector<Point> RadialEnvelope::Vertices() const {
  std::vector<Point> out;
  out.reserve(arcs_.size());
  for (const EnvelopeArc& arc : arcs_) {
    if (arc.cidx == EnvelopeArc::kUnbounded) continue;
    const double rho = RhoOfArc(arc, arc.begin);
    if (!std::isfinite(rho)) continue;
    out.push_back(center_ + UnitVector(arc.begin) * rho);
  }
  return out;
}

std::vector<int> RadialEnvelope::OwnerObjects() const {
  std::vector<int> out;
  for (const EnvelopeArc& arc : arcs_) {
    if (arc.cidx == EnvelopeArc::kUnbounded) continue;
    const int owner = constraints_[static_cast<size_t>(arc.cidx)].owner;
    if (owner >= 0) out.push_back(owner);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

double RadialEnvelope::Area() const {
  double area = 0.0;
  for (const EnvelopeArc& arc : arcs_) {
    if (arc.cidx == EnvelopeArc::kUnbounded) {
      return std::numeric_limits<double>::infinity();
    }
    const double len = arc.end - arc.begin;
    if (len <= 0.0) continue;
    // Composite Simpson; even interval count scaled with arc length.
    int n = static_cast<int>(std::ceil(len / 0.002));
    n = std::clamp(n, 8, 8192);
    if (n % 2 == 1) ++n;
    const double h = len / n;
    double sum = 0.0;
    for (int k = 0; k <= n; ++k) {
      const double theta = arc.begin + h * k;
      const double rho = RhoOfArc(arc, theta);
      const double f = 0.5 * rho * rho;
      if (k == 0 || k == n) {
        sum += f;
      } else if (k % 2 == 1) {
        sum += 4.0 * f;
      } else {
        sum += 2.0 * f;
      }
    }
    area += sum * h / 3.0;
  }
  return area;
}

Box RadialEnvelope::BoundingBox(int samples_per_arc) const {
  Box box = Box::Empty();
  for (const EnvelopeArc& arc : arcs_) {
    if (arc.cidx == EnvelopeArc::kUnbounded) continue;
    for (int k = 0; k <= samples_per_arc; ++k) {
      const double theta =
          arc.begin + (arc.end - arc.begin) * static_cast<double>(k) / samples_per_arc;
      const double rho = RhoOfArc(arc, theta);
      if (!std::isfinite(rho)) continue;
      box.ExpandToInclude(center_ + UnitVector(theta) * rho);
    }
  }
  return box;
}

std::vector<Point> RadialEnvelope::ToPolyline(int samples_per_arc) const {
  std::vector<Point> out;
  out.reserve(arcs_.size() * static_cast<size_t>(samples_per_arc));
  for (const EnvelopeArc& arc : arcs_) {
    if (arc.cidx == EnvelopeArc::kUnbounded) continue;
    for (int k = 0; k < samples_per_arc; ++k) {
      const double theta =
          arc.begin + (arc.end - arc.begin) * static_cast<double>(k) / samples_per_arc;
      const double rho = RhoOfArc(arc, theta);
      if (!std::isfinite(rho)) continue;
      out.push_back(center_ + UnitVector(theta) * rho);
    }
  }
  return out;
}

}  // namespace geom
}  // namespace uvd
