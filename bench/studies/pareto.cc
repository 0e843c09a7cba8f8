#include "studies/pareto.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vaesa {

std::vector<std::size_t>
paretoFront(const std::vector<BiPoint> &pts)
{
    std::vector<std::size_t> order(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        order[i] = i;
    // Sort by first coordinate, tie-break by second; the front is
    // then the running minimum of the second coordinate.
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (pts[a].first != pts[b].first)
                      return pts[a].first < pts[b].first;
                  if (pts[a].second != pts[b].second)
                      return pts[a].second < pts[b].second;
                  return a < b;
              });

    std::vector<std::size_t> front;
    double best_second = 0.0;
    bool have = false;
    double last_first = 0.0;
    for (std::size_t idx : order) {
        const auto &[x, y] = pts[idx];
        if (!have) {
            front.push_back(idx);
            best_second = y;
            last_first = x;
            have = true;
            continue;
        }
        if (y < best_second) {
            front.push_back(idx);
            best_second = y;
            last_first = x;
        } else if (x == last_first && y == best_second) {
            // Exact duplicate of the last front point: skip (keep
            // first occurrence only).
        }
    }
    return front;
}

bool
isDominated(const BiPoint &candidate, const std::vector<BiPoint> &pts)
{
    for (const BiPoint &p : pts) {
        const bool no_worse = p.first <= candidate.first &&
                              p.second <= candidate.second;
        const bool better = p.first < candidate.first ||
                            p.second < candidate.second;
        if (no_worse && better)
            return true;
    }
    return false;
}

double
hypervolume(const std::vector<BiPoint> &points,
            const BiPoint &reference)
{
    if (points.empty())
        return 0.0;
    for (const BiPoint &p : points) {
        if (p.first > reference.first || p.second > reference.second)
            panic("hypervolume: reference point does not dominate "
                  "every point");
    }
    // Reduce to the clean front: ascending x, strictly decreasing y.
    std::vector<BiPoint> front;
    for (std::size_t idx : paretoFront(points))
        front.push_back(points[idx]);

    // Left-to-right sweep: each front point owns the strip from its
    // x to the next point's x (the last strip ends at the
    // reference).
    double area = 0.0;
    for (std::size_t i = 0; i < front.size(); ++i) {
        const double next_x = (i + 1 < front.size())
                                  ? front[i + 1].first
                                  : reference.first;
        area += (next_x - front[i].first) *
                (reference.second - front[i].second);
    }
    return area;
}

} // namespace vaesa
