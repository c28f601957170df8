// CampaignGrid — the swept parameter space of a campaign.
//
// A grid spec is a semicolon-separated list of axes, each `name=values` where `name` is a
// ctms_sim flag name (the axes are applied through ApplyScenarioAxis, so every flag is
// sweepable) and `values` is a comma-separated list of items. An item is either a literal
// value or an inclusive integer range `lo:hi` / `lo:hi:step`:
//
//   seed=1:8
//   seed=1:4;memory=iocm,system
//   scenario=A,B;zero-copy=0,1
//
// Expansion is a cartesian product in a fixed order — first axis slowest — so the job list
// (and therefore every merged campaign report) is fully determined by the spec string. A
// grid holds at most kMaxGridPoints points; Parse refuses a larger one before expanding it.

#ifndef SRC_CAMPAIGN_GRID_H_
#define SRC_CAMPAIGN_GRID_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ctms {

inline constexpr size_t kMaxGridPoints = 10'000;

struct GridAxis {
  std::string name;                 // flag name, no leading "--"
  std::vector<std::string> values;  // fully expanded, in spec order
};

class CampaignGrid {
 public:
  // One expanded grid point: the axis assignments in axis order.
  struct Point {
    std::vector<std::pair<std::string, std::string>> assignments;
    // "seed=3,memory=system"; the label of the empty point (empty grid) is "base".
    std::string Label() const;
  };

  // Parses a spec. The empty spec is a valid grid of exactly one point (the base config).
  // Returns nullopt and fills *error on malformed axes, duplicate names, bad ranges, or more
  // than kMaxGridPoints points.
  static std::optional<CampaignGrid> Parse(const std::string& spec, std::string* error);

  const std::vector<GridAxis>& axes() const { return axes_; }

  // Product of the axis sizes; 1 for the empty grid, never above kMaxGridPoints.
  size_t PointCount() const;

  // All points, first axis slowest. Size == PointCount().
  std::vector<Point> Expand() const;

  // Canonical respelling with every range expanded ("seed=1:3" -> "seed=1,2,3"). Two specs
  // that expand to the same points respell identically, so reports key on this.
  std::string Spec() const;

 private:
  std::vector<GridAxis> axes_;
};

}  // namespace ctms

#endif  // SRC_CAMPAIGN_GRID_H_
