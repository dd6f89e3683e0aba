// STR (Sort-Tile-Recursive) bulk-loaded R-tree over a point column.

#ifndef MALIVA_INDEX_RTREE_INDEX_H_
#define MALIVA_INDEX_RTREE_INDEX_H_

#include <string>
#include <vector>

#include "index/rowset.h"
#include "storage/table.h"

namespace maliva {

/// Read-only spatial index answering bounding-box queries over geo points.
class RTreeIndex {
 public:
  /// Leaf fanout / internal fanout of the packed tree.
  static constexpr size_t kFanout = 64;

  /// Builds the tree over `table[column]` (must be a point column).
  RTreeIndex(const Table& table, const std::string& column);

  const std::string& column() const { return column_; }
  size_t size() const { return points_.size(); }

  /// Number of matching rows. Subtrees whose box lies inside `box` are
  /// counted whole, so only the boundary leaves are tested point by point.
  size_t Count(const BoundingBox& box) const;

  /// Calls `visit(row)` for every row whose point lies inside `box`
  /// (inclusive), in tree order (not row order).
  template <typename Visit>
  void ForEach(const BoundingBox& box, Visit&& visit) const {
    if (!points_.empty()) Traverse(box, nodes_.size() - 1, visit);
  }

  /// Bounding box of all indexed points.
  BoundingBox Bounds() const { return nodes_.empty() ? BoundingBox{} : nodes_.back().box; }

  /// Height of the tree (1 = leaves only). Exposed for tests.
  size_t Height() const { return height_; }

 private:
  struct Node {
    BoundingBox box;
    // Children: for leaves, [first, last) into entries_ (point slots);
    // for internal nodes, [first, last) into nodes_.
    size_t first = 0;
    size_t last = 0;
    bool leaf = true;
    size_t points = 0;  // entries under the node
  };

  size_t CountUnder(const BoundingBox& box, size_t node_idx) const;

  template <typename Visit>
  void Traverse(const BoundingBox& box, size_t node_idx, Visit& visit) const {
    const Node& node = nodes_[node_idx];
    if (!box.Intersects(node.box)) return;
    if (node.leaf) {
      for (size_t i = node.first; i < node.last; ++i) {
        if (box.Contains(points_[i])) visit(entry_rows_[i]);
      }
      return;
    }
    for (size_t c = node.first; c < node.last; ++c) Traverse(box, c, visit);
  }

  std::string column_;
  std::vector<GeoPoint> points_;   // copy of indexed points, by entry slot
  std::vector<RowId> entry_rows_;  // row id per entry slot
  std::vector<Node> nodes_;        // packed bottom-up; root is nodes_.back()
  size_t height_ = 0;
  /// No coordinate is NaN, so every point lies inside its node's box (a NaN
  /// point is in no box, and Count must then test each point).
  bool finite_ = true;
};

}  // namespace maliva

#endif  // MALIVA_INDEX_RTREE_INDEX_H_
