#pragma once

/// \file
/// Fixed-shape pairwise summation with exact O(log n) point updates.

#include <cstddef>
#include <span>
#include <vector>

namespace soc::core {

/// Fixed-shape pairwise-summation tree over a vector of doubles with O(log n)
/// point updates.
///
/// Floating-point addition is not associative, so a running total that is
/// patched with `total += new - old` drifts away from a from-scratch
/// re-summation — which would break the contract that the incremental
/// objective evaluator agrees *bit-exactly* with the full one. This tree fixes
/// the association order instead: the total is always the root of the same
/// complete binary tree (leaves padded with 0.0 to a power of two), whether it
/// was built in one pass or reached through any sequence of point updates.
/// Both `evaluate_mapping` and `IncrementalObjective` reduce their per-edge /
/// per-node contribution arrays through this class, so their totals are
/// identical by construction.
class PairwiseSum {
 public:
  PairwiseSum() = default;  ///< empty tree (total 0)

  /// n leaves, all zero.
  explicit PairwiseSum(std::size_t n) { resize(n); }

  /// Re-shapes to n zero leaves (discards current contents).
  void resize(std::size_t n) {
    n_ = n;
    cap_ = 1;
    while (cap_ < n_) cap_ <<= 1;
    tree_.assign(2 * cap_, 0.0);
  }

  /// Rebuilds the tree from `leaves` (resizes to match).
  void assign(const std::vector<double>& leaves) {
    assign(leaves.size(), [&leaves](std::size_t i) { return leaves[i]; });
  }

  /// Rebuilds the tree from n leaves, leaf i being `leaf(i)`.
  template <class Leaf>
  void assign(std::size_t n, const Leaf& leaf) {
    resize(n);
    for (std::size_t i = 0; i < n; ++i) tree_[cap_ + i] = leaf(i);
    for (std::size_t i = cap_ - 1; i >= 1; --i) {
      tree_[i] = tree_[2 * i] + tree_[2 * i + 1];
    }
  }

  /// Number of leaves.
  std::size_t size() const noexcept { return n_; }

  /// Current value of leaf i.
  double get(std::size_t i) const { return tree_[cap_ + i]; }

  /// Replaces leaf i and recomputes the path to the root: O(log n).
  void set(std::size_t i, double v) {
    std::size_t p = cap_ + i;
    tree_[p] = v;
    for (p >>= 1; p >= 1; p >>= 1) {
      tree_[p] = tree_[2 * p] + tree_[2 * p + 1];
    }
  }

  /// The pairwise total: O(1). Zero for an empty tree.
  double total() const noexcept { return n_ ? tree_[1] : 0.0; }

  /// The total the tree would have with each leaf in `leaves` (ascending,
  /// distinct, all < size()) replaced by `value(leaf)`, without modifying
  /// the tree. Every internal node on a replaced leaf's path is re-added
  /// from its two children, left + right, exactly as set() re-adds it, and
  /// every other node is read as stored, so the result is bit-identical to
  /// the total() after those set() calls. O(k log n) for k leaves.
  template <class Value>
  double total_with(std::span<const int> leaves, const Value& value) const {
    if (leaves.empty()) return total();
    // Climb from each replaced leaf in turn. A left child whose right
    // sibling holds a later replaced leaf waits (at most one per level)
    // until the climb from that sibling arrives.
    std::size_t wait_node[64];
    double wait_sum[64];
    int waiting = 0;
    double v = 0.0;
    for (std::size_t j = 0; j < leaves.size(); ++j) {
      // Node p at height h covers bottom-row slots [p << h, (p + 1) << h).
      const std::size_t next =
          j + 1 < leaves.size()
              ? cap_ + static_cast<std::size_t>(leaves[j + 1])
              : 2 * cap_;
      std::size_t p = cap_ + static_cast<std::size_t>(leaves[j]);
      v = value(leaves[j]);
      for (int h = 0; p > 1; ++h, p >>= 1) {
        if (p & 1) {
          v = (waiting > 0 && wait_node[waiting - 1] == p - 1
                   ? wait_sum[--waiting]
                   : tree_[p - 1]) +
              v;
        } else if (next < (p + 2) << h) {
          wait_node[waiting] = p;
          wait_sum[waiting++] = v;
          break;
        } else {
          v = v + tree_[p + 1];
        }
      }
    }
    return v;
  }

  /// One-shot reduction with the same tree shape (what assign + total give).
  static double reduce(const std::vector<double>& leaves) {
    PairwiseSum s;
    s.assign(leaves);
    return s.total();
  }

 private:
  std::size_t n_ = 0;
  std::size_t cap_ = 1;
  std::vector<double> tree_;  // 1-rooted heap layout; leaves at [cap_, cap_+n_)
};

}  // namespace soc::core
