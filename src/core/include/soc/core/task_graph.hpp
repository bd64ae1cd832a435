#pragma once

/// \file
/// Application task graphs: the unit the mapper places onto platforms.

#include <cstdint>
#include <string>
#include <vector>

#include "soc/tech/energy_model.hpp"

namespace soc::core {

/// One task (DSOC object / pipeline stage) of an application. Work is
/// expressed in abstract datapath operations per processed item; the
/// fabric a task is mapped to converts ops to cycles and energy via
/// soc::tech::FabricProfile.
struct TaskNode {
  std::string name;              ///< human-readable stage name
  double work_ops = 100.0;       ///< abstract ops per item
  double state_kbytes = 1.0;     ///< resident state (affects locality)
  /// Fabrics this task may legally run on (empty = any programmable).
  std::vector<tech::Fabric> allowed_fabrics;
  /// Task class tag matched against PeDesc::compatible_kinds (0 = the
  /// generic kind untagged graphs carry). See soc/core/constraints.hpp.
  int kind = 0;
  /// Capacity units the task occupies on its PE (summed per PE against
  /// PeDesc::capacity by the constraint checker).
  double demand = 1.0;

  /// True when the task may run on fabric `f` under allowed_fabrics.
  bool allows(tech::Fabric f) const noexcept;
};

/// Directed data flow between tasks: words transferred per processed item.
struct TaskEdge {
  int src = 0;                   ///< producer node index
  int dst = 0;                   ///< consumer node index
  double words_per_item = 4.0;   ///< payload words per processed item
};

/// Application task graph — the unit the MultiFlex-style mapper places
/// onto the FPPA (Section 5.3: closing the "abstraction grand canyon"
/// between system specification and platform requires exactly this
/// mapping step).
class TaskGraph {
 public:
  /// An empty graph carrying its application name.
  explicit TaskGraph(std::string name) : name_(std::move(name)) {}

  /// Appends a task; returns its node index. Throws std::invalid_argument
  /// when work_ops or demand is NaN, infinite or negative.
  int add_node(TaskNode node);
  /// Appends a directed edge; endpoints must already exist and differ, and
  /// words_per_item must be finite and >= 0 (else std::invalid_argument).
  void add_edge(TaskEdge edge);

  /// Application name.
  const std::string& name() const noexcept { return name_; }
  /// Number of tasks.
  int node_count() const noexcept { return static_cast<int>(nodes_.size()); }
  /// Number of edges.
  int edge_count() const noexcept { return static_cast<int>(edges_.size()); }
  /// Task `i` (bounds-checked).
  const TaskNode& node(int i) const { return nodes_.at(static_cast<std::size_t>(i)); }
  /// Edge `e` (bounds-checked).
  const TaskEdge& edge(int e) const { return edges_.at(static_cast<std::size_t>(e)); }
  /// All tasks, index order.
  const std::vector<TaskNode>& nodes() const noexcept { return nodes_; }
  /// All edges, insertion order.
  const std::vector<TaskEdge>& edges() const noexcept { return edges_; }

  /// CSR-style adjacency: the indices (into edges()) of the edges entering /
  /// leaving `node`, maintained by add_edge. Consumers that previously
  /// scanned the whole edge vector per node (the latency pass, list
  /// schedulers, the incremental objective) use these to touch only
  /// O(degree) edges.
  const std::vector<int>& in_edges(int node) const {
    return in_edges_.at(static_cast<std::size_t>(node));
  }
  /// Indices (into edges()) of the edges leaving `node` — see in_edges().
  const std::vector<int>& out_edges(int node) const {
    return out_edges_.at(static_cast<std::size_t>(node));
  }
  /// Number of edges entering `node`.
  int in_degree(int node) const { return static_cast<int>(in_edges(node).size()); }
  /// Number of edges leaving `node`.
  int out_degree(int node) const { return static_cast<int>(out_edges(node).size()); }

  /// Sum of work_ops over all tasks.
  double total_work_ops() const noexcept;
  /// Sum of words_per_item over all edges.
  double total_comm_words() const noexcept;

  /// Topological order; throws std::logic_error if the graph has a cycle.
  /// (Pipelines are DAGs; feedback loops must be modeled as separate items.)
  std::vector<int> topological_order() const;

  /// Sources (no incoming edges) and sinks (no outgoing).
  std::vector<int> sources() const;
  std::vector<int> sinks() const;

  /// Returns a graph with `copies` disjoint copies of this graph — the
  /// data-parallel form used when a platform hosts several independent
  /// streams (e.g. multi-channel media, multiple line interfaces).
  TaskGraph replicated(int copies) const;

 private:
  std::string name_;
  std::vector<TaskNode> nodes_;
  std::vector<TaskEdge> edges_;
  std::vector<std::vector<int>> in_edges_;   // per node, edge indices
  std::vector<std::vector<int>> out_edges_;  // per node, edge indices
};

}  // namespace soc::core
