#include "soc/core/task_graph.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <string>

namespace soc::core {

namespace {

/// Throws std::invalid_argument unless `v` is finite and non-negative.
void require_figure(double v, const char* what) {
  if (!std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument(std::string("TaskGraph: ") + what +
                                " must be finite and >= 0, got " +
                                std::to_string(v));
  }
}

}  // namespace

bool TaskNode::allows(tech::Fabric f) const noexcept {
  if (allowed_fabrics.empty()) {
    // Default: any software-programmable fabric.
    return f == tech::Fabric::kGeneralPurposeCpu || f == tech::Fabric::kDsp ||
           f == tech::Fabric::kAsip;
  }
  return std::find(allowed_fabrics.begin(), allowed_fabrics.end(), f) !=
         allowed_fabrics.end();
}

int TaskGraph::add_node(TaskNode node) {
  require_figure(node.work_ops, "work_ops");
  require_figure(node.demand, "demand");
  nodes_.push_back(std::move(node));
  in_edges_.emplace_back();
  out_edges_.emplace_back();
  return static_cast<int>(nodes_.size()) - 1;
}

void TaskGraph::add_edge(TaskEdge edge) {
  const int n = node_count();
  if (edge.src < 0 || edge.src >= n || edge.dst < 0 || edge.dst >= n ||
      edge.src == edge.dst) {
    throw std::invalid_argument("TaskGraph: bad edge endpoints");
  }
  require_figure(edge.words_per_item, "words_per_item");
  const int e = static_cast<int>(edges_.size());
  edges_.push_back(edge);
  out_edges_[static_cast<std::size_t>(edge.src)].push_back(e);
  in_edges_[static_cast<std::size_t>(edge.dst)].push_back(e);
}

double TaskGraph::total_work_ops() const noexcept {
  double s = 0.0;
  for (const auto& n : nodes_) s += n.work_ops;
  return s;
}

double TaskGraph::total_comm_words() const noexcept {
  double s = 0.0;
  for (const auto& e : edges_) s += e.words_per_item;
  return s;
}

std::vector<int> TaskGraph::topological_order() const {
  const int n = node_count();
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) indeg[static_cast<std::size_t>(i)] = in_degree(i);
  std::queue<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indeg[static_cast<std::size_t>(i)] == 0) ready.push(i);
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const int u = ready.front();
    ready.pop();
    order.push_back(u);
    for (const int ei : out_edges(u)) {
      const int dst = edges_[static_cast<std::size_t>(ei)].dst;
      if (--indeg[static_cast<std::size_t>(dst)] == 0) ready.push(dst);
    }
  }
  if (static_cast<int>(order.size()) != n) {
    throw std::logic_error("TaskGraph '" + name_ + "': cycle detected");
  }
  return order;
}

std::vector<int> TaskGraph::sources() const {
  std::vector<int> out;
  for (int i = 0; i < node_count(); ++i) {
    if (in_degree(i) == 0) out.push_back(i);
  }
  return out;
}

TaskGraph TaskGraph::replicated(int copies) const {
  if (copies < 1) throw std::invalid_argument("TaskGraph::replicated: copies < 1");
  TaskGraph out(name_ + "x" + std::to_string(copies));
  for (int c = 0; c < copies; ++c) {
    for (const auto& n : nodes_) {
      TaskNode copy = n;
      copy.name = n.name + "#" + std::to_string(c);
      out.add_node(std::move(copy));
    }
    const int base = c * node_count();
    for (const auto& e : edges_) {
      out.add_edge({e.src + base, e.dst + base, e.words_per_item});
    }
  }
  return out;
}

std::vector<int> TaskGraph::sinks() const {
  std::vector<int> out;
  for (int i = 0; i < node_count(); ++i) {
    if (out_degree(i) == 0) out.push_back(i);
  }
  return out;
}

}  // namespace soc::core
