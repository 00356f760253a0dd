#include "walk/node2vec_walker.hpp"

namespace seqge {

RejectionNode2VecWalker::RejectionNode2VecWalker(const Graph& graph,
                                                 Node2VecParams params)
    : graph_(graph), params_(params) {
  params_.validate();
  inv_p_ = 1.0 / params_.p;
  inv_q_ = 1.0 / params_.q;
  alpha_max_ = std::max({inv_p_, 1.0, inv_q_});

  proposal_.resize(graph_.num_nodes());
  std::vector<double> w;
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    const auto ws = graph_.weights(u);
    if (ws.empty()) continue;
    w.assign(ws.begin(), ws.end());
    proposal_[u].build(w);
  }
}

std::vector<NodeId> RejectionNode2VecWalker::walk(Rng& rng,
                                                  NodeId start) const {
  std::vector<NodeId> out;
  walk_into(rng, start, out);
  return out;
}

void RejectionNode2VecWalker::walk_into(Rng& rng, NodeId start,
                                        std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(params_.walk_length);
  out.push_back(start);
  if (graph_.degree(start) == 0) return;

  NodeId cur = graph_.neighbors(start)[proposal_[start].sample(rng)];
  out.push_back(cur);

  while (out.size() < params_.walk_length) {
    if (graph_.degree(cur) == 0) break;
    const NodeId prev = out[out.size() - 2];
    cur = biased_step(rng, prev, cur);
    out.push_back(cur);
  }
}

NodeId RejectionNode2VecWalker::biased_step(Rng& rng, NodeId prev,
                                            NodeId cur) const {
  const auto nbrs = graph_.neighbors(cur);
  // Expected constant number of rounds: acceptance ratio is bounded
  // below by min(1/p, 1, 1/q) / alpha_max.
  for (;;) {
    const NodeId x = nbrs[proposal_[cur].sample(rng)];
    double alpha;
    if (x == prev) {
      alpha = inv_p_;
    } else if (inv_q_ == 1.0 || graph_.has_edge(prev, x)) {
      // With 1/q == 1 triangle and explore both accept at 1: skip the
      // adjacency test.
      alpha = 1.0;
    } else {
      alpha = inv_q_;
    }
    if (rng.uniform() * alpha_max_ < alpha) return x;
  }
}

}  // namespace seqge
