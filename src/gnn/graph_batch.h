// Batching of ProgramGraphs for the GNN: node features concatenate with an
// offset, edges split per relation with RGCN normalization coefficients, and
// a segment vector maps nodes back to their graph for pooling.
//
// Batch assembly parallelizes over graphs: a counting pass sizes every
// per-graph slice, prefix sums fix the offsets, and a fill pass writes the
// disjoint slices concurrently. Output ordering equals the serial
// concatenation, so batches are byte-identical for every num_threads.
#pragma once

#include <vector>

#include "gnn/modules.h"
#include "graph/program_graph.h"

namespace irgnn::gnn {

static_assert(graph::kNumEdgeKinds <= tensor::kMaxRgcnRelations,
              "an RGCN layer over every edge kind must fit one rgcn_layer");

struct GraphBatch {
  std::vector<int> features;                 // per node, vocabulary index
  std::vector<RelationEdges> relations;      // size kNumEdgeKinds
  std::vector<int> segment;                  // node -> graph index
  int num_graphs = 0;
  int num_nodes() const { return static_cast<int>(features.size()); }
};

/// Builds a batch from a set of graphs (order defines the segment ids).
/// num_threads caps the assembly parallelism (<= 0: all pool workers).
GraphBatch make_batch(const std::vector<const graph::ProgramGraph*>& graphs,
                      int num_threads = 0);

/// Rebuilds `batch` in place from `graphs`, producing exactly what
/// make_batch returns but reusing the batch's existing buffers (clear keeps
/// capacity). The training loop holds one scratch batch per gradient shard
/// so steady-state batch assembly performs no heap allocations.
void make_batch_into(GraphBatch& batch,
                     const std::vector<const graph::ProgramGraph*>& graphs,
                     int num_threads = 0);

}  // namespace irgnn::gnn
