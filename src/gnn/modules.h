// Neural-network modules composed from tensor ops: Embedding, Linear,
// LayerNorm and the relation-typed graph convolution (RGCN) of
// Schlichtkrull et al. that the paper's equation (1) specifies.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace irgnn::gnn {

using tensor::Tensor;

class Linear {
 public:
  Linear() = default;
  Linear(int in, int out, Rng& rng)
      : weight_(Tensor::xavier({in, out}, rng)),
        bias_(Tensor::zeros({1, out}, /*requires_grad=*/true)) {}

  /// Constructs over existing parameter tensors (gradient-shard replicas).
  Linear(Tensor weight, Tensor bias)
      : weight_(std::move(weight)), bias_(std::move(bias)) {}

  /// y = act(x W + b); the bias add and activation run as one fused kernel.
  Tensor forward(const Tensor& x, tensor::Act act = tensor::Act::None) const {
    return tensor::add_bias_act(tensor::matmul(x, weight_), bias_, act);
  }

  std::vector<Tensor> parameters() const { return {weight_, bias_}; }

 private:
  Tensor weight_;
  Tensor bias_;
};

class Embedding {
 public:
  Embedding() = default;
  Embedding(int vocab, int dim, Rng& rng)
      : table_(Tensor::xavier({vocab, dim}, rng)) {}
  explicit Embedding(Tensor table) : table_(std::move(table)) {}

  Tensor forward(const std::vector<int>& indices) const {
    return tensor::embedding(table_, indices);
  }

  std::vector<Tensor> parameters() const { return {table_}; }

 private:
  Tensor table_;
};

class LayerNorm {
 public:
  LayerNorm() = default;
  explicit LayerNorm(int dim)
      : gamma_(Tensor::full({1, dim}, 1.0f, /*requires_grad=*/true)),
        beta_(Tensor::zeros({1, dim}, /*requires_grad=*/true)) {}
  LayerNorm(Tensor gamma, Tensor beta)
      : gamma_(std::move(gamma)), beta_(std::move(beta)) {}

  Tensor forward(const Tensor& x) const {
    return tensor::layer_norm(x, gamma_, beta_);
  }

  std::vector<Tensor> parameters() const { return {gamma_, beta_}; }

 private:
  Tensor gamma_;
  Tensor beta_;
};

/// Edge lists of one relation inside a (batched) graph, plus the RGCN
/// normalization coefficients 1/c_{i,r} (inverse in-degree under relation r).
using tensor::RelationEdges;

/// One RGCN layer:  h_i' = sigma( W_0 h_i + sum_r sum_{j in N_r(i)}
///                               (1/c_{i,r}) W_r h_j )
class RGCNLayer {
 public:
  RGCNLayer() = default;
  RGCNLayer(int dim, int num_relations, Rng& rng)
      : self_weight_(Tensor::xavier({dim, dim}, rng)) {
    for (int r = 0; r < num_relations; ++r)
      relation_weights_.push_back(Tensor::xavier({dim, dim}, rng));
  }
  RGCNLayer(Tensor self_weight, std::vector<Tensor> relation_weights)
      : self_weight_(std::move(self_weight)),
        relation_weights_(std::move(relation_weights)) {}

  /// `h` is [num_nodes, dim]; `relations` has one entry per relation. One
  /// fused tape node (tensor::rgcn_layer).
  Tensor forward(const Tensor& h,
                 const std::vector<RelationEdges>& relations) const {
    return tensor::rgcn_layer(h, self_weight_, relation_weights_, relations);
  }

  std::vector<Tensor> parameters() const {
    std::vector<Tensor> out{self_weight_};
    out.insert(out.end(), relation_weights_.begin(), relation_weights_.end());
    return out;
  }

 private:
  Tensor self_weight_;
  std::vector<Tensor> relation_weights_;
};

}  // namespace irgnn::gnn
