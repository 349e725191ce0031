// Per-kernel microbenchmarks for the SIMD/arena engine.
//
// Each kernel runs `warmup` untimed repetitions (which also fills the
// buffer arena), then `reps` timed ones; the table reports the median
// wall-clock, the implied GFLOP/s, and how many bytes the measured
// repetitions pulled from malloc (pool misses) — the last column is the
// zero-allocation contract made visible: it must read 0 once warm.
//
// Shapes mirror the GNN hot path: [nodes, hidden] activations against
// [hidden, hidden] weights, plus square shapes for peak-throughput context.
//
// Engine sections follow the kernel table: a GEMM before/after pitting the
// one-dot-per-element reference against the kernel with output columns
// across vector lanes (and the dB GEMM against a per-row axpy loop, and
// reading A in place against the packed-transposed copy the backward used
// to make; bit-identical outputs), the kernel
// fan-out crossover that sets tensor::kParallelFlops (serial against a
// 2-way row-block split, from one serve graph to one inference shard), the
// fused RGCN layer against the op chain it replaces
// (forward + backward at a training-shard shape, bit-identical outputs and
// gradients), and an inference section measuring the tape-free batched
// predict path (graphs/sec, ms/graph, malloc bytes per warm call — the last
// must read 0).
//
//   ./microbench_kernels --threads 1 --reps 9
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "support/arena.h"
#include "support/argparse.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "workloads/suite.h"

using namespace irgnn;
using tensor::Act;
using tensor::Tensor;

namespace {

struct Timing {
  double median_ms = 0;
  std::uint64_t malloc_bytes = 0;  // pool misses during the timed reps
};

template <typename Fn>
Timing time_kernel(int warmup, int reps, const Fn& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  support::BufferPool::Stats before = support::BufferPool::global().stats();
  std::vector<double> times;
  times.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    times.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  support::BufferPool::Stats after = support::BufferPool::global().stats();
  std::sort(times.begin(), times.end());
  return {times[times.size() / 2], after.malloc_bytes - before.malloc_bytes};
}

std::string gflops(double flops, double ms) {
  return Table::fmt(flops / (ms * 1e-3) / 1e9, 2);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("microbench_kernels",
                   "SIMD tensor-kernel microbenchmarks (median-of-N, "
                   "GFLOP/s, bytes pulled from malloc while warm)");
  parser.add("reps", "9", "timed repetitions per kernel (median reported)")
      .add("warmup", "3", "untimed warmup repetitions (fills the arena)")
      .add("json", "",
           "write machine-readable results (GEMM, kernel fan-out, RGCN "
           "layer and inference sections) to this path, e.g. "
           "BENCH_kernels.json");
  bench::add_runtime_flags(parser, /*default_threads=*/"1");
  if (!parser.parse(argc, argv)) return 1;

  // At least one timed rep (time_kernel() takes a median and divides by
  // reps) and
  // one warmup rep (the malloc columns and their threads=1 gate below only
  // mean anything once the arena is warm).
  const int reps = std::max(1, static_cast<int>(parser.get_int("reps")));
  const int warmup = std::max(1, static_cast<int>(parser.get_int("warmup")));
  const int threads = bench::apply_threads(parser);

  Table table({"kernel", "shape", "median [ms]", "GFLOP/s", "malloc B/rep"});
  Rng rng(0xBE7C4);

  auto add_result = [&](const std::string& kernel, const std::string& shape,
                        double flops, const Timing& t) {
    table.add_row({kernel, shape, Table::fmt(t.median_ms, 3),
                   gflops(flops, t.median_ms),
                   std::to_string(t.malloc_bytes / reps)});
  };

  // --- matmul forward -------------------------------------------------------
  // The fig12 GEMM shapes; the before/after section below reuses the same
  // list so both tables always speak about identical shapes.
  struct MmCase {
    int m, k, n;
  };
  const MmCase gemm_shapes[] = {
      {256, 256, 256}, {2048, 64, 64}, {512, 128, 512}};
  for (const MmCase& c : gemm_shapes) {
    Tensor a = Tensor::xavier({c.m, c.k}, rng);
    Tensor b = Tensor::xavier({c.k, c.n}, rng);
    Timing t = time_kernel(warmup, reps, [&] { tensor::matmul(a, b); });
    add_result("matmul fwd",
               std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
                   std::to_string(c.n),
               2.0 * c.m * c.k * c.n, t);
  }

  // --- matmul forward + backward (both GEMMs) ------------------------------
  {
    const int m = 512, k = 128, n = 128;
    Tensor a = Tensor::xavier({m, k}, rng);
    Tensor b = Tensor::xavier({k, n}, rng);
    Timing t = time_kernel(warmup, reps, [&] {
      Tensor c = tensor::matmul(a, b);
      auto node = c.node();
      node->ensure_grad();
      std::fill(node->grad.begin(), node->grad.end(), 1.0f);
      a.grad();
      b.grad();
      node->backward_fn(*node);
    });
    add_result("matmul fwd+bwd", "512x128x128", 3 * 2.0 * m * k * n, t);
  }

  // --- fused bias + activation ---------------------------------------------
  {
    const int m = 4096, n = 256;
    Tensor a = Tensor::xavier({m, n}, rng);
    Tensor b = Tensor::xavier({1, n}, rng);
    Timing t =
        time_kernel(warmup, reps, [&] { tensor::add_bias_act(a, b, Act::Relu); });
    add_result("add_bias_act relu", "4096x256", 2.0 * m * n, t);
  }

  // --- layer norm -----------------------------------------------------------
  {
    const int m = 4096, n = 256;
    Tensor x = Tensor::xavier({m, n}, rng);
    Tensor gamma = Tensor::full({1, n}, 1.0f);
    Tensor beta = Tensor::zeros({1, n});
    Timing t =
        time_kernel(warmup, reps, [&] { tensor::layer_norm(x, gamma, beta); });
    add_result("layer_norm", "4096x256", 7.0 * m * n, t);
  }

  // --- scatter/gather reductions -------------------------------------------
  {
    const int e = 65536, d = 128, rows = 8192;
    Tensor x = Tensor::xavier({e, d}, rng);
    std::vector<int> dst(e);
    std::vector<float> coeff(e, 0.5f);
    for (int i = 0; i < e; ++i)
      dst[i] = static_cast<int>(rng.uniform(0.0, 1.0) * (rows - 1));
    Timing t = time_kernel(warmup, reps,
                     [&] { tensor::index_add_rows(x, dst, coeff, rows); });
    add_result("index_add_rows", "65536x128->8192", 2.0 * e * d, t);

    std::vector<int> seg(e);
    for (int i = 0; i < e; ++i) seg[i] = i * rows / e;
    Timing ts =
        time_kernel(warmup, reps, [&] { tensor::segment_mean(x, seg, rows); });
    add_result("segment_mean", "65536x128->8192", 2.0 * e * d, ts);
  }

  std::printf("=== Tensor kernel microbenchmarks (threads=%d, median of %d, "
              "%d warmup) ===\n",
              threads, reps, warmup);
  table.print();
  support::BufferPool::Stats stats = support::BufferPool::global().stats();
  std::printf("arena: %llu allocations from malloc (%.1f MiB) vs %llu served "
              "from the pool\n",
              static_cast<unsigned long long>(stats.malloc_calls),
              static_cast<double>(stats.malloc_bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(stats.pool_hits));

  // Contract violations detected below (GEMM bit-identity, warm-inference
  // allocations) turn into a nonzero exit so the CI smoke run is a real
  // gate, not just a log line.
  int failures = 0;

  // Per-shape records kept for the --json artifact.
  struct GemmRecord {
    std::string shape;
    double before_ms = 0, after_ms = 0;
    bool identical = false;
  };
  std::vector<GemmRecord> float_gemm_records;
  struct FanoutRecord {
    std::string shape;
    double serial_ms = 0, split_ms = 0, kpar1_ms = 0, kpar2_ms = 0;
  };
  std::vector<FanoutRecord> fanout_records;
  double rgcn_unfused_ms = 0.0, rgcn_fused_ms = 0.0;
  bool rgcn_identical = false;
  double infer_float_predict_ms = 0.0;
  std::uint64_t infer_float_malloc = 0;

  // --- GEMM kernel before/after ---------------------------------------------
  // The reference kernel (one simd::dot per output element, B packed
  // transposed) against gemm_dot_cols (output columns across vector lanes,
  // B in its natural [k, n] layout), both layouts built from one B, on
  // single-threaded raw buffers: pure kernel throughput, no tape, and no
  // transposes in the timed region but the dW rows' pack. 384 and 608 rows are training-shard
  // shapes at the pipeline's hidden size. The dB row pits gemm_axpy over A in place
  // against the per-row simd::axpy loop it must match (dW = H^T G for one
  // 608-row shard); the dW rows price the pack the backward no longer
  // makes. Every output is verified bit-identical.
  {
    Table gemm_table({"GEMM", "shape", "reference [ms]", "kernel [ms]",
                      "speedup", "GFLOP/s now", "bit-identical"});
    auto add_gemm = [&](const std::string& kind, const std::string& shape,
                        double flops, const Timing& ref, const Timing& now,
                        bool identical) {
      if (!identical) ++failures;
      float_gemm_records.push_back(
          {kind + " " + shape, ref.median_ms, now.median_ms, identical});
      gemm_table.add_row({kind, shape, Table::fmt(ref.median_ms, 4),
                          Table::fmt(now.median_ms, 4),
                          Table::fmt(ref.median_ms / now.median_ms, 2),
                          gflops(flops, now.median_ms),
                          identical ? "yes" : "NO"});
    };
    std::vector<MmCase> dot_shapes(std::begin(gemm_shapes),
                                   std::end(gemm_shapes));
    dot_shapes.push_back({384, 32, 32});
    dot_shapes.push_back({608, 32, 32});
    for (const MmCase& c : dot_shapes) {
      const std::int64_t m = c.m, k = c.k, n = c.n;
      std::vector<float> a(static_cast<std::size_t>(m * k));
      std::vector<float> b(static_cast<std::size_t>(k * n));
      for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      std::vector<float> bt(b.size());
      for (std::int64_t l = 0; l < k; ++l)
        for (std::int64_t j = 0; j < n; ++j) bt[j * k + l] = b[l * n + j];
      std::vector<float> c_row(static_cast<std::size_t>(m * n), 0.0f);
      std::vector<float> c_col = c_row;
      Timing rowwise = time_kernel(warmup, reps, [&] {
        tensor::detail::gemm_dot_rowwise<false>(a.data(), k, bt.data(), k, m,
                                                n, k, c_row.data(), n);
      });
      Timing cols = time_kernel(warmup, reps, [&] {
        tensor::detail::gemm_dot_cols<false>(a.data(), k, b.data(), n, m, n,
                                             k, c_col.data(), n);
      });
      add_gemm("dot", std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
                          std::to_string(c.n),
               2.0 * c.m * c.k * c.n, rowwise, cols,
               std::memcmp(c_row.data(), c_col.data(),
                           c_row.size() * sizeof(float)) == 0);
    }
    {
      // dW[l,:] += H[i,l] * G[i,:] over a relu'd H (about half zeros, so
      // the zero skip is live) at rows = k = 32, m = 608, n = 32, H read in
      // place, against the per-row simd::axpy loop it must match.
      const std::int64_t rows = 32, m = 608, n = 32;
      std::vector<float> h(static_cast<std::size_t>(m * rows));
      std::vector<float> g(static_cast<std::size_t>(m * n));
      for (float& v : h)
        v = std::max(0.0f, static_cast<float>(rng.uniform(-1.0, 1.0)));
      for (float& v : g) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      std::vector<float> d_row(static_cast<std::size_t>(rows * n), 0.0f);
      std::vector<float> d_nat = d_row;
      Timing rowwise = time_kernel(warmup, reps, [&] {
        for (std::int64_t l = 0; l < rows; ++l)
          for (std::int64_t i = 0; i < m; ++i)
            if (h[i * rows + l] != 0.0f)
              simd::axpy(d_row.data() + l * n, h[i * rows + l],
                         g.data() + i * n, n);
      });
      Timing natural = time_kernel(warmup, reps, [&] {
        tensor::detail::gemm_axpy(tensor::detail::NaturalA{h.data(), rows},
                                  g.data(), n, rows, m, n, d_nat.data(), n);
      });
      // Both sides ran warmup + reps passes over the same accumulators.
      add_gemm("dB", "32x608x32", 2.0 * rows * m * n, rowwise, natural,
               std::memcmp(d_row.data(), d_nat.data(),
                           d_row.size() * sizeof(float)) == 0);
    }
    {
      // The backward's two dB GEMMs at a training-shard shape (e = 300
      // product rows, 32x32 weight), as the backward ran them before
      // (pack A transposed, then the packed kernel) against reading A in
      // place. "dW0": A = H, [e, 32] (the self matmul, and matmul's dB).
      // "dW_r": A = h[src[i], :] for 300 edges into a 384-node h (the
      // message GEMM; the old path gathered and transposed in one copy).
      const std::int64_t k = 32, e = 300, n = 32, nodes = 384;
      std::vector<float> h(static_cast<std::size_t>(nodes * k));
      std::vector<float> g(static_cast<std::size_t>(e * n));
      std::vector<int> src(static_cast<std::size_t>(e));
      for (float& v : h)
        v = std::max(0.0f, static_cast<float>(rng.uniform(-1.0, 1.0)));
      for (float& v : g) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (int& s : src) s = static_cast<int>(rng.next_below(nodes));
      std::vector<float> at(static_cast<std::size_t>(k * e));
      for (bool gathered : {false, true}) {
        std::vector<float> d_old(static_cast<std::size_t>(k * n), 0.0f);
        std::vector<float> d_new = d_old;
        const int* idx = gathered ? src.data() : nullptr;
        Timing packed = time_kernel(warmup, reps, [&] {
          for (std::int64_t i = 0; i < e; ++i) {
            const float* row = h.data() + (idx ? idx[i] : i) * k;
            for (std::int64_t l = 0; l < k; ++l) at[l * e + i] = row[l];
          }
          tensor::detail::gemm_axpy(
              tensor::detail::PackedTransposedA{at.data(), e}, g.data(), n, k,
              e, n, d_old.data(), n);
        });
        Timing natural = time_kernel(warmup, reps, [&] {
          if (gathered)
            tensor::detail::gemm_axpy(
                tensor::detail::GatheredA{h.data(), k, src.data()}, g.data(),
                n, k, e, n, d_new.data(), n);
          else
            tensor::detail::gemm_axpy(tensor::detail::NaturalA{h.data(), k},
                                      g.data(), n, k, e, n, d_new.data(), n);
        });
        add_gemm(gathered ? "dW_r pack->in place" : "dW0 pack->in place",
                 "32x300x32", 2.0 * k * e * n, packed, natural,
                 std::memcmp(d_old.data(), d_new.data(),
                             d_old.size() * sizeof(float)) == 0);
      }
    }
    std::printf("\n=== GEMM kernel: reference vs output columns across "
                "lanes (%d wide; 1 thread; only the dW rows time a pack) "
                "===\n",
                tensor::detail::kCols);
    gemm_table.print();
  }

  // --- Kernel fan-out crossover ---------------------------------------------
  // What tensor::kParallelFlops decides: run a kernel serially on the
  // caller, or split it into kRowBlock-row blocks on the pool. Left: the
  // forward matmul's own GEMM against a [64, 64] weight, once serially
  // and once split 2 ways exactly as the parallel kernels split it — so the
  // crossover shows whatever the constant is set to. Right: tensor::matmul
  // at kernel parallelism 1 and 2, i.e. what the constant makes of it.
  // 94 rows is one mean suite graph (a lone serve miss); 1024 rows is one
  // full inference shard (gnn::StaticModel's node budget).
  {
    Table fan_table({"matmul shape", "MACs", "serial [ms]", "2-way split [ms]",
                     "split/serial", "matmul kpar 1 [ms]",
                     "matmul kpar 2 [ms]", "malloc B/rep"});
    const Tensor b = Tensor::xavier({64, 64}, rng);
    const std::int64_t k = b.rows(), n = b.cols();
    const int rows_sweep[] = {32, 64, 94, 128, 192, 256, 384, 512, 1024};
    for (int m : rows_sweep) {
      std::vector<float> a(static_cast<std::size_t>(m * k));
      for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      std::vector<float> c(static_cast<std::size_t>(m * n));
      const Tensor lhs = Tensor::from_data(
          {m, static_cast<int>(k)}, std::vector<float>(a), false);
      Timing serial = time_kernel(warmup, reps, [&] {
        tensor::detail::gemm_dot_cols<false>(a.data(), k, b.data(), n, m, n,
                                             k, c.data(), n);
      });
      const std::int64_t blocks =
          (m + tensor::kRowBlock - 1) / tensor::kRowBlock;
      Timing split = time_kernel(warmup, reps, [&] {
        support::ThreadPool::global().parallel_for(
            0, blocks, 2, [&](std::int64_t blk) {
              const std::int64_t i0 = blk * tensor::kRowBlock;
              const std::int64_t i1 =
                  std::min<std::int64_t>(m, i0 + tensor::kRowBlock);
              tensor::detail::gemm_dot_cols<false>(
                  a.data() + i0 * k, k, b.data(), n, i1 - i0, n, k,
                  c.data() + i0 * n, n);
            });
      });
      tensor::set_kernel_parallelism(1);
      Timing kpar1 = time_kernel(warmup, reps, [&] { tensor::matmul(lhs, b); });
      tensor::set_kernel_parallelism(2);
      Timing kpar2 = time_kernel(warmup, reps, [&] { tensor::matmul(lhs, b); });
      tensor::set_kernel_parallelism(threads);
      const std::string shape = std::to_string(m) + "x64x64" +
                                (m == 94     ? " (1 graph)"
                                 : m == 1024 ? " (full shard)"
                                             : "");
      fanout_records.push_back({shape, serial.median_ms, split.median_ms,
                                kpar1.median_ms, kpar2.median_ms});
      fan_table.add_row(
          {shape, std::to_string(m * k * n), Table::fmt(serial.median_ms, 4),
           Table::fmt(split.median_ms, 4),
           Table::fmt(split.median_ms / serial.median_ms, 2),
           Table::fmt(kpar1.median_ms, 4), Table::fmt(kpar2.median_ms, 4),
           std::to_string((split.malloc_bytes + kpar1.malloc_bytes +
                           kpar2.malloc_bytes) /
                          reps)});
    }
    std::printf("\n=== Kernel fan-out: serial vs 2-way row-block split "
                "(tensor::kParallelFlops = %lld MACs) ===\n",
                static_cast<long long>(tensor::kParallelFlops));
    fan_table.print();
  }

  // --- Fused RGCN layer vs the unfused op chain ----------------------------
  // One training step's worth of one RGCN layer at a training-shard shape:
  // forward, a weighted-sum loss, backward. The unfused side records the
  // chain tensor::rgcn_layer replaces (matmul, then gather -> matmul ->
  // index_add -> add per relation, then relu: 14 tape nodes); the fused
  // side records one node. The loss tail is the same on both sides. Output
  // and every gradient are verified bit-identical.
  {
    const int nodes = 380, hidden = 32;
    const int edge_counts[] = {200, 120, 50};
    std::vector<tensor::RelationEdges> relations(3);
    for (int r = 0; r < 3; ++r) {
      std::vector<int> in_degree(nodes, 0);
      for (int i = 0; i < edge_counts[r]; ++i) {
        relations[r].src.push_back(
            static_cast<int>(rng.uniform(0.0, 1.0) * (nodes - 1)));
        relations[r].dst.push_back(
            static_cast<int>(rng.uniform(0.0, 1.0) * (nodes - 1)));
        ++in_degree[relations[r].dst.back()];
      }
      for (int v : relations[r].dst)
        relations[r].coeff.push_back(1.0f / static_cast<float>(in_degree[v]));
    }
    auto copy_of = [](const Tensor& t, bool requires_grad) {
      return Tensor::from_data(
          t.shape(), std::vector<float>(t.data(), t.data() + t.numel()),
          requires_grad);
    };
    const Tensor h_init = Tensor::xavier({nodes, hidden}, rng);
    std::vector<Tensor> w_init;
    for (int w = 0; w < 4; ++w)
      w_init.push_back(Tensor::xavier({hidden, hidden}, rng));
    const Tensor upstream =
        copy_of(Tensor::xavier({nodes, hidden}, rng), false);
    const std::vector<int> one_segment(nodes, 0);
    const Tensor ones = Tensor::full({hidden, 1}, 1.0f);

    struct Side {
      Tensor h, w0;
      std::vector<Tensor> w;
      Tensor y;
    };
    auto make_side = [&] {
      Side side{copy_of(h_init, true), copy_of(w_init[0], true), {}, {}};
      for (int r = 1; r < 4; ++r) side.w.push_back(copy_of(w_init[r], true));
      return side;
    };
    auto step = [&](Side& side, bool fused) {
      if (fused) {
        side.y = tensor::rgcn_layer(side.h, side.w0, side.w, relations);
      } else {
        Tensor out = tensor::matmul(side.h, side.w0);
        for (int r = 0; r < 3; ++r) {
          Tensor messages = tensor::matmul(
              tensor::gather_rows(side.h, relations[r].src), side.w[r]);
          out = tensor::add(out, tensor::index_add_rows(
                                     messages, relations[r].dst,
                                     relations[r].coeff, nodes));
        }
        side.y = tensor::relu(out);
      }
      tensor::matmul(tensor::segment_mean(tensor::mul(side.y, upstream),
                                          one_segment, 1),
                     ones)
          .backward();
    };

    Side unfused = make_side();
    Side fused = make_side();
    step(unfused, false);
    step(fused, true);
    auto same = [](const float* a, const float* b, std::int64_t n) {
      return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) ==
             0;
    };
    rgcn_identical =
        same(unfused.y.data(), fused.y.data(), unfused.y.numel()) &&
        same(unfused.h.grad(), fused.h.grad(), unfused.h.numel()) &&
        same(unfused.w0.grad(), fused.w0.grad(), unfused.w0.numel());
    for (int r = 0; r < 3; ++r)
      rgcn_identical = rgcn_identical && same(unfused.w[r].grad(),
                                              fused.w[r].grad(),
                                              unfused.w[r].numel());
    if (!rgcn_identical) ++failures;

    Timing unfused_t = time_kernel(warmup, reps, [&] { step(unfused, false); });
    Timing fused_t = time_kernel(warmup, reps, [&] { step(fused, true); });
    rgcn_unfused_ms = unfused_t.median_ms;
    rgcn_fused_ms = fused_t.median_ms;
    Table rgcn_table({"layer shape", "unfused [ms]", "fused [ms]", "speedup",
                      "bit-identical", "malloc B/rep"});
    rgcn_table.add_row(
        {"380 nodes, 200/120/50 edges, H=32", Table::fmt(rgcn_unfused_ms, 3),
         Table::fmt(rgcn_fused_ms, 3),
         Table::fmt(rgcn_unfused_ms / rgcn_fused_ms, 2),
         rgcn_identical ? "yes" : "NO",
         std::to_string((unfused_t.malloc_bytes + fused_t.malloc_bytes) /
                        reps)});
    std::printf("\n=== RGCN layer forward+backward: unfused op chain vs "
                "tensor::rgcn_layer (threads=%d) ===\n",
                threads);
    rgcn_table.print();
  }

  // --- Inference engine -----------------------------------------------------
  // Tape-free batched predict over the full workload suite's region graphs
  // against an untrained (weights are irrelevant to throughput) GNN of the
  // paper's size. Warm calls reuse the model's pooled inference context and
  // caller-owned outputs, so the malloc column must read 0.
  {
    std::vector<graph::ProgramGraph> owned;
    std::vector<const graph::ProgramGraph*> graphs;
    for (const auto& spec : workloads::benchmark_suite()) {
      auto module = workloads::build_region_module(spec);
      owned.push_back(graph::build_graph(*module));
    }
    for (const auto& g : owned) graphs.push_back(&g);

    gnn::ModelConfig cfg;
    cfg.vocab_size = graph::vocabulary_size();
    cfg.num_labels = 13;
    cfg.hidden_dim = 64;
    cfg.num_layers = 3;
    cfg.seed = 0x1FE2;
    cfg.num_threads = threads;
    gnn::StaticModel model(cfg);

    std::vector<int> preds;
    gnn::Evaluation eval;
    Timing predict_t =
        time_kernel(warmup, reps, [&] { model.predict_into(graphs, preds); });
    Timing eval_t = time_kernel(warmup, reps, [&] {
      model.evaluate(graphs, eval, /*want_embeddings=*/true);
    });

    const double G = static_cast<double>(graphs.size());
    Table infer_table({"query", "graphs", "ms/call", "ms/graph", "graphs/sec",
                       "malloc B/call"});
    auto add_infer = [&](const char* name, const Timing& t) {
      infer_table.add_row(
          {name, std::to_string(graphs.size()), Table::fmt(t.median_ms, 3),
           Table::fmt(t.median_ms / G, 4),
           Table::fmt(G / (t.median_ms * 1e-3), 0),
           std::to_string(t.malloc_bytes / reps)});
    };
    add_infer("predict", predict_t);
    add_infer("evaluate (+log-probs, +embeddings)", eval_t);
    std::printf("\n=== Inference engine (tape-free batched predict, "
                "hidden=64, layers=3, threads=%d) ===\n",
                threads);
    infer_table.print();
    infer_float_predict_ms = predict_t.median_ms;
    infer_float_malloc = predict_t.malloc_bytes / reps;
    // Single-threaded warm inference is deterministic and must be
    // allocation-free; concurrent shards may legitimately grow the pool
    // while ramping, so the gate applies only at threads=1.
    if (threads == 1 &&
        (predict_t.malloc_bytes != 0 || eval_t.malloc_bytes != 0)) {
      ++failures;
      std::printf("FAILED: warm single-threaded inference pulled bytes from "
                  "malloc\n");
    }
  }

  std::string csv = parser.get_string("csv");
  if (!csv.empty() && table.write_csv(csv))
    std::printf("(csv written to %s)\n", csv.c_str());

  // --- Machine-readable results (CI artifact) -------------------------------
  // Hand-written fprintf JSON: flat sections, one line per record, no
  // serializer dependency.
  const std::string json_path = parser.get_string("json");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::printf("\nWARNING: could not open %s for writing\n",
                  json_path.c_str());
    } else {
      std::fprintf(f,
                   "{\n"
                   "  \"bench\": \"microbench_kernels\",\n"
                   "  \"config\": {\"threads\": %d, \"reps\": %d, "
                   "\"warmup\": %d},\n"
                   "  \"float_gemm\": [\n",
                   threads, reps, warmup);
      for (std::size_t i = 0; i < float_gemm_records.size(); ++i) {
        const GemmRecord& r = float_gemm_records[i];
        std::fprintf(f,
                     "    {\"shape\": \"%s\", \"reference_ms\": %.4f, "
                     "\"kernel_ms\": %.4f, \"speedup\": %.3f, "
                     "\"bit_identical\": %s}%s\n",
                     r.shape.c_str(), r.before_ms, r.after_ms,
                     r.before_ms / r.after_ms, r.identical ? "true" : "false",
                     i + 1 < float_gemm_records.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n  \"kernel_fanout\": [\n");
      for (std::size_t i = 0; i < fanout_records.size(); ++i) {
        const FanoutRecord& r = fanout_records[i];
        std::fprintf(f,
                     "    {\"shape\": \"%s\", \"serial_ms\": %.4f, "
                     "\"split2_ms\": %.4f, \"matmul_kpar1_ms\": %.4f, "
                     "\"matmul_kpar2_ms\": %.4f}%s\n",
                     r.shape.c_str(), r.serial_ms, r.split_ms, r.kpar1_ms,
                     r.kpar2_ms, i + 1 < fanout_records.size() ? "," : "");
      }
      std::fprintf(
          f,
          "  ],\n"
          "  \"rgcn_layer\": {\"shape\": \"380 nodes, 200/120/50 edges, "
          "H=32\", \"unfused_ms\": %.4f, \"fused_ms\": %.4f, "
          "\"speedup\": %.3f, \"bit_identical\": %s},\n"
          "  \"inference\": {\"float_predict_ms\": %.4f, "
          "\"float_malloc_b\": %llu},\n"
          "  \"failures\": %d\n"
          "}\n",
          rgcn_unfused_ms, rgcn_fused_ms,
          rgcn_unfused_ms / rgcn_fused_ms, rgcn_identical ? "true" : "false",
          infer_float_predict_ms,
          static_cast<unsigned long long>(infer_float_malloc), failures);
      std::fclose(f);
      std::printf("wrote %s\n", json_path.c_str());
    }
  }
  if (failures != 0) {
    std::printf("FAILED: %d engine contract violation(s) (see tables "
                "above)\n",
                failures);
    return 1;
  }
  return 0;
}
