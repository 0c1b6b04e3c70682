#include "callgraph.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>

namespace mcs::lint {

CallGraph CallGraph::build(const std::vector<FileIndex>& files,
                           Edges edges) {
  CallGraph g;
  // Node table in (file, function) order.
  std::map<std::string, std::vector<int>> by_name;
  std::map<std::pair<const FileIndex*, std::string>, std::vector<int>>
      lambdas_by_file;
  for (const FileIndex& f : files) {
    for (const FunctionInfo& fn : f.functions) {
      const int id = static_cast<int>(g.nodes_.size());
      g.nodes_.push_back({&f, &fn});
      if (fn.is_lambda) {
        lambdas_by_file[{&f, fn.name}].push_back(id);
      } else {
        by_name[fn.name].push_back(id);
      }
    }
  }
  g.out_.assign(g.nodes_.size(), {});
  for (std::size_t n = 0; n < g.nodes_.size(); ++n) {
    const Node& node = g.nodes_[n];
    std::set<int> targets;
    const auto link = [&](const std::string& name) {
      if (name.rfind("<lambda@", 0) == 0) {
        auto it = lambdas_by_file.find({node.file, name});
        if (it != lambdas_by_file.end()) {
          targets.insert(it->second.begin(), it->second.end());
        }
        return;
      }
      auto it = by_name.find(name);
      if (it == by_name.end()) return;
      for (int t : it->second) {
        if (t != static_cast<int>(n)) targets.insert(t);
      }
    };
    // Lambda names reach a body only as calls (the enclosing function
    // "calls" each lambda it defines), so both kinds walk the call sites.
    for (const CallSite& c : node.fn->calls) link(c.callee);
    if (edges == Edges::kReferences) {
      for (const std::string& name : node.fn->refs) link(name);
    }
    g.out_[n].assign(targets.begin(), targets.end());
  }
  return g;
}

std::vector<int> CallGraph::reach(const std::vector<int>& roots,
                                  const std::vector<char>& blocked) const {
  std::vector<int> parent(nodes_.size(), -1);
  std::deque<int> queue;
  for (int r : roots) {
    if (r < 0 || static_cast<std::size_t>(r) >= nodes_.size()) continue;
    if (!blocked.empty() && blocked[static_cast<std::size_t>(r)]) continue;
    if (parent[static_cast<std::size_t>(r)] != -1) continue;
    parent[static_cast<std::size_t>(r)] = r;
    queue.push_back(r);
  }
  while (!queue.empty()) {
    const int n = queue.front();
    queue.pop_front();
    for (int t : out_[static_cast<std::size_t>(n)]) {
      if (parent[static_cast<std::size_t>(t)] != -1) continue;
      if (!blocked.empty() && blocked[static_cast<std::size_t>(t)]) continue;
      parent[static_cast<std::size_t>(t)] = n;
      queue.push_back(t);
    }
  }
  return parent;
}

std::string CallGraph::chain(const std::vector<int>& parent, int node) const {
  std::vector<int> path;
  int cur = node;
  while (cur >= 0 && parent[static_cast<std::size_t>(cur)] != cur &&
         path.size() < nodes_.size()) {
    path.push_back(cur);
    cur = parent[static_cast<std::size_t>(cur)];
  }
  if (cur >= 0) path.push_back(cur);
  std::string out;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    if (!out.empty()) out += " -> ";
    out += nodes_[static_cast<std::size_t>(*it)].fn->qual;
  }
  return out;
}

std::string CallGraph::to_dot() const {
  std::ostringstream dot;
  dot << "digraph mcs_callgraph {\n"
      << "  rankdir=LR;\n  node [shape=box, fontsize=9];\n";
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    dot << "  n" << n << " [label=\"" << node.fn->qual << "\\n"
        << node.file->path << ":" << node.fn->line << "\"";
    if (node.fn->hot_annotated) {
      dot << ", style=filled, fillcolor=\"#f4b8b8\"";
    } else if (node.fn->sweep_root || node.fn->sim_callback_root) {
      dot << ", style=filled, fillcolor=\"#b8d4f4\"";
    }
    dot << "];\n";
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    for (int t : out_[n]) {
      dot << "  n" << n << " -> n" << t << ";\n";
    }
  }
  dot << "}\n";
  return dot.str();
}

// ---- layer DAG --------------------------------------------------------------

int layer_rank(const std::string& module) {
  static const std::map<std::string, int> kRanks = {
      {"core", 0},
      {"sim", 1},      {"metrics", 1},
      {"graph", 2},    {"parallel", 2}, {"infra", 2}, {"workload", 2},
      {"sched", 3},    {"failures", 3}, {"obs", 3},
      {"exp", 4},      {"check", 4},
      {"autoscale", 5}, {"bigdata", 5}, {"evolve", 5},
      {"faas", 5},      {"gaming", 5},  {"p2p", 5}};
  auto it = kRanks.find(module);
  return it == kRanks.end() ? -1 : it->second;
}

const char* layer_name(int rank) {
  switch (rank) {
    case 0: return "core";
    case 1: return "kernel (sim/metrics)";
    case 2: return "substrate (graph/parallel/infra/workload)";
    case 3: return "platform (sched/failures/obs)";
    case 4: return "harness (exp/check)";
    case 5: return "domain ecosystems";
  }
  return "?";
}

std::vector<LayerViolation> check_layers(const std::vector<FileIndex>& files) {
  std::vector<LayerViolation> out;
  // Module-level edge set for cycle detection, with a representative
  // (file, line) per edge — the lexicographically first one.
  std::map<std::pair<std::string, std::string>, std::pair<std::string, int>>
      edges;
  for (const FileIndex& f : files) {
    const std::string from = module_of(f.path);
    if (from.empty() || layer_rank(from) < 0) continue;
    for (const IncludeDirective& inc : f.includes) {
      if (inc.angled) continue;
      // Include targets are written module-relative ("sched/engine.hpp")
      // or parent-relative ("../sim/simulator.hpp").
      std::string target = inc.path;
      while (target.rfind("../", 0) == 0) target = target.substr(3);
      const std::size_t slash = target.find('/');
      if (slash == std::string::npos) continue;  // same-directory include
      const std::string to = target.substr(0, slash);
      if (to == from || layer_rank(to) < 0) continue;
      const auto key = std::make_pair(from, to);
      const auto rep = std::make_pair(f.path, inc.line);
      auto it = edges.find(key);
      if (it == edges.end() || rep < it->second) edges[key] = rep;
      if (layer_rank(to) > layer_rank(from)) {
        LayerViolation v;
        v.file = f.path;
        v.line = inc.line;
        v.chain = from + " -> " + to;
        v.message =
            "include edge climbs the layer DAG: `" + from + "` (layer " +
            std::to_string(layer_rank(from)) + ", " +
            layer_name(layer_rank(from)) + ") must not include `" + inc.path +
            "` from `" + to + "` (layer " + std::to_string(layer_rank(to)) +
            ", " + layer_name(layer_rank(to)) +
            ") — DESIGN.md §8 layer DAG: core <- sim/metrics <- "
            "graph/parallel/infra/workload <- sched/failures/obs <- "
            "exp/check <- domains";
        out.push_back(std::move(v));
      }
    }
  }
  // Module-level cycles (A -> B -> A never satisfies any layering, even
  // same-rank modules like sim/metrics which may depend one way only).
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, rep] : edges) adj[key.first].push_back(key.second);
  std::set<std::string> reported;
  for (const auto& [start, unused] : adj) {
    (void)unused;
    // DFS from each module; report a cycle once via its sorted signature.
    std::vector<std::string> path{start};
    std::set<std::string> on_path{start};
    struct Frame {
      std::string mod;
      std::size_t next = 0;
    };
    std::vector<Frame> stack{{start, 0}};
    while (!stack.empty()) {
      Frame& fr = stack.back();
      const auto it = adj.find(fr.mod);
      if (it == adj.end() || fr.next >= it->second.size()) {
        on_path.erase(fr.mod);
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const std::string& next = it->second[fr.next++];
      if (on_path.count(next) != 0) {
        // Found a cycle: next ... back to next.
        std::vector<std::string> cyc;
        for (std::size_t k = 0; k < path.size(); ++k) {
          if (!cyc.empty() || path[k] == next) cyc.push_back(path[k]);
        }
        cyc.push_back(next);
        std::vector<std::string> sig(cyc.begin(), cyc.end() - 1);
        std::sort(sig.begin(), sig.end());
        std::string sig_key;
        for (const std::string& m : sig) sig_key += m + ",";
        if (reported.insert(sig_key).second) {
          std::string chain;
          for (const std::string& m : cyc) {
            if (!chain.empty()) chain += " -> ";
            chain += m;
          }
          const auto rep = edges.at({cyc[cyc.size() - 2], cyc.back()});
          LayerViolation v;
          v.file = rep.first;
          v.line = rep.second;
          v.chain = chain;
          v.message = "module include cycle: " + chain +
                      " — the layer DAG admits no cycles; invert one "
                      "dependency or split the shared piece downward";
          out.push_back(std::move(v));
        }
        continue;
      }
      if (adj.count(next) != 0) {
        path.push_back(next);
        on_path.insert(next);
        stack.push_back({next, 0});
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const LayerViolation& a, const LayerViolation& b) {
                     return a.file != b.file ? a.file < b.file
                                             : a.line < b.line;
                   });
  return out;
}

}  // namespace mcs::lint
