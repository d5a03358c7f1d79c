#include "proto/clustering.hpp"

#include <algorithm>
#include <tuple>

#include "proto/aggregation.hpp"
#include "proto/flood.hpp"
#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"

namespace hybrid {

cluster_decomposition compute_clusters(hybrid_net& net,
                                       const ruling_set_result& rs) {
  const u32 n = net.n();
  cluster_decomposition cd;
  cd.rulers = rs.rulers;
  cd.beta = rs.beta;
  cd.cluster_of.assign(n, ~u32{0});
  cd.hops_to_ruler.assign(n, ~u32{0});
  cd.members.resize(rs.rulers.size());

  const auto heard = hop_discovery(net, rs.rulers, rs.beta,
                                   /*early_exit=*/true);
  for (u32 v = 0; v < n; ++v) {
    u32 best_cluster = ~u32{0};
    u32 best_hop = ~u32{0};
    for (const discovered_seed& d : heard[v]) {
      const u32 c = d.seed;
      // hop_discovery reports ascending hop; ties resolve to the smaller
      // ruler ID because rulers are sorted and we compare explicitly.
      if (d.hop < best_hop ||
          (d.hop == best_hop && rs.rulers[c] < rs.rulers[best_cluster])) {
        best_hop = d.hop;
        best_cluster = c;
      }
    }
    HYB_INVARIANT(best_cluster != ~u32{0},
                  "ruling set domination radius violated: node saw no ruler");
    cd.cluster_of[v] = best_cluster;
    cd.hops_to_ruler[v] = best_hop;
    cd.members[best_cluster].push_back(v);
    cd.max_radius = std::max(cd.max_radius, best_hop);
  }
  // Make max_radius common knowledge (one max-aggregation, Lemma B.2).
  const u64 agg =
      global_aggregate(net, agg_op::max,
                       std::vector<u64>(cd.hops_to_ruler.begin(),
                                        cd.hops_to_ruler.end()));
  HYB_INVARIANT(agg == cd.max_radius, "radius aggregation mismatch");
  return cd;
}

std::vector<std::vector<item128>> cluster_flood(
    hybrid_net& net, const cluster_decomposition& cd,
    std::vector<std::vector<item128>> initial, u32 rounds) {
  const u32 n = net.n();
  HYB_REQUIRE(initial.size() == n, "initial items must cover every node");
  // Item k floods from roots[k]; the kernel carries its index.
  std::vector<u32> roots;
  std::vector<item128> items;
  for (u32 v = 0; v < n; ++v)
    for (const item128& it : initial[v]) {
      roots.push_back(v);
      items.push_back(it);
    }
  std::vector<item128> sorted(items);
  std::sort(sorted.begin(), sorted.end(),
            [](const item128& x, const item128& y) {
              return std::tie(x.a, x.b) < std::tie(y.a, y.b);
            });
  HYB_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
              "cluster_flood items must be distinct");
  const std::vector<sparse_dist_map> heard = flood_rounds(
      net, roots, rounds, /*early_exit=*/true, nullptr, &cd.cluster_of);
  std::vector<std::vector<item128>> known(n);
  for (u32 v = 0; v < n; ++v)
    for (const exploration_entry& e : heard[v].entries())
      known[v].push_back(items[e.source]);
  return known;
}

}  // namespace hybrid
