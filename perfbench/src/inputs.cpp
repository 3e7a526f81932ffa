#include "inputs.hpp"

#include <algorithm>

#include "runtime/runtime.hpp"

namespace perfbench {

std::uint64_t node_value(const TreeNode& n) {
  // 8 dependent hash rounds, a few tens of ns: sub-microsecond nodes, so
  // scheduling costs are a large share of every op.
  std::uint64_t x = n.state ^ n.size;
  for (int r = 0; r < 8; ++r) x = mix(x);
  return x;
}

int split(const TreeNode& n, TreeNode out[kMaxChildren]) {
  if (n.size <= 1) return 0;
  const std::uint64_t rest = n.size - 1;
  const std::uint64_t h = mix(n.state);
  const int k = static_cast<int>(
      std::min<std::uint64_t>(2 + h % 3, rest));
  std::uint64_t w[kMaxChildren] = {};
  std::uint64_t total = 0;
  int heaviest = 0;
  for (int j = 0; j < k; ++j) {
    const std::uint64_t r = (mix(h + static_cast<std::uint64_t>(j)) >> 8) % 32;
    w[j] = 1 + r * r;  // 1..962: most splits are strongly skewed
    total += w[j];
    if (w[j] > w[heaviest]) heaviest = j;
  }
  std::uint64_t sizes[kMaxChildren] = {};
  std::uint64_t given = 0;
  for (int j = 0; j < k; ++j) {
    // rest * w[j] cannot overflow: trees stay far below 2^50 nodes.
    sizes[j] = rest * w[j] / total;
    given += sizes[j];
  }
  sizes[heaviest] += rest - given;
  int c = 0;
  for (int j = 0; j < k; ++j) {
    if (sizes[j] == 0) continue;
    const std::uint64_t salt = 0xC0FFEEull * static_cast<std::uint64_t>(j + 1);
    out[c++] = TreeNode{mix(h ^ salt), sizes[j]};
  }
  return c;
}

std::uint64_t tree_serial(const TreeNode& n) {
  TreeNode kids[kMaxChildren];
  const int k = split(n, kids);
  std::uint64_t v = node_value(n);
  for (int j = 0; j < k; ++j) v += tree_serial(kids[j]);
  return v;
}

std::uint64_t tree_parallel(const TreeNode& n) {
  TreeNode kids[kMaxChildren];
  const int k = split(n, kids);
  std::uint64_t out[kMaxChildren] = {};
  for (int j = 0; j < k; ++j) {
    const TreeNode c = kids[j];
    std::uint64_t* slot = &out[j];  // joined by the sync below
    cab::runtime::Runtime::spawn([c, slot] { *slot = tree_parallel(c); });
  }
  std::uint64_t v = node_value(n);
  if (k > 0) cab::runtime::Runtime::sync();
  for (int j = 0; j < k; ++j) v += out[j];
  return v;
}

int tree_depth(const TreeNode& n) {
  TreeNode kids[kMaxChildren];
  const int k = split(n, kids);
  int d = 0;
  for (int j = 0; j < k; ++j) d = std::max(d, 1 + tree_depth(kids[j]));
  return d;
}

JobSpec job_spec(std::uint64_t seed, std::uint64_t i,
                 std::uint64_t min_nodes) {
  const std::uint64_t h = mix(mix(seed ^ 0x10B5ull) + i);
  JobSpec j;
  j.tree = TreeNode{mix(h), min_nodes + h % (2 * min_nodes / 3 + 1)};
  j.squads = 1 + static_cast<int>(i % 2);
  j.tier = static_cast<int>((i / 2) % 2);
  return j;
}

}  // namespace perfbench
