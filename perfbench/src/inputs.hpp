#pragma once

// Seeded inputs: the irregular spawn tree (fj-irregular, and every job of
// svc-burst) and the job stream of svc-burst. Everything here is a pure
// function of its seed, so equal seeds give equal inputs.

#include <cstdint>

namespace perfbench {

/// SplitMix64 finalizer: the hash every tree node derives from.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A UTS-style splittable tree: a node is (state, size), where `size`
/// counts the nodes of its subtree. A node of size 1 is a leaf; a larger
/// node hashes its state into 2-4 children and splits its size - 1
/// descendants among them with skewed weights (one child may get 90% and
/// another 1%), so the tree is deep and unbalanced in a seed-dependent
/// way while its node count is exactly the requested size. Every node
/// does the same sub-microsecond hashing work, and the tree's value is
/// the wrapping sum of all node values.
struct TreeNode {
  std::uint64_t state = 0;
  std::uint64_t size = 1;
};

inline constexpr int kMaxChildren = 4;

/// Value of one node (its own work, without its children).
std::uint64_t node_value(const TreeNode& n);

/// The children of `n`, written into `out`; returns how many (0 for a
/// leaf). Sizes of the children sum to n.size - 1.
int split(const TreeNode& n, TreeNode out[kMaxChildren]);

inline TreeNode tree_root(std::uint64_t seed, std::uint64_t size) {
  return TreeNode{mix(seed ^ 0x7265650000000000ull), size};
}

/// Serial walk (the spawn elision): the reference value.
std::uint64_t tree_serial(const TreeNode& n);

/// The same walk with one Runtime::spawn per child and a sync; must run
/// inside a task.
std::uint64_t tree_parallel(const TreeNode& n);

/// Depth of the deepest leaf (root = 0).
int tree_depth(const TreeNode& n);

/// One job of svc-burst: its tree and the service contract it
/// declares.
struct JobSpec {
  TreeNode tree;
  int squads = 1;
  int tier = 0;
};

/// Job i of the seeded stream: alternating 1- and 2-squad jobs, tiers
/// 0 and 1 crossed with the width, and a tree of `min_nodes` to
/// 5/3 `min_nodes` nodes.
JobSpec job_spec(std::uint64_t seed, std::uint64_t i,
                 std::uint64_t min_nodes);

}  // namespace perfbench
