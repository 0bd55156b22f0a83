// Property-based tests of the SIRI definition (Def. 1) and the POS-Tree's
// probabilistic-balance / dedup guarantees, swept over sizes and seeds with
// parameterized gtest.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "chunk/mem_chunk_store.h"
#include "postree/diff.h"
#include "postree/tree.h"
#include "util/random.h"

namespace forkbase {
namespace {

std::vector<std::pair<std::string, std::string>> RandomKvs(size_t n,
                                                           uint64_t seed) {
  Rng rng(seed);
  std::map<std::string, std::string> sorted;
  while (sorted.size() < n) {
    sorted[rng.NextString(16)] = rng.NextString(16);
  }
  return {sorted.begin(), sorted.end()};
}

// ------------------------------------------ Property 1: structural invariance

class StructuralInvariance
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(StructuralInvariance, AnyMutationPathYieldsSameTree) {
  const auto [n, seed] = GetParam();
  auto kvs = RandomKvs(n, seed);

  // Path A: bulk build.
  MemChunkStore store_a;
  auto bulk = PosTree::BuildKeyed(&store_a, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(bulk.ok());

  // Path B: build half, then apply the rest in three batches of ops,
  // interleaved with some inserted-then-deleted keys (history noise).
  MemChunkStore store_b;
  std::vector<std::pair<std::string, std::string>> half(
      kvs.begin(), kvs.begin() + kvs.size() / 2);
  auto partial = PosTree::BuildKeyed(&store_b, ChunkType::kMapLeaf, half);
  ASSERT_TRUE(partial.ok());
  PosTree tree(&store_b, ChunkType::kMapLeaf, partial->root);

  Rng rng(seed ^ 0xabcd);
  std::vector<KeyedOp> noise;
  for (int i = 0; i < 20; ++i) {
    noise.push_back(KeyedOp{"noise-" + rng.NextString(8), rng.NextString(8)});
  }
  auto with_noise = tree.ApplyKeyedOps(noise);
  ASSERT_TRUE(with_noise.ok());
  tree = PosTree(&store_b, ChunkType::kMapLeaf, with_noise->root);

  std::vector<KeyedOp> rest_and_denoise;
  for (size_t i = kvs.size() / 2; i < kvs.size(); ++i) {
    rest_and_denoise.push_back(KeyedOp{kvs[i].first, kvs[i].second});
  }
  for (const auto& op : noise) {
    rest_and_denoise.push_back(KeyedOp{op.key, std::nullopt});
  }
  auto final_info = tree.ApplyKeyedOps(rest_and_denoise);
  ASSERT_TRUE(final_info.ok());

  EXPECT_EQ(final_info->root, bulk->root)
      << "R(I1) = R(I2) must imply P(I1) = P(I2) regardless of history";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StructuralInvariance,
    ::testing::Combine(::testing::Values(16, 256, 2048, 8192),
                       ::testing::Values(1u, 2u, 3u)));

// ------------------------------------------ Property 2: recursively identical

class RecursiveIdentity : public ::testing::TestWithParam<size_t> {};

TEST_P(RecursiveIdentity, OneRecordChangesFewPages) {
  const size_t n = GetParam();
  MemChunkStore store;
  auto kvs = RandomKvs(n, 77);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);

  auto plus_one = tree.ApplyKeyedOps(
      {KeyedOp{std::string("extra-record"), std::string("v")}});
  ASSERT_TRUE(plus_one.ok());
  PosTree tree2(&store, ChunkType::kMapLeaf, plus_one->root);

  std::vector<Hash256> pages1, pages2;
  ASSERT_TRUE(tree.ReachableChunks(&pages1).ok());
  ASSERT_TRUE(tree2.ReachableChunks(&pages2).ok());
  std::set<Hash256> set1(pages1.begin(), pages1.end());
  size_t shared = 0;
  for (const auto& p : pages2) shared += set1.count(p);
  size_t unique = pages2.size() - shared;
  // |P(I2) - P(I1)| << |P(I2) ∩ P(I1)|: new pages are one root-to-leaf path.
  EXPECT_LE(unique, 4u) << "only the edited path may differ";
  if (pages2.size() > 8) {
    EXPECT_GT(shared, unique * 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecursiveIdentity,
                         ::testing::Values(512, 4096, 32768));

// ------------------------------------------ Property 3: universally reusable

TEST(UniversalReusability, SmallTreePagesAppearInLargerTree) {
  // Build I1 with records R; build I2 with R + records beyond R's key range.
  // Interior pages of I1 must appear in I2.
  MemChunkStore store;
  std::vector<std::pair<std::string, std::string>> small_kvs;
  Rng rng(99);
  std::map<std::string, std::string> sorted;
  while (sorted.size() < 4096) {
    sorted["m" + rng.NextString(12)] = rng.NextString(12);
  }
  small_kvs.assign(sorted.begin(), sorted.end());
  auto small_info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, small_kvs);
  ASSERT_TRUE(small_info.ok());

  auto big_kvs = small_kvs;
  for (int i = 0; i < 2000; ++i) {
    big_kvs.emplace_back("z" + rng.NextString(12), rng.NextString(12));
  }
  std::sort(big_kvs.begin(), big_kvs.end());
  auto big_info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, big_kvs);
  ASSERT_TRUE(big_info.ok());

  PosTree small(&store, ChunkType::kMapLeaf, small_info->root);
  PosTree big(&store, ChunkType::kMapLeaf, big_info->root);
  std::vector<Hash256> small_pages, big_pages;
  ASSERT_TRUE(small.ReachableChunks(&small_pages).ok());
  ASSERT_TRUE(big.ReachableChunks(&big_pages).ok());
  std::set<Hash256> big_set(big_pages.begin(), big_pages.end());
  size_t reused = 0;
  for (const auto& p : small_pages) reused += big_set.count(p);
  EXPECT_GT(reused, small_pages.size() / 2)
      << "a larger instance must reuse most pages of the smaller one";
  EXPECT_GT(big_pages.size(), small_pages.size());
}

// ------------------------------------------------- Probabilistic balance

class BalanceSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BalanceSweep, HeightIsLogarithmic) {
  MemChunkStore store;
  auto kvs = RandomKvs(GetParam(), 5);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  // Expected fanout ~ 2^q / entry-size >> 2, so height stays small.
  EXPECT_LE(info->height, 6u);
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);
  auto shape = tree.Shape();
  ASSERT_TRUE(shape.ok());
  if (shape->leaf_nodes >= 16) {
    // Mean leaf size should be near the splitter's 2^q expectation — at
    // least, far from the min/max clamps on average.
    double mean_leaf_bytes =
        static_cast<double>(shape->total_bytes) /
        static_cast<double>(shape->total_nodes);
    EXPECT_GT(mean_leaf_bytes, 256.0);
    EXPECT_LT(mean_leaf_bytes, 8192.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BalanceSweep,
                         ::testing::Values(100, 1000, 10000, 60000));

// ------------------------------------------------- Blob chunking stability

class BlobEditSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BlobEditSweep, LocalEditPreservesDistantChunks) {
  const size_t edit_at = GetParam();
  MemChunkStore store;
  std::string data = Rng(123).NextBytes(300000);
  auto a = PosTree::BuildBlob(&store, data);
  ASSERT_TRUE(a.ok());
  std::string edited = data;
  edited[edit_at] = static_cast<char>(edited[edit_at] ^ 0x55);
  auto b = PosTree::BuildBlob(&store, edited);
  ASSERT_TRUE(b.ok());

  PosTree ta(&store, ChunkType::kBlobLeaf, a->root, TreeConfig::ForBlob());
  PosTree tb(&store, ChunkType::kBlobLeaf, b->root, TreeConfig::ForBlob());
  std::vector<Hash256> pa, pb;
  ASSERT_TRUE(ta.ReachableChunks(&pa).ok());
  ASSERT_TRUE(tb.ReachableChunks(&pb).ok());
  std::set<Hash256> sa(pa.begin(), pa.end());
  size_t shared = 0;
  for (const auto& p : pb) shared += sa.count(p);
  // A 1-byte flip must leave the vast majority of ~4 KiB chunks shared.
  EXPECT_GT(shared * 10, pb.size() * 8)
      << "shared " << shared << " of " << pb.size();
}

INSTANTIATE_TEST_SUITE_P(Positions, BlobEditSweep,
                         ::testing::Values(0, 1, 150000, 299998));

// ------------------------------------------------- Diff complexity sweep

class DiffComplexity : public ::testing::TestWithParam<size_t> {};

TEST_P(DiffComplexity, NodesLoadedScalesWithEditsNotSize) {
  const size_t edits = GetParam();
  MemChunkStore store;
  auto kvs = RandomKvs(30000, 11);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  PosTree a(&store, ChunkType::kMapLeaf, info->root);

  Rng rng(12);
  std::vector<KeyedOp> ops;
  for (size_t i = 0; i < edits; ++i) {
    ops.push_back(
        KeyedOp{kvs[rng.Uniform(kvs.size())].first, rng.NextString(8)});
  }
  auto edited = a.ApplyKeyedOps(ops);
  ASSERT_TRUE(edited.ok());
  PosTree b(&store, ChunkType::kMapLeaf, edited->root);

  DiffMetrics metrics;
  auto deltas = DiffKeyed(a, b, &metrics);
  ASSERT_TRUE(deltas.ok());
  auto shape = a.Shape();
  ASSERT_TRUE(shape.ok());
  // Loose O(D log N) envelope: c * (D+1) * height, far below total nodes for
  // small D.
  const uint64_t bound = 8 * (edits + 2) * shape->height;
  EXPECT_LE(metrics.nodes_loaded, std::max<uint64_t>(bound, 24))
      << "edits=" << edits << " loaded=" << metrics.nodes_loaded
      << " total=" << shape->total_nodes;
}

INSTANTIATE_TEST_SUITE_P(EditCounts, DiffComplexity,
                         ::testing::Values(1, 2, 8, 32));

// ------------------------------------------------- Random splice fuzzing

TEST(BlobSpliceFuzz, RandomSplicesMatchReferenceString) {
  MemChunkStore store;
  Rng rng(321);
  std::string reference = rng.NextBytes(50000);
  auto info = PosTree::BuildBlob(&store, reference);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kBlobLeaf, info->root,
               TreeConfig::ForBlob());

  for (int round = 0; round < 12; ++round) {
    uint64_t offset = rng.Uniform(reference.size() + 1);
    uint64_t remove = rng.Uniform(2000);
    std::string insert = rng.NextBytes(rng.Uniform(2000));
    auto spliced = tree.SpliceBytes(offset, remove, insert);
    ASSERT_TRUE(spliced.ok()) << "round " << round;
    uint64_t actual_remove =
        std::min<uint64_t>(remove, reference.size() - std::min<uint64_t>(
                                                          offset,
                                                          reference.size()));
    reference = reference.substr(0, offset) + insert +
                reference.substr(std::min<uint64_t>(offset + actual_remove,
                                                    reference.size()));
    tree = PosTree(&store, ChunkType::kBlobLeaf, spliced->root,
                   TreeConfig::ForBlob());
    std::string out;
    ASSERT_TRUE(tree.ReadBytes(0, reference.size() + 10, &out).ok());
    ASSERT_EQ(out.size(), reference.size()) << "round " << round;
    ASSERT_EQ(out, reference) << "round " << round;
  }
  ASSERT_TRUE(tree.Validate().ok());
}

// ------------------------------------- Incremental splice vs. full rebuild
//
// Differential oracle for TreeSplicer: every randomized batch applied to a
// tree must give the root a from-scratch build of the resulting content
// gives. The tiny configs make nodes a few entries wide, so trees are tall,
// single-entry index nodes (and TreeBuilder's collapse rule) are common and
// batches often grow or shrink the height.

TreeConfig SpliceConfig(int which) {
  TreeConfig c;
  switch (which) {
    case 0:  // stock entry config
      break;
    case 1:  // a few entries per node: tall trees, lone index entries
      c.leaf = SplitConfig{16, 5, 16, 160};
      c.index = SplitConfig{16, 5, 16, 160};
      break;
    default:  // small nodes, more entries each
      c.leaf = SplitConfig{16, 7, 64, 512};
      c.index = SplitConfig{16, 6, 64, 512};
      break;
  }
  return c;
}

class SpliceDifferential
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(SpliceDifferential, KeyedBatchesMatchFromScratchBuild) {
  const auto [which, seed] = GetParam();
  const TreeConfig config = SpliceConfig(which);
  Rng rng(seed);
  MemChunkStore store;
  std::map<std::string, std::string> reference;
  const size_t initial = rng.Uniform(which == 0 ? 3000 : 400);
  while (reference.size() < initial) {
    reference[rng.NextString(1 + rng.Uniform(12))] =
        rng.NextString(rng.Uniform(13));
  }
  auto built = PosTree::BuildKeyed(
      &store, ChunkType::kMapLeaf,
      {reference.begin(), reference.end()}, config);
  ASSERT_TRUE(built.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, built->root, config);
  auto existing_key = [&]() {
    auto it = reference.begin();
    std::advance(it, rng.Uniform(reference.size()));
    return it->first;
  };
  for (int round = 0; round < 40; ++round) {
    std::vector<KeyedOp> ops;
    auto model = reference;
    const uint64_t kind = rng.Uniform(10);
    if (kind == 0) {
      for (const auto& [k, v] : reference) ops.push_back({k, std::nullopt});
    } else if (kind == 1) {
      for (int i = 0; i < 150; ++i) {
        ops.push_back({rng.NextString(1 + rng.Uniform(12)),
                       rng.NextString(rng.Uniform(13))});
      }
    } else if (kind == 2 && !reference.empty()) {
      // Far apart: first, last and a middle key in one batch.
      ops.push_back({reference.begin()->first, std::string("first")});
      ops.push_back({reference.rbegin()->first, std::nullopt});
      ops.push_back({existing_key(), std::string("middle")});
      ops.push_back({std::string("~after-last"), std::string("z")});
    } else {
      const size_t n = 1 + rng.Uniform(8);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t op = rng.Uniform(5);
        if (op == 0 && !reference.empty()) {
          ops.push_back({existing_key(), rng.NextString(rng.Uniform(13))});
        } else if (op == 1 && !reference.empty()) {
          ops.push_back({existing_key(), std::nullopt});
        } else if (op == 2) {
          ops.push_back({rng.NextString(1 + rng.Uniform(12)), std::nullopt});
        } else if (op == 3 && !ops.empty()) {
          ops.push_back({ops.back().key, rng.NextString(4)});  // duplicate
        } else {
          ops.push_back({rng.NextString(1 + rng.Uniform(12)),
                         rng.NextString(rng.Uniform(13))});
        }
      }
    }
    for (const auto& op : ops) {
      if (op.value) {
        model[op.key] = *op.value;
      } else {
        model.erase(op.key);
      }
    }
    auto applied = tree.ApplyKeyedOps(ops);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    MemChunkStore fresh;
    auto scratch = PosTree::BuildKeyed(&fresh, ChunkType::kMapLeaf,
                                       {model.begin(), model.end()}, config);
    ASSERT_TRUE(scratch.ok());
    ASSERT_EQ(applied->root, scratch->root)
        << "round " << round << " kind " << kind << " size " << model.size();
    EXPECT_EQ(applied->height, scratch->height) << "round " << round;
    EXPECT_EQ(applied->count, model.size());
    tree = PosTree(&store, ChunkType::kMapLeaf, applied->root, config);
    ASSERT_TRUE(tree.Validate().ok()) << "round " << round;
    reference = std::move(model);
  }
}

TEST_P(SpliceDifferential, ListSplicesMatchFromScratchBuild) {
  const auto [which, seed] = GetParam();
  const TreeConfig config = SpliceConfig(which);
  Rng rng(seed * 7 + 1);
  MemChunkStore store;
  std::vector<std::string> reference;
  for (size_t i = rng.Uniform(which == 0 ? 3000 : 400); i > 0; --i) {
    reference.push_back(rng.NextString(rng.Uniform(20)));
  }
  auto built = PosTree::BuildList(&store, reference, config);
  ASSERT_TRUE(built.ok());
  PosTree tree(&store, ChunkType::kListLeaf, built->root, config);
  for (int round = 0; round < 40; ++round) {
    const uint64_t start = rng.Uniform(reference.size() + 3);
    const uint64_t kind = rng.Uniform(8);
    const uint64_t remove = kind == 0   ? UINT64_MAX
                            : kind == 1 ? rng.Uniform(reference.size() + 1)
                                        : rng.Uniform(6);
    std::vector<std::string> inserts;
    for (size_t i = rng.Uniform(kind == 2 ? 200 : 6); i > 0; --i) {
      inserts.push_back(rng.NextString(rng.Uniform(20)));
    }
    const size_t at = std::min<size_t>(start, reference.size());
    const size_t gone = std::min<uint64_t>(remove, reference.size() - at);
    reference.erase(reference.begin() + at, reference.begin() + at + gone);
    reference.insert(reference.begin() + at, inserts.begin(), inserts.end());

    auto spliced = tree.SpliceElements(start, remove, inserts);
    ASSERT_TRUE(spliced.ok()) << spliced.status().ToString();
    MemChunkStore fresh;
    auto scratch = PosTree::BuildList(&fresh, reference, config);
    ASSERT_TRUE(scratch.ok());
    ASSERT_EQ(spliced->root, scratch->root)
        << "round " << round << " start " << start << " remove " << remove;
    EXPECT_EQ(spliced->height, scratch->height);
    tree = PosTree(&store, ChunkType::kListLeaf, spliced->root, config);
  }
  ASSERT_TRUE(tree.Validate().ok());
}

TEST_P(SpliceDifferential, BlobSplicesMatchFromScratchBuild) {
  const auto [which, seed] = GetParam();
  TreeConfig config = TreeConfig::ForBlob();
  if (which != 0) config.leaf = SplitConfig{16, 5, 32, 256};
  if (which == 1) config.index = SpliceConfig(1).index;
  Rng rng(seed * 13 + 5);
  MemChunkStore store;
  std::string reference = rng.NextBytes(rng.Uniform(60000));
  auto built = PosTree::BuildBlob(&store, reference, config);
  ASSERT_TRUE(built.ok());
  PosTree tree(&store, ChunkType::kBlobLeaf, built->root, config);
  for (int round = 0; round < 30; ++round) {
    const uint64_t offset = rng.Uniform(reference.size() + 3);
    const uint64_t kind = rng.Uniform(8);
    const uint64_t remove = kind == 0   ? UINT64_MAX
                            : kind == 1 ? rng.Uniform(reference.size() + 1)
                                        : rng.Uniform(300);
    const std::string insert =
        rng.NextBytes(rng.Uniform(kind == 2 ? 20000 : 300));
    const size_t at = std::min<size_t>(offset, reference.size());
    const size_t gone = std::min<uint64_t>(remove, reference.size() - at);
    reference = reference.substr(0, at) + insert + reference.substr(at + gone);

    auto spliced = tree.SpliceBytes(offset, remove, insert);
    ASSERT_TRUE(spliced.ok()) << spliced.status().ToString();
    MemChunkStore fresh;
    auto scratch = PosTree::BuildBlob(&fresh, reference, config);
    ASSERT_TRUE(scratch.ok());
    ASSERT_EQ(spliced->root, scratch->root)
        << "round " << round << " offset " << offset << " remove " << remove;
    EXPECT_EQ(spliced->count, reference.size());
    tree = PosTree(&store, ChunkType::kBlobLeaf, spliced->root, config);
  }
  ASSERT_TRUE(tree.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpliceDifferential,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1u, 2u, 3u,
                                                              4u)));

}  // namespace
}  // namespace forkbase
