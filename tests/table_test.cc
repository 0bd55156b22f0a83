// Unit tests for FTable: schema handling, CSV round trips, row/cell CRUD,
// selection, row+column diff, column-refined three-way merge, and CSV
// re-imports spliced against a branch head.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "chunk/mem_chunk_store.h"
#include "store/forkbase.h"
#include "types/table.h"
#include "util/datagen.h"
#include "util/random.h"

namespace forkbase {
namespace {

FTable MakeTable(MemChunkStore* store, size_t rows = 100, uint64_t seed = 1) {
  CsvGenOptions opts;
  opts.num_rows = rows;
  opts.seed = seed;
  auto table = FTable::FromCsv(store, GenerateCsv(opts));
  EXPECT_TRUE(table.ok());
  return *table;
}

TEST(FTableTest, CreateAndLookup) {
  MemChunkStore store;
  auto table = FTable::Create(&store, {"id", "name", "qty"},
                              {{"r1", "widget", "5"},
                               {"r2", "gadget", "7"},
                               {"r3", "doodad", "0"}});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->NumRows(), 3u);
  auto row = table->GetRow("r2");
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ(**row, (std::vector<std::string>{"r2", "gadget", "7"}));
  auto cell = table->GetCell("r3", 1);
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(**cell, "doodad");
  auto missing = table->GetRow("r9");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
}

TEST(FTableTest, RejectsBadInputs) {
  MemChunkStore store;
  EXPECT_FALSE(FTable::Create(&store, {}, {}).ok());
  EXPECT_FALSE(FTable::Create(&store, {"id"}, {}, 5).ok());
  EXPECT_FALSE(FTable::Create(&store, {"id", "v"}, {{"r1"}}).ok());
  auto dup = FTable::Create(&store, {"id", "v"}, {{"r1", "a"}, {"r1", "b"}});
  ASSERT_FALSE(dup.ok()) << "duplicate primary keys must be rejected";
  EXPECT_NE(dup.status().message().find("duplicate primary key r1"),
            std::string::npos)
      << dup.status().ToString();
}

TEST(FTableTest, CreateSortsRowsInAnyOrder) {
  MemChunkStore store;
  CsvGenOptions opts;
  opts.num_rows = 500;
  CsvDocument doc = GenerateCsv(opts);
  auto sorted = FTable::FromCsv(&store, doc);
  ASSERT_TRUE(sorted.ok());
  std::reverse(doc.rows.begin(), doc.rows.end());
  auto reversed = FTable::FromCsv(&store, doc);
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ(reversed->id(), sorted->id());
}

TEST(FTableTest, AttachByIdRestoresSchema) {
  MemChunkStore store;
  FTable table = MakeTable(&store);
  auto attached = FTable::Attach(&store, table.id());
  ASSERT_TRUE(attached.ok());
  EXPECT_EQ(attached->columns(), table.columns());
  EXPECT_EQ(attached->key_column(), table.key_column());
  EXPECT_EQ(*attached->NumRows(), *table.NumRows());
}

TEST(FTableTest, CsvRoundTrip) {
  MemChunkStore store;
  CsvGenOptions opts;
  opts.num_rows = 200;
  CsvDocument doc = GenerateCsv(opts);
  auto table = FTable::FromCsv(&store, doc);
  ASSERT_TRUE(table.ok());
  auto exported = table->ToCsv();
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported->header, doc.header);
  // Row ids are generated pre-sorted, so order survives.
  EXPECT_EQ(exported->rows, doc.rows);
}

TEST(FTableTest, UpsertDeleteUpdateCell) {
  MemChunkStore store;
  FTable table = MakeTable(&store, 50);
  auto upserted = table.UpsertRow({"zz-new", "a", "b", "c", "d", "e", "f"});
  ASSERT_TRUE(upserted.ok());
  EXPECT_EQ(*upserted->NumRows(), 51u);

  auto updated = upserted->UpdateCell("zz-new", 2, "CHANGED");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(**updated->GetCell("zz-new", 2), "CHANGED");
  EXPECT_FALSE(updated->UpdateCell("zz-new", 0, "nope").ok())
      << "primary key updates must be rejected";
  EXPECT_TRUE(updated->UpdateCell("absent", 2, "x").status().IsNotFound());

  auto deleted = updated->DeleteRow("zz-new");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted->NumRows(), 50u);
  // Original table unchanged (immutability).
  EXPECT_EQ(*table.NumRows(), 50u);
}

TEST(FTableTest, SelectFiltersRows) {
  MemChunkStore store;
  auto table = FTable::Create(&store, {"id", "qty"},
                              {{"a", "1"}, {"b", "2"}, {"c", "3"}});
  ASSERT_TRUE(table.ok());
  auto selected = table->Select([](const std::vector<std::string>& row) {
    return row[1] >= "2";
  });
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 2u);
}

TEST(FTableTest, DiffRefinesColumns) {
  MemChunkStore store;
  FTable table = MakeTable(&store, 300, 9);
  auto edited = table.UpdateCell("r00000042", 3, "EDITED");
  ASSERT_TRUE(edited.ok());
  auto deltas = table.Diff(*edited);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 1u);
  EXPECT_EQ((*deltas)[0].key, "r00000042");
  EXPECT_EQ((*deltas)[0].changed_columns, (std::vector<size_t>{3}));
}

TEST(FTableTest, DiffSchemasMustMatch) {
  MemChunkStore store;
  auto a = FTable::Create(&store, {"id", "x"}, {{"r", "1"}});
  auto b = FTable::Create(&store, {"id", "y"}, {{"r", "1"}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->Diff(*b).ok());
}

TEST(FTableTest, IdCoversContentAndSchema) {
  MemChunkStore store;
  auto a = FTable::Create(&store, {"id", "v"}, {{"r", "1"}});
  auto b = FTable::Create(&store, {"id", "v"}, {{"r", "1"}});
  auto c = FTable::Create(&store, {"id", "w"}, {{"r", "1"}});
  auto d = FTable::Create(&store, {"id", "v"}, {{"r", "2"}});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_EQ(a->id(), b->id());
  EXPECT_NE(a->id(), c->id()) << "schema participates in identity";
  EXPECT_NE(a->id(), d->id()) << "content participates in identity";
}

TEST(FTableMergeTest, DisjointRowsMerge) {
  MemChunkStore store;
  FTable base = MakeTable(&store, 100, 10);
  auto left = base.UpdateCell("r00000010", 1, "LEFT");
  auto right = base.UpdateCell("r00000090", 2, "RIGHT");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto merged = FTable::Merge3(base, *left, *right);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(**merged->GetCell("r00000010", 1), "LEFT");
  EXPECT_EQ(**merged->GetCell("r00000090", 2), "RIGHT");
}

TEST(FTableMergeTest, SameRowDifferentColumnsMerges) {
  // The column-refinement the paper's data model enables: both sides touch
  // the same row but different columns — no conflict.
  MemChunkStore store;
  FTable base = MakeTable(&store, 100, 11);
  auto left = base.UpdateCell("r00000050", 1, "LEFT");
  auto right = base.UpdateCell("r00000050", 4, "RIGHT");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto merged = FTable::Merge3(base, *left, *right);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(**merged->GetCell("r00000050", 1), "LEFT");
  EXPECT_EQ(**merged->GetCell("r00000050", 4), "RIGHT");
}

TEST(FTableMergeTest, SameCellConflictsStrict) {
  MemChunkStore store;
  FTable base = MakeTable(&store, 100, 12);
  auto left = base.UpdateCell("r00000050", 1, "LEFT");
  auto right = base.UpdateCell("r00000050", 1, "RIGHT");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto strict = FTable::Merge3(base, *left, *right, MergePolicy::kStrict);
  EXPECT_TRUE(strict.status().IsMergeConflict());
  auto prefer = FTable::Merge3(base, *left, *right, MergePolicy::kPreferLeft);
  ASSERT_TRUE(prefer.ok());
  EXPECT_EQ(**prefer->GetCell("r00000050", 1), "LEFT");
}

TEST(FTableMergeTest, DeleteVsUntouchedMerges) {
  MemChunkStore store;
  FTable base = MakeTable(&store, 50, 13);
  auto left = base.DeleteRow("r00000025");
  auto right = base.UpdateCell("r00000030", 1, "R");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto merged = FTable::Merge3(base, *left, *right);
  ASSERT_TRUE(merged.ok());
  auto gone = merged->GetRow("r00000025");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->has_value());
  EXPECT_EQ(**merged->GetCell("r00000030", 1), "R");
}

TEST(FTableTest, ValidateDetectsRowTampering) {
  MemChunkStore store;
  FTable table = MakeTable(&store, 2000, 14);
  ASSERT_TRUE(table.Validate().ok());
  std::vector<Hash256> chunks;
  ASSERT_TRUE(table.rows().tree().ReachableChunks(&chunks).ok());
  ASSERT_TRUE(store.TamperForTesting(chunks[chunks.size() / 2], 7, 0x02));
  EXPECT_FALSE(table.Validate().ok());
}

TEST(FTableTest, RowCodecRejectsMalformed) {
  std::vector<std::string> cells;
  EXPECT_FALSE(FTable::DecodeRow(Slice("\x05nope", 5), 2, &cells));
  std::string good = FTable::EncodeRow({"a", "bb"});
  EXPECT_TRUE(FTable::DecodeRow(good, 2, &cells));
  EXPECT_EQ(cells, (std::vector<std::string>{"a", "bb"}));
  EXPECT_FALSE(FTable::DecodeRow(good, 3, &cells));
  EXPECT_FALSE(FTable::DecodeRow(good, 1, &cells)) << "trailing bytes";
}

// ---------------------------------------------------------------- Re-import --
// ForkBase::PutTableFromCsv over a table head with the same schema splices
// the rows that differ into the head's row tree. Whatever the path, the
// table must be the one a fresh load of the document gives.

/// The table id FTable::FromCsv gives `doc` in a store of its own.
Hash256 FreshId(const CsvDocument& doc, size_t key_column = 0) {
  MemChunkStore store;
  auto table = FTable::FromCsv(&store, doc, key_column);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? table->id() : Hash256{};
}

Hash256 HeadTableId(const ForkBase& db, const std::string& key) {
  auto table = db.GetTable(key);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? table->id() : Hash256{};
}

/// Applies `edits` random edits: changed cells, rows inserted after an
/// existing key, deleted rows.
void EditRows(CsvDocument* doc, size_t edits, Rng* rng, size_t* serial) {
  for (size_t e = 0; e < edits; ++e) {
    const size_t r = rng->Uniform(doc->rows.size());
    switch (rng->Uniform(3)) {
      case 0: {
        auto& row = doc->rows[r];
        row[1 + rng->Uniform(row.size() - 1)] =
            std::string("edit") + std::to_string((*serial)++);
        break;
      }
      case 1: {
        auto row = doc->rows[r];
        row[0] += std::string("-") + std::to_string((*serial)++);
        doc->rows.insert(doc->rows.begin() + r + 1, std::move(row));
        break;
      }
      default:
        if (doc->rows.size() > 1) doc->rows.erase(doc->rows.begin() + r);
        break;
    }
  }
}

TEST(FTableReimportTest, RandomEditBatchesMatchAFreshLoad) {
  ForkBase db(std::make_shared<MemChunkStore>());
  CsvGenOptions opts;
  opts.num_rows = 2000;
  opts.seed = 5;
  CsvDocument doc = GenerateCsv(opts);
  ASSERT_TRUE(db.PutTableFromCsv("t", doc).ok());
  Rng rng(11);
  size_t serial = 0;
  for (int batch = 0; batch < 40; ++batch) {
    // Small batches splice; every fourth is past the splice's bound and
    // builds from scratch. Every fifth arrives out of key order.
    const size_t edits = 1 + rng.Uniform(batch % 4 == 3 ? 400 : 30);
    EditRows(&doc, edits, &rng, &serial);
    if (batch % 5 == 4) {
      for (size_t i = doc.rows.size() - 1; i > 0; --i) {
        std::swap(doc.rows[i], doc.rows[rng.Uniform(i + 1)]);
      }
    }
    ASSERT_TRUE(db.PutTableFromCsv("t", doc).ok()) << "batch " << batch;
    EXPECT_EQ(HeadTableId(db, "t"), FreshId(doc)) << "batch " << batch;
    if (batch % 5 == 4) {
      std::sort(doc.rows.begin(), doc.rows.end());
    }
  }
  auto table = db.GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->Validate().ok());
}

TEST(FTableReimportTest, DenseEmptyAndSchemaChangesMatchAFreshLoad) {
  ForkBase db(std::make_shared<MemChunkStore>());
  CsvGenOptions opts;
  opts.num_rows = 1500;
  CsvDocument doc = GenerateCsv(opts);
  ASSERT_TRUE(db.PutTableFromCsv("t", doc).ok());

  // Every row changed.
  for (auto& row : doc.rows) row[2] += "!";
  ASSERT_TRUE(db.PutTableFromCsv("t", doc).ok());
  EXPECT_EQ(HeadTableId(db, "t"), FreshId(doc));

  // Unchanged: the head's table again.
  const Hash256 before = HeadTableId(db, "t");
  ASSERT_TRUE(db.PutTableFromCsv("t", doc).ok());
  EXPECT_EQ(HeadTableId(db, "t"), before);

  // To an empty table and back.
  CsvDocument empty{doc.header, {}};
  ASSERT_TRUE(db.PutTableFromCsv("t", empty).ok());
  EXPECT_EQ(HeadTableId(db, "t"), FreshId(empty));
  ASSERT_TRUE(db.PutTableFromCsv("t", doc).ok());
  EXPECT_EQ(HeadTableId(db, "t"), FreshId(doc));

  // A schema change and a different key column load fresh.
  CsvDocument wider = doc;
  wider.header.push_back("extra");
  for (auto& row : wider.rows) row.push_back("x");
  ASSERT_TRUE(db.PutTableFromCsv("t", wider).ok());
  EXPECT_EQ(HeadTableId(db, "t"), FreshId(wider));
  for (size_t i = 0; i < wider.rows.size(); ++i) {
    wider.rows[i][1] = std::string("u") + std::to_string(wider.rows.size() - i);
  }
  ASSERT_TRUE(db.PutTableFromCsv("t", wider, 1).ok());
  EXPECT_EQ(HeadTableId(db, "t"), FreshId(wider, 1));

  // A head that is not a table loads fresh too.
  ASSERT_TRUE(db.Put("s", Value::String("not a table")).ok());
  ASSERT_TRUE(db.PutTableFromCsv("s", doc).ok());
  EXPECT_EQ(HeadTableId(db, "s"), FreshId(doc));
}

TEST(FTableReimportTest, BadRowsFailAndLeaveTheHead) {
  ForkBase db(std::make_shared<MemChunkStore>());
  CsvGenOptions opts;
  opts.num_rows = 1000;
  CsvDocument doc = GenerateCsv(opts);
  ASSERT_TRUE(db.PutTableFromCsv("t", doc).ok());
  auto head = db.Head("t");
  ASSERT_TRUE(head.ok());

  CsvDocument dup = doc;
  dup.rows[501][0] = dup.rows[500][0];
  auto failed = db.PutTableFromCsv("t", dup);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("duplicate primary key " +
                                           dup.rows[500][0]),
            std::string::npos)
      << failed.status().ToString();

  CsvDocument ragged = doc;
  ragged.rows[700].pop_back();
  EXPECT_FALSE(db.PutTableFromCsv("t", ragged).ok());
  std::reverse(ragged.rows.begin(), ragged.rows.end());
  EXPECT_FALSE(db.PutTableFromCsv("t", ragged).ok());
  // A dense re-import, which builds fresh, checks every row too.
  CsvDocument dense = doc;
  for (auto& row : dense.rows) row[1] += "!";
  dense.rows.back().pop_back();
  EXPECT_FALSE(db.PutTableFromCsv("t", dense).ok());

  auto after = db.Head("t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *head);
}

/// Counts the chunks written through to a MemChunkStore.
class CountingChunkStore : public ChunkStore {
 public:
  StatusOr<Chunk> Get(const Hash256& id) const override {
    return base_.Get(id);
  }
  std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const override {
    return base_.GetMany(ids);
  }
  bool Contains(const Hash256& id) const override {
    return base_.Contains(id);
  }
  ChunkStoreStats stats() const override { return base_.stats(); }
  void ForEach(const std::function<void(const Hash256&, const Chunk&)>& fn)
      const override {
    base_.ForEach(fn);
  }

  std::atomic<uint64_t> puts{0};

 protected:
  Status PutImpl(const Chunk& chunk) override {
    ++puts;
    return base_.Put(chunk);
  }
  Status PutManyImpl(std::span<const Chunk> chunks) override {
    puts += chunks.size();
    return base_.PutMany(chunks);
  }

 private:
  MemChunkStore base_;
};

TEST(FTableReimportTest, EightRowReimportWritesEightPaths) {
  // The machine-independent guard against a re-import that rebuilds the
  // whole table: 8 changed rows of a 2 MiB table write at most 8 tree
  // paths plus the table header and the version.
  auto store = std::make_shared<CountingChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.target_bytes = 2 << 20;
  CsvDocument doc = GenerateCsv(opts);
  ASSERT_TRUE(db.PutTableFromCsv("t", doc).ok());
  auto table = db.GetTable("t");
  ASSERT_TRUE(table.ok());
  auto shape = table->rows().tree().Shape();
  ASSERT_TRUE(shape.ok());
  Rng rng(4);
  for (int e = 0; e < 8; ++e) {
    doc.rows[rng.Uniform(doc.rows.size())][1] =
        std::string("changed") + std::to_string(e);
  }
  store->puts = 0;
  ASSERT_TRUE(db.PutTableFromCsv("t", doc).ok());
  EXPECT_LE(store->puts.load(), 8 * (shape->height + 3));
  EXPECT_EQ(HeadTableId(db, "t"), FreshId(doc));
}

}  // namespace
}  // namespace forkbase
