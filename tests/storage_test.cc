// Tests for the storage substrate: disk model classification, buffer pool
// LRU behaviour, and the page layouts.

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/data_layout.h"
#include "storage/disk_model.h"
#include "storage/page.h"

namespace msq {
namespace {

// ---------------------------------------------------------------------
// DiskModel
// ---------------------------------------------------------------------

TEST(DiskModelTest, FirstReadIsRandom) {
  DiskModel disk;
  QueryStats stats;
  disk.RecordRead(0, &stats);
  EXPECT_EQ(stats.random_page_reads, 1u);
  EXPECT_EQ(stats.seq_page_reads, 0u);
}

TEST(DiskModelTest, ConsecutivePagesAreSequential) {
  DiskModel disk;
  QueryStats stats;
  disk.RecordRead(5, &stats);
  disk.RecordRead(6, &stats);
  disk.RecordRead(7, &stats);
  EXPECT_EQ(stats.random_page_reads, 1u);
  EXPECT_EQ(stats.seq_page_reads, 2u);
}

TEST(DiskModelTest, BackwardOrSkippingReadsAreRandom) {
  DiskModel disk;
  QueryStats stats;
  disk.RecordRead(5, &stats);
  disk.RecordRead(4, &stats);   // backward
  disk.RecordRead(10, &stats);  // skip
  disk.RecordRead(10, &stats);  // same page again: head moved past it
  EXPECT_EQ(stats.random_page_reads, 4u);
  EXPECT_EQ(stats.seq_page_reads, 0u);
}

TEST(DiskModelTest, ResetForgetsHeadPosition) {
  DiskModel disk;
  QueryStats stats;
  disk.RecordRead(5, &stats);
  disk.Reset();
  disk.RecordRead(6, &stats);  // would be sequential without the reset
  EXPECT_EQ(stats.random_page_reads, 2u);
}

TEST(DiskModelTest, NullStatsIsSafe) {
  DiskModel disk;
  disk.RecordRead(1, nullptr);
  EXPECT_EQ(disk.last_page(), 1u);
}

// ---------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(2);
  QueryStats stats;
  EXPECT_FALSE(pool.Access(1, &stats));
  EXPECT_TRUE(pool.Access(1, &stats));
  EXPECT_EQ(stats.buffer_hits, 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(2);
  QueryStats stats;
  pool.Access(1, &stats);
  pool.Access(2, &stats);
  pool.Access(1, &stats);  // 1 becomes most recent
  pool.Access(3, &stats);  // evicts 2
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_TRUE(pool.Contains(3));
}

TEST(BufferPoolTest, CapacityZeroCachesNothing) {
  BufferPool pool(0);
  QueryStats stats;
  EXPECT_FALSE(pool.Access(1, &stats));
  EXPECT_FALSE(pool.Access(1, &stats));
  EXPECT_EQ(stats.buffer_hits, 0u);
}

TEST(BufferPoolTest, SizeNeverExceedsCapacity) {
  BufferPool pool(3);
  QueryStats stats;
  for (PageId p = 0; p < 100; ++p) pool.Access(p, &stats);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(BufferPoolTest, ClearDropsEverything) {
  BufferPool pool(4);
  QueryStats stats;
  pool.Access(1, &stats);
  pool.Access(2, &stats);
  pool.Clear();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.Contains(1));
}

TEST(BufferPoolTest, HitRefreshesRecency) {
  BufferPool pool(2);
  QueryStats stats;
  pool.Access(1, &stats);
  pool.Access(2, &stats);
  pool.Access(1, &stats);
  pool.Access(3, &stats);
  pool.Access(4, &stats);  // evicts 1 (2 already gone)
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(3));
  EXPECT_TRUE(pool.Contains(4));
}

// ---------------------------------------------------------------------
// ObjectsPerPage / DataLayout
// ---------------------------------------------------------------------

TEST(ObjectsPerPageTest, MatchesPageSizeArithmetic) {
  // 32 KB page, 20-d float vectors + 8 bytes overhead = 88 bytes.
  EXPECT_EQ(ObjectsPerPage(32 * 1024, 20), 32u * 1024 / 88);
  // Degenerate: object bigger than page still yields 1.
  EXPECT_EQ(ObjectsPerPage(16, 100), 1u);
}

TEST(DataLayoutTest, SequentialPartitionsInOrder) {
  DataLayout layout = DataLayout::Sequential(10, 4, 0);
  EXPECT_EQ(layout.num_pages(), 3u);
  EXPECT_EQ(layout.Peek(0), (std::vector<ObjectId>{0, 1, 2, 3}));
  EXPECT_EQ(layout.Peek(2), (std::vector<ObjectId>{8, 9}));
  EXPECT_EQ(layout.PageOf(5), 1u);
  EXPECT_TRUE(layout.CheckInvariants().ok());
}

TEST(DataLayoutTest, FromGroupsMapsObjectsToTheirGroup) {
  DataLayout layout =
      DataLayout::FromGroups({{2, 0}, {1, 3, 4}}, 0);
  EXPECT_EQ(layout.num_pages(), 2u);
  EXPECT_EQ(layout.PageOf(0), 0u);
  EXPECT_EQ(layout.PageOf(3), 1u);
  EXPECT_TRUE(layout.CheckInvariants().ok());
}

TEST(DataLayoutTest, InvariantsCatchMissingObject) {
  // Object 1 never stored.
  DataLayout layout = DataLayout::FromGroups({{0, 2}}, 0);
  EXPECT_TRUE(layout.CheckInvariants().IsCorruption());
}

TEST(DataLayoutTest, InvariantsCatchEmptyPage) {
  DataLayout layout = DataLayout::FromGroups({{0}, {}}, 0);
  EXPECT_TRUE(layout.CheckInvariants().IsCorruption());
}

// Reads `page` through the layout for its I/O accounting alone.
void ChargeRead(DataLayout* layout, PageId page, QueryStats* stats) {
  const std::vector<ObjectId>* ids = nullptr;
  ASSERT_TRUE(layout->TryRead(page, stats, &ids).ok());
}

TEST(DataLayoutTest, ReadChargesBufferThenDisk) {
  DataLayout layout = DataLayout::Sequential(8, 2, 2);
  QueryStats stats;
  ChargeRead(&layout, 0, &stats);  // miss -> random read
  ChargeRead(&layout, 1, &stats);  // miss -> sequential read
  ChargeRead(&layout, 0, &stats);  // hit
  EXPECT_EQ(stats.random_page_reads, 1u);
  EXPECT_EQ(stats.seq_page_reads, 1u);
  EXPECT_EQ(stats.buffer_hits, 1u);
}

TEST(DataLayoutTest, FullScanIsOneRandomPlusSequentials) {
  DataLayout layout = DataLayout::Sequential(100, 10, 0);
  QueryStats stats;
  for (PageId p = 0; p < layout.num_pages(); ++p) {
    ChargeRead(&layout, p, &stats);
  }
  EXPECT_EQ(stats.random_page_reads, 1u);
  EXPECT_EQ(stats.seq_page_reads, layout.num_pages() - 1);
}

TEST(DataLayoutTest, ResetIoStateColdStartsDiskAndBuffer) {
  DataLayout layout = DataLayout::Sequential(8, 2, 4);
  QueryStats stats;
  ChargeRead(&layout, 0, &stats);
  layout.ResetIoState();
  ChargeRead(&layout, 0, &stats);  // would be a buffer hit without the reset
  EXPECT_EQ(stats.buffer_hits, 0u);
  EXPECT_EQ(stats.random_page_reads, 2u);
}

}  // namespace
}  // namespace msq
