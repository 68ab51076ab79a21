#include "common/segmented.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <vector>

namespace fnda {
namespace {

using Column = SegmentedColumn<std::uint64_t>;
constexpr std::size_t kBlock = Column::kBlockSize;

static_assert(std::random_access_iterator<Column::const_iterator>);
static_assert((kBlock & (kBlock - 1)) == 0, "blocks are a power of two");

TEST(SegmentedColumnTest, EmptyColumn) {
  const Column column;
  EXPECT_TRUE(column.empty());
  EXPECT_EQ(column.size(), 0u);
  EXPECT_EQ(column.begin(), column.end());
  EXPECT_EQ(std::distance(column.begin(), column.end()), 0);
}

TEST(SegmentedColumnTest, ValuesSurviveBlockBoundaries) {
  Column column;
  const std::size_t count = 2 * kBlock + 3;
  for (std::size_t i = 0; i < count; ++i) column.push_back(i * 7 + 1);
  ASSERT_EQ(column.size(), count);
  for (const std::size_t i :
       {std::size_t{0}, kBlock - 1, kBlock, kBlock + 1, 2 * kBlock - 1,
        2 * kBlock, count - 1}) {
    EXPECT_EQ(column[i], i * 7 + 1) << "index " << i;
  }
  EXPECT_EQ(column.front(), 1u);
  EXPECT_EQ(column.back(), (count - 1) * 7 + 1);
}

TEST(SegmentedColumnTest, AddressesStayStableAsTheColumnGrows) {
  Column column;
  column.push_back(11);
  const std::uint64_t* first = &column[0];
  for (std::size_t i = 1; i < kBlock; ++i) column.push_back(i);
  const std::uint64_t* last_of_block = &column[kBlock - 1];
  for (std::size_t i = 0; i < 3 * kBlock; ++i) column.push_back(i);
  column.resize(column.size() + 5 * kBlock);
  EXPECT_EQ(&column[0], first);
  EXPECT_EQ(*first, 11u);
  EXPECT_EQ(&column[kBlock - 1], last_of_block);
}

TEST(SegmentedColumnTest, IterationEqualsIndexOrder) {
  Column column;
  const std::size_t count = kBlock + kBlock / 2;
  for (std::size_t i = 0; i < count; ++i) column.push_back(count - i);
  std::vector<std::uint64_t> by_index;
  for (std::size_t i = 0; i < column.size(); ++i) by_index.push_back(column[i]);
  const std::vector<std::uint64_t> by_iterator(column.begin(), column.end());
  EXPECT_EQ(by_iterator, by_index);
  // Random access: jumps across a block boundary land on the same element.
  auto it = column.begin() + static_cast<std::ptrdiff_t>(kBlock - 1);
  EXPECT_EQ(*it, column[kBlock - 1]);
  EXPECT_EQ(it[1], column[kBlock]);
  EXPECT_EQ(*(column.end() - 1), column.back());
  EXPECT_EQ(column.end() - column.begin(),
            static_cast<std::ptrdiff_t>(count));
  EXPECT_TRUE(std::is_sorted(column.begin(), column.end(),
                             [](std::uint64_t a, std::uint64_t b) {
                               return a > b;
                             }));
}

TEST(SegmentedColumnTest, ResizeGrowsAndZeroFills) {
  Column column;
  column.push_back(5);
  column.resize(3);
  ASSERT_EQ(column.size(), 3u);
  EXPECT_EQ(column[0], 5u);
  EXPECT_EQ(column[1], 0u);
  EXPECT_EQ(column[2], 0u);
  column[2] = 9;
  // Growing past several blocks at once zero-fills every new element.
  column.resize(3 * kBlock + 1);
  ASSERT_EQ(column.size(), 3 * kBlock + 1);
  EXPECT_EQ(column[2], 9u);
  const std::uint64_t sum =
      std::accumulate(column.begin(), column.end(), std::uint64_t{0});
  EXPECT_EQ(sum, 14u);
  // Resizing to the current size changes nothing.
  column.resize(column.size());
  EXPECT_EQ(column.size(), 3 * kBlock + 1);
  column.push_back(4);
  EXPECT_EQ(column.back(), 4u);
  EXPECT_EQ(column[3 * kBlock], 0u);
}

TEST(SegmentedColumnTest, BlocksHoldAboutSixtyFourKiB) {
  EXPECT_EQ(kBlock * sizeof(std::uint64_t), Column::kBlockBytes);
  struct Wide {
    std::uint64_t words[6];
  };
  // 48-byte elements round down to a power-of-two count per block.
  EXPECT_EQ(SegmentedColumn<Wide>::kBlockSize, 1024u);
}

}  // namespace
}  // namespace fnda
