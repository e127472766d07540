#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/fn.hpp"

namespace apn {
namespace {

using Fn = UniqueFn<void()>;

/// A callable of exactly N bytes.
template <std::size_t N>
struct Sized {
  std::array<unsigned char, N> bytes{};
  void operator()() const {}
};

TEST(UniqueFn, InlineUpToFortyEightBytes) {
  static_assert(sizeof(Sized<48>) == 48 && sizeof(Sized<49>) == 49);
  EXPECT_TRUE(Fn::stores_inline<Sized<1>>());
  EXPECT_TRUE(Fn::stores_inline<Sized<40>>());
  EXPECT_TRUE(Fn::stores_inline<Sized<48>>());
  EXPECT_FALSE(Fn::stores_inline<Sized<49>>());
  EXPECT_FALSE(Fn::stores_inline<Sized<64>>());
}

TEST(UniqueFn, LambdaCaptureSizeDecidesStorage) {
  void* p[6] = {};
  auto six = [a = p[0], b = p[1], c = p[2], d = p[3], e = p[4], f = p[5]] {
    (void)a, (void)b, (void)c, (void)d, (void)e, (void)f;
  };
  auto seven = [six, g = p[0]] { (void)g, six(); };
  static_assert(sizeof(six) == 48 && sizeof(seven) == 56);
  EXPECT_TRUE(Fn::stores_inline<decltype(six)>());
  EXPECT_FALSE(Fn::stores_inline<decltype(seven)>());
  // Both forms run.
  Fn a(six), b(seven);
  a();
  b();
}

TEST(UniqueFn, ThrowingMoveIsBoxed) {
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    void operator()() const {}
  };
  EXPECT_FALSE(Fn::stores_inline<ThrowingMove>());
}

TEST(UniqueFn, MoveOnlyCaptures) {
  auto p = std::make_unique<int>(7);
  UniqueFn<int()> f = [p = std::move(p)] { return *p; };
  EXPECT_EQ(f(), 7);
  UniqueFn<int()> g = std::move(f);
  ASSERT_TRUE(static_cast<bool>(g));
  EXPECT_EQ(g(), 7);

  // A UniqueFn may own another UniqueFn (boxed: 64 bytes).
  UniqueFn<int()> outer = [inner = std::move(g)]() mutable {
    return inner() + 1;
  };
  EXPECT_EQ(outer(), 8);
}

/// Counts live instances; each destruction of a live instance is counted.
struct Probe {
  static inline int live = 0;
  static inline int destroyed = 0;
  bool owns = true;

  Probe() { ++live; }
  // A move transfers ownership: the source no longer counts.
  Probe(Probe&& o) noexcept : owns(std::exchange(o.owns, false)) {}
  Probe(const Probe&) = delete;
  ~Probe() {
    if (owns) {
      --live;
      ++destroyed;
    }
  }
};

template <std::size_t Pad>
void one_destruction_per_capture(bool expect_inline) {
  Probe::live = 0;
  Probe::destroyed = 0;
  {
    auto make = [] {
      return [probe = Probe{}, pad = Sized<Pad>{}] { (void)pad, (void)probe; };
    };
    EXPECT_EQ(Fn::stores_inline<decltype(make())>(), expect_inline);
    Fn a = make();
    EXPECT_EQ(Probe::live, 1);
    Fn b = std::move(a);
    Fn c;
    c = std::move(b);
    EXPECT_EQ(Probe::destroyed, 0);
    c();
    c.reset();
    EXPECT_EQ(Probe::destroyed, 1);
    EXPECT_FALSE(static_cast<bool>(c));
    c.reset();  // resetting an empty UniqueFn is a no-op
    // Assigning over a live callable destroys the old capture once.
    Fn d = make();
    d = [] {};
    EXPECT_EQ(Probe::destroyed, 2);
    // Going out of scope destroys the remaining one exactly once.
    Fn e = make();
  }
  EXPECT_EQ(Probe::destroyed, 3);
  EXPECT_EQ(Probe::live, 0);
}

TEST(UniqueFn, OneDestructionPerCaptureInline) {
  one_destruction_per_capture<8>(true);
}

TEST(UniqueFn, OneDestructionPerCaptureBoxed) {
  one_destruction_per_capture<64>(false);
}

}  // namespace
}  // namespace apn
