#pragma once

// Test fixture that fails any test leaving continuation cores alive: a
// frame that breaks the direct-transfer invariant (cont/cont.h) by holding
// a continuation reference leaks the core and its segment chain silently.

#include <gtest/gtest.h>

#include <cstddef>

#include "cont/cont.h"

namespace mpnj_test {

class LiveCores : public ::testing::Test {
 protected:
  void SetUp() override { baseline_ = mp::cont::live_core_count(); }
  void TearDown() override {
    EXPECT_EQ(mp::cont::live_core_count(), baseline_)
        << "continuation cores leaked by the test";
  }

 private:
  std::size_t baseline_ = 0;
};

template <typename P>
class LiveCoresWithParam : public LiveCores,
                           public ::testing::WithParamInterface<P> {};

}  // namespace mpnj_test
