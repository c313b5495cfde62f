#include "util/enum_names.hpp"

#include <gtest/gtest.h>

#include "array/controller.hpp"
#include "disk/disk.hpp"
#include "layout/layout.hpp"

namespace raidsim {
namespace {

TEST(EnumNames, WireNameIsLowerCaseDisplayNameWithoutSlash) {
  EXPECT_EQ(wire_name(SyncPolicy::kReadFirstPriority), "rfpr");
  EXPECT_EQ(wire_name(SyncPolicy::kDiskFirst), "df");
  EXPECT_EQ(wire_name(Organization::kParityStriping), "parstrip");
  EXPECT_EQ(wire_name(Organization::kRaid10), "raid10");
  EXPECT_EQ(wire_name(DiskScheduling::kScan), "scan");
  EXPECT_EQ(wire_name(ParityPlacement::kEndCylinders), "end");
}

TEST(EnumNames, WireNamesListEveryEnumeratorInOrder) {
  EXPECT_EQ(wire_names<Organization>(),
            "base|mirror|raid5|raid4|parstrip|raid10");
  EXPECT_EQ(wire_names<SyncPolicy>(), "si|rf|rfpr|df|dfpr");
  EXPECT_EQ(wire_names<DiskScheduling>(), "fifo|sstf|scan");
  EXPECT_EQ(wire_names<ParityPlacement>(), "middle|end");
}

template <class E>
void expect_round_trip() {
  for (const auto& n : EnumNames<E>::names) {
    EXPECT_EQ(to_string(n.value), n.display);
    EXPECT_EQ(parse_wire_name<E>(wire_name(n.value)), n.value) << n.display;
  }
}

TEST(EnumNames, EveryWireNameParsesBack) {
  expect_round_trip<Organization>();
  expect_round_trip<SyncPolicy>();
  expect_round_trip<DiskScheduling>();
  expect_round_trip<ParityPlacement>();
}

TEST(EnumNames, UnknownOrDisplayNameRejectedNamingTheValue) {
  // Wire names are exact: the display spelling is not accepted.
  for (const char* bad : {"RAID5", "raid9", "", "raid5 "}) {
    try {
      parse_wire_name<Organization>(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown organization '" +
                                           std::string(bad) + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parse_wire_name<SyncPolicy>("rf/pr"), std::invalid_argument);
  EXPECT_THROW(parse_wire_name<ParityPlacement>("ends"),
               std::invalid_argument);
}

}  // namespace
}  // namespace raidsim
