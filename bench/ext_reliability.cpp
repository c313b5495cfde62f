// Extension: the availability arithmetic motivating the paper
// (Section 1). Reproduces the footnote ("for large systems, e.g., with
// over 150 disks, the MTTF of the permanent storage subsystem can be
// less than 28 days" at 100,000 h per disk) and tabulates MTTDL,
// physical disk counts, and storage overhead for every organization on
// the trace 1 database (130 data disks).
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "core/reliability.hpp"

int main(int argc, char** argv) {
  using namespace raidsim;
  using namespace raidsim::bench;
  const auto options = parse_or_exit(argc, argv);
  banner("Extension: reliability (MTTDL) of the organizations",
         "Section 1: >150 non-redundant disks -> storage MTTF under 28 "
         "days; redundancy recovers orders of magnitude",
         options);

  {
    TablePrinter footnote({"non-redundant disks", "system MTTF (days)"});
    for (int disks : {50, 100, 130, 150, 151, 200}) {
      footnote.add_row(
          {std::to_string(disks),
           TablePrinter::num(
               system_mttdl_hours(Organization::kBase, disks, 10) / 24.0,
               1)});
    }
    footnote.print(std::cout);
    std::cout << "\n";
  }

  const ReliabilityParams params;  // 100,000 h MTTF, 24 h repair
  TablePrinter table({"organization", "N", "disks", "overhead",
                      "group MTTDL (yr)", "system MTTDL (yr)"});
  const int database = 130;  // trace 1
  for (auto org : {Organization::kBase, Organization::kMirror,
                   Organization::kRaid5, Organization::kParityStriping}) {
    for (int n : {5, 10, 20}) {
      if (org == Organization::kBase && n != 10) continue;
      if (org == Organization::kMirror && n != 10) continue;
      const double hours_per_year = 24.0 * 365.0;
      table.add_row(
          {to_string(org), std::to_string(n),
           std::to_string(disks_required(org, database, n)),
           TablePrinter::num(100.0 * storage_overhead(org, n), 0) + "%",
           TablePrinter::num(group_mttdl_hours(org, n, params) /
                                 hours_per_year,
                             1),
           TablePrinter::num(
               system_mttdl_hours(org, database, n, params) / hours_per_year,
               1)});
    }
  }
  table.print(std::cout);
  std::cout << "\nLarger parity groups trade MTTDL (and rebuild time; see "
               "ext_degraded_rebuild) for fewer parity disks.\n";
  return 0;
}
