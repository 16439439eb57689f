/**
 * @file
 * The benchmark's workloads — the paper's own experiment grids from
 * the golden registry — and the oracle that checks each experiment's
 * canonical record against the committed goldens.
 */

#ifndef PERFBENCH_GRID_H
#define PERFBENCH_GRID_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "verify/golden.h"

namespace perfbench
{

/** The seed the committed goldens were generated with. */
inline constexpr std::uint64_t kGoldenSeed = 1;

/** One named workload: golden figure grids run with a worker count. */
struct GridWorkload
{
    std::string name;
    std::vector<std::string> figures;
    unsigned workers = 1;
};

/** @return the workload named @p name; fatal() on an unknown name. */
const GridWorkload &gridWorkload(const std::string &name);

/** The workload's experiments, every config seeded with @p seed. */
std::vector<cdpc::verify::GoldenJob> gridJobs(const GridWorkload &w,
                                              std::uint64_t seed);

/** True when @p mapping draws on the config seed (bin hopping). */
bool seedDependent(cdpc::MappingPolicy mapping);

/**
 * Checks experiment records. A cell whose result cannot depend on the
 * seed, or any cell when the seed is the goldens' seed, must match
 * the committed golden record field for field. A seed-dependent cell
 * under another seed must repeat its first pass's record exactly.
 */
class Oracle
{
  public:
    /** Parse the workload's committed golden files (read-only). */
    Oracle(const GridWorkload &w, const std::string &goldenDir,
           std::uint64_t seed);

    /**
     * @return "" when @p record (a verify::goldenRecord line) is
     *         correct for @p job, else the first differing field as
     *         "label field: expected X, got Y".
     */
    std::string check(const cdpc::verify::GoldenJob &job,
                      const std::string &record);

    /**
     * Tamper one field of @p job's committed golden record and confirm
     * the diff against @p record catches it. @return "" when caught.
     */
    std::string selfTest(const cdpc::verify::GoldenJob &job,
                         const std::string &record) const;

  private:
    std::uint64_t seed_;
    cdpc::verify::GoldenData golden_;
    /** First-seen records of seed-dependent cells (seed != golden). */
    std::map<std::string, std::string> firstSeen_;
};

/** First field difference of two single-record lines, or "". */
std::string firstDiff(const std::string &expected,
                      const std::string &actual);

} // namespace perfbench

#endif // PERFBENCH_GRID_H
