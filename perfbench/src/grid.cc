#include "grid.h"

#include <fstream>

#include "common/logging.h"

namespace perfbench
{

using namespace cdpc;
using verify::GoldenData;
using verify::GoldenJob;

namespace
{

std::string
describe(const verify::GoldenDiff &d)
{
    if (d.field.empty())
        return d.label + ": record " + d.golden + " expected, " +
               d.actual + " found";
    return d.label + " " + d.field + ": expected " + d.golden +
           ", got " + d.actual;
}

/** @return the first difference of @p expected vs @p actual, or "". */
std::string
firstDiffOf(const GoldenData &expected, const GoldenData &actual)
{
    std::vector<verify::GoldenDiff> diffs =
        verify::diffGolden(expected, actual);
    return diffs.empty() ? "" : describe(diffs.front());
}

} // namespace

const GridWorkload &
gridWorkload(const std::string &name)
{
    static const GridWorkload workloads[] = {
        {"fig6-dm", {"fig6"}, 1},
        {"assoc-prefetch", {"fig7", "fig8"}, 1},
        {"alpha-table2", {"table2"}, 4},
    };
    for (const GridWorkload &w : workloads)
        if (w.name == name)
            return w;
    fatal("unknown workload '", name,
          "' (have: fig6-dm assoc-prefetch alpha-table2)");
}

std::vector<GoldenJob>
gridJobs(const GridWorkload &w, std::uint64_t seed)
{
    std::vector<GoldenJob> jobs;
    for (const std::string &figure : w.figures)
        for (GoldenJob &job : verify::goldenJobs(figure)) {
            job.config.seed = seed;
            jobs.push_back(std::move(job));
        }
    return jobs;
}

bool
seedDependent(MappingPolicy mapping)
{
    return mapping == MappingPolicy::BinHopping ||
           mapping == MappingPolicy::CdpcTouchOrder;
}

Oracle::Oracle(const GridWorkload &w, const std::string &goldenDir,
               std::uint64_t seed)
    : seed_(seed)
{
    for (const std::string &figure : w.figures) {
        const std::string path = goldenDir + "/" + figure + ".golden";
        std::ifstream in(path);
        fatalIf(!in, "cannot read golden file ", path);
        GoldenData data = verify::parseGolden(in, path);
        golden_.records.merge(data.records);
    }
}

std::string
Oracle::check(const GoldenJob &job, const std::string &record)
{
    if (seed_ != kGoldenSeed && seedDependent(job.config.mapping)) {
        auto [it, first] = firstSeen_.emplace(job.label, record);
        return first ? "" : firstDiff(it->second, record);
    }
    auto it = golden_.records.find(job.label);
    if (it == golden_.records.end())
        return job.label + ": no committed golden record";
    GoldenData expected;
    expected.records.emplace(it->first, it->second);
    return firstDiffOf(expected, verify::goldenFromRecords({record}));
}

std::string
Oracle::selfTest(const GoldenJob &job, const std::string &record) const
{
    auto it = golden_.records.find(job.label);
    if (it == golden_.records.end())
        return job.label + ": no committed golden record to tamper";
    GoldenData tampered;
    auto &fields = tampered.records[it->first] = it->second;
    fields.begin()->second += "1";
    if (firstDiffOf(tampered, verify::goldenFromRecords({record}))
            .empty())
        return "the oracle accepted a tampered golden record for " +
               job.label;
    return "";
}

std::string
firstDiff(const std::string &expected, const std::string &actual)
{
    return firstDiffOf(verify::goldenFromRecords({expected}),
                       verify::goldenFromRecords({actual}));
}

} // namespace perfbench
