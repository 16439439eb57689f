/**
 * @file
 * The traced run: one golden-grid experiment executed stage by stage
 * through the layers' public functions, with a host-time span around
 * each stage and the simulated event counts each layer produced.
 *
 * The stages are the ones runProgram() performs, so the staged
 * WeightedTotals must equal runWorkload()'s for the same
 * ExperimentConfig; the caller checks that. The extra replay stage
 * repeats the run's memory-system calls, recorded in memory, on a
 * fresh memory system, which splits simulator time into the memory
 * system's share and the simulator loop's own.
 */

#ifndef PERFBENCH_STAGED_H
#define PERFBENCH_STAGED_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace perfbench
{

/** Stage names, in execution order; Span::stage indexes this. */
enum Stage : int
{
    kBuild,    ///< workloads: buildWorkload
    kCompile,  ///< compiler: compileProgram
    kOsSetup,  ///< harness: PhysMem + VirtualMemory + MemorySystem
    kPlan,     ///< cdpc: computeCdpcPlan + applyHints/applyByTouchOrder
    kSimulate, ///< machine: MpSimulator::run, recording mem calls
    kReplay,   ///< mem: the recorded calls on a fresh MemorySystem
    kNumStages
};

/** @return the span name of @p stage ("build", "compile", ...). */
const char *stageName(int stage);

/** One host-time interval of one experiment's stage. */
struct Span
{
    /** Experiment id within the pass; shared by its stages. */
    int experiment = 0;
    int stage = kBuild;
    /** steady_clock nanoseconds since the process's time origin. */
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * Simulated counts of one experiment. Deterministic: two runs of the
 * same config produce identical counts, and a change that only speeds
 * the simulator up must leave them unchanged.
 */
struct LayerCounts
{
    /** Demand accesses the simulator made to the memory system. */
    std::uint64_t lines = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t refs = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t conflictMisses = 0;
    std::uint64_t capacityMisses = 0;
    /** True sharing + false sharing + upgrade misses. */
    std::uint64_t coherenceMisses = 0;
    std::uint64_t prefetchIssued = 0;
    std::uint64_t prefetchUseful = 0;
    std::uint64_t busTxns = 0;
    std::uint64_t busQueueingCycles = 0;
    std::uint64_t translations = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t hintHonored = 0;
    /** Faults that expressed a color preference. */
    std::uint64_t hintExpressed = 0;
    std::uint64_t cdpcHints = 0;
    std::uint64_t touchPages = 0;
    /** L2 misses of the replay on the fresh memory system. */
    std::uint64_t replayL2Misses = 0;

    bool operator==(const LayerCounts &) const = default;
};

/** What one staged experiment produced. */
struct StagedResult
{
    cdpc::WeightedTotals totals;
    LayerCounts counts;
    /** Host seconds per stage, indexed by Stage. */
    double stageSeconds[kNumStages] = {};
    std::vector<Span> spans;
};

/** Run @p workload under @p config stage by stage. */
StagedResult runStaged(const std::string &workload,
                       const cdpc::ExperimentConfig &config,
                       int experiment);

/** steady_clock nanoseconds since the process's time origin. */
std::int64_t nowNs();

} // namespace perfbench

#endif // PERFBENCH_STAGED_H
