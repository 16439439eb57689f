#include "staged.h"

#include <chrono>
#include <memory>
#include <optional>

#include "cdpc/runtime.h"
#include "common/logging.h"
#include "compiler/compiler.h"
#include "machine/simulator.h"
#include "mem/memsystem.h"
#include "vm/fallback.h"
#include "vm/hints.h"
#include "vm/physmem.h"
#include "vm/policy.h"
#include "vm/pressure.h"
#include "vm/virtual_memory.h"
#include "workloads/workload.h"

namespace perfbench
{

using namespace cdpc;

namespace
{

/** The compiler options runProgram() derives from the machine. */
CompilerOptions
compilerOptions(const ExperimentConfig &config)
{
    const MachineConfig &m = config.machine;
    CompilerOptions copts;
    copts.align = config.aligned;
    copts.prefetch = config.prefetch;
    copts.aligner.lineBytes = m.l2.lineBytes;
    copts.aligner.l1SpanBytes = m.l1d.sizeBytes / m.l1d.assoc;
    copts.prefetcher.lineBytes = m.l2.lineBytes;
    copts.prefetcher.targetLatency = m.memLatencyCycles;
    copts.prefetcher.minArrayBytes = m.l2.sizeBytes / 2;
    return copts;
}

/** One memory-system call of the simulated run. */
struct MemEvent
{
    VAddr va = 0;
    Cycles now = 0;
    std::uint32_t wordMask = 0;
    std::uint8_t cpu = 0;
    AccessKind kind = AccessKind::Load;
    std::uint8_t concurrentFaults = 1;
    bool prefetch = false;
};

/**
 * Captures the memory system's calls in order — demand references
 * with the local time and fault concurrency they were made with, and
 * software prefetches — so the replay can repeat them exactly.
 * Recording into a buffer whose capacity earlier experiments already
 * grew keeps reallocation and page faults out of the simulate span.
 */
class StreamRecorder : public MemObserver
{
  public:
    explicit StreamRecorder(std::vector<MemEvent> &buffer)
        : events(buffer)
    {
        events.clear();
    }

    void
    onAccess(CpuId cpu, const MemAccess &acc, Cycles now,
             const AccessOutcome &, PAddr) override
    {
        events.push_back({acc.va, now, acc.wordMask,
                          static_cast<std::uint8_t>(cpu), acc.kind,
                          static_cast<std::uint8_t>(acc.concurrentFaults),
                          false});
        demand++;
    }

    void
    onPrefetch(CpuId cpu, VAddr va, Cycles now, Cycles) override
    {
        events.push_back({va, now, 0, static_cast<std::uint8_t>(cpu),
                          AccessKind::Load, 1, true});
    }

    void onPurge(VAddr, PAddr) override { purges++; }

    std::vector<MemEvent> &events;
    std::uint64_t demand = 0;
    std::uint64_t purges = 0;
};

static_assert(kMaxCpus <= 255, "recorded CPU ids and fault counts are 8-bit");

/**
 * The operating system and memory hierarchy of one experiment, built
 * as runProgram() builds them. The replay builds a second one so it
 * starts from the same empty caches and page table.
 */
class OsRig
{
  public:
    explicit OsRig(const ExperimentConfig &config)
        : phys(config.machine.physPages,
               config.machine.indexFunction()),
          pressure(applyMemoryPressure(phys, config.pressure)),
          fallback(makeFallbackPolicy(config.fallback)),
          coloring(config.machine.numColors()),
          binhop(config.machine.numColors(), config.binHopRacy,
                 config.seed),
          hints(basePolicy(config.mapping)),
          vm(config.machine, phys,
             config.mapping == MappingPolicy::Cdpc
                 ? static_cast<PageMappingPolicy &>(hints)
                 : basePolicy(config.mapping),
             fallback.get()),
          mem(config.machine, vm)
    {
        const std::uint64_t page_bytes = config.machine.pageBytes;
        vm.setRemapObserver([this, page_bytes](PageNum vpn) {
            mem.purgePage(vpn * page_bytes);
        });
    }

    OsRig(const OsRig &) = delete;
    OsRig &operator=(const OsRig &) = delete;

    /** Realize @p plan; @return the pages pre-faulted by touch. */
    std::uint64_t
    applyPlan(const CdpcPlan &plan, MappingPolicy mapping)
    {
        if (mapping == MappingPolicy::Cdpc) {
            applyHints(plan, hints);
            return 0;
        }
        return applyByTouchOrder(plan, vm);
    }

    PhysMem phys;
    /** Competitor pages, claimed before any fault as runProgram() does. */
    PressureStats pressure;
    std::unique_ptr<ColorFallbackPolicy> fallback;
    PageColoringPolicy coloring;
    BinHoppingPolicy binhop;
    CdpcHintPolicy hints;
    VirtualMemory vm;
    MemorySystem mem;

  private:
    PageMappingPolicy &
    basePolicy(MappingPolicy mapping)
    {
        switch (mapping) {
          case MappingPolicy::PageColoring:
          case MappingPolicy::Cdpc:
            return coloring;
          case MappingPolicy::BinHopping:
          case MappingPolicy::CdpcTouchOrder:
            return binhop;
          default:
            fatal("the staged run does not model mapping ",
                  mappingName(mapping));
        }
    }
};

bool
usesCdpc(MappingPolicy mapping)
{
    return mapping == MappingPolicy::Cdpc ||
           mapping == MappingPolicy::CdpcTouchOrder;
}

} // namespace

const char *
stageName(int stage)
{
    static const char *const names[kNumStages] = {
        "build", "compile", "os_setup", "plan", "simulate", "replay"};
    return names[stage];
}

std::int64_t
nowNs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

StagedResult
runStaged(const std::string &workload, const ExperimentConfig &config,
          int experiment)
{
    // The golden grids set none of these; anything else would need
    // the rest of runProgram() mirrored here.
    fatalIf(config.preallocatedPages || config.dynamicRecolor ||
                config.verifyEvery || config.auditEvery ||
                config.profile || !config.colorOverrides.empty() ||
                config.sim.statsInterval,
            "the staged run models only the golden grids' configs");
    const MachineConfig &m = config.machine;
    m.validate();

    StagedResult r;
    auto stage = [&](int s, auto &&body) {
        const std::int64_t start = nowNs();
        body();
        const std::int64_t end = nowNs();
        r.spans.push_back({experiment, s, start, end});
        r.stageSeconds[s] += static_cast<double>(end - start) * 1e-9;
    };

    Program program;
    stage(kBuild, [&] { program = buildWorkload(workload); });
    CompileResult compiled;
    stage(kCompile, [&] {
        compiled = compileProgram(program, compilerOptions(config));
    });
    std::unique_ptr<OsRig> rig;
    stage(kOsSetup, [&] { rig = std::make_unique<OsRig>(config); });
    std::optional<CdpcPlan> plan;
    if (usesCdpc(config.mapping)) {
        stage(kPlan, [&] {
            plan = computeCdpcPlan(compiled.summaries, cdpcParams(m),
                                   config.cdpcOptions);
            r.counts.touchPages = rig->applyPlan(*plan, config.mapping);
        });
        r.counts.cdpcHints = plan->coloring.hints.size();
    }

    thread_local std::vector<MemEvent> buffer;
    StreamRecorder recorder(buffer);
    rig->mem.setMemObserver(&recorder);
    stage(kSimulate, [&] {
        MpSimulator sim(m, rig->mem);
        r.totals = sim.run(program, config.sim);
    });
    rig->mem.setMemObserver(nullptr);
    fatalIf(recorder.purges, "the replay does not model page purges");
    r.counts.lines = recorder.demand;

    LayerCounts &c = r.counts;
    const CpuMemStats ms = rig->mem.totalStats();
    c.l1Hits = ms.l1Hits;
    c.l1Misses = ms.l1Misses;
    c.l2Hits = ms.l2Hits;
    c.l2Misses = ms.l2Misses;
    c.refs = ms.totalRefs();
    c.tlbMisses = ms.tlbMisses;
    auto misses = [&](MissKind k) {
        return ms.missCount[static_cast<std::size_t>(k)];
    };
    c.conflictMisses = misses(MissKind::Conflict);
    c.capacityMisses = misses(MissKind::Capacity);
    c.coherenceMisses = misses(MissKind::TrueSharing) +
                        misses(MissKind::FalseSharing) +
                        misses(MissKind::Upgrade);
    c.prefetchIssued = ms.prefetchesIssued;
    c.prefetchUseful = ms.prefetchesUseful;
    c.busTxns = rig->mem.busStats().totalTxns();
    c.busQueueingCycles = rig->mem.busStats().queueing;
    const VmStats &vs = rig->vm.stats();
    c.translations = vs.translations;
    c.pageFaults = vs.pageFaults;
    c.hintHonored = vs.hintHonored;
    c.hintExpressed = vs.hintHonored + vs.hintFallback + vs.hintDenied;
    rig.reset();

    OsRig fresh(config);
    if (plan)
        fresh.applyPlan(*plan, config.mapping);
    stage(kReplay, [&] {
        for (const MemEvent &e : recorder.events) {
            if (e.prefetch) {
                fresh.mem.prefetch(e.cpu, e.va, e.now);
                continue;
            }
            MemAccess a;
            a.va = e.va;
            a.kind = e.kind;
            a.wordMask = e.wordMask;
            a.concurrentFaults = e.concurrentFaults;
            fresh.mem.access(e.cpu, a, e.now);
        }
    });
    c.replayL2Misses = fresh.mem.totalStats().l2Misses;
    return r;
}

} // namespace perfbench
