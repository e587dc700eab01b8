/**
 * @file
 * Unit tests for the out-of-order SMT pipeline: commit correctness,
 * dependency serialization, memory-stall accounting, store-buffer
 * draining, branch prediction and squash recovery, SMT co-execution,
 * register-pressure stalls, SC replay, prefetch non-blocking, and TLB
 * behaviour. The cache is real; the memory controller is replaced by an
 * auto-fill responder.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "scripted_source.hpp"

#include "cache/hierarchy.hpp"
#include "cpu/smt_cpu.hpp"

namespace smtp::testing
{
namespace
{

using proto::Message;
using proto::MsgType;

/** A self-contained single-node CPU + cache with auto-fill memory. */
struct MiniCpu
{
    explicit MiniCpu(unsigned app_threads,
                     Tick fill_delay = 100 * tickPerNs,
                     bool protocol_thread = false)
        : clock(2000), cache(eq, clock, 0, CacheParams{})
    {
        CpuParams cp;
        cp.appThreads = app_threads;
        cp.protocolThread = protocol_thread;
        cp.intRegs = 32 * (app_threads + 1) + 96;
        cp.fpRegs = cp.intRegs;
        cpu = std::make_unique<SmtCpu>(eq, cp, cache);
        SmtCpu::ProtoHooks hooks;
        hooks.onLdctxtRetired = [this](const MicroOp &) {
            markerTick = eq.curTick();
        };
        cpu->setProtoHooks(std::move(hooks));
        cache.connect(
            [this, fill_delay](const Message &m) {
                if (m.type == MsgType::PiPut ||
                    m.type == MsgType::PiPutClean) {
                    cache.clearWbPending(m.addr);
                    return true;
                }
                Message fill;
                fill.addr = m.addr;
                fill.mshr = m.mshr;
                fill.type = m.type == MsgType::PiGet ? MsgType::CcFillSh
                            : m.type == MsgType::PiUpgrade
                                ? MsgType::CcUpgradeGrant
                                : MsgType::CcFillEx;
                eq.scheduleIn(fill_delay,
                              [this, fill] { cache.deliverFill(fill); });
                return true;
            },
            [this](Addr, bool, EventQueue::Callback fn) {
                if (fn)
                    eq.scheduleIn(80 * tickPerNs, std::move(fn));
            });
    }

    void
    run(Tick limit = 5000 * tickPerUs)
    {
        for (unsigned t = 0; t < srcUsed; ++t)
            cpu->setSource(static_cast<ThreadId>(t), &src[t]);
        cpu->start();
        eq.run(eq.curTick() + limit);
        ASSERT_TRUE(cpu->appThreadsDone())
            << "pipeline wedged before completing all threads";
    }

    ScriptedSource &
    thread(unsigned t)
    {
        srcUsed = std::max(srcUsed, t + 1);
        return src[t];
    }

    EventQueue eq;
    ClockDomain clock;
    CacheHierarchy cache;
    std::unique_ptr<SmtCpu> cpu;
    std::array<ScriptedSource, 4> src;
    unsigned srcUsed = 0;
    Tick markerTick = 0; ///< Retirement tick of the latest marker().
};

/**
 * Pipeline counters a quiet-cycle skip must reproduce exactly: the
 * clock, thread 0's memory-stall cycles and the tick at which the
 * script's final marker() retired.
 */
struct Pinned
{
    std::uint64_t cycles;
    std::uint64_t memStall;
    Tick commit;
};

void
expectPinned(const MiniCpu &m, const Pinned &want)
{
    EXPECT_EQ(m.cpu->cycles.value(), want.cycles);
    EXPECT_EQ(m.cpu->threadStats(0).memStallCycles.value(), want.memStall);
    EXPECT_EQ(m.markerTick, want.commit);
}

/** The pipeline slept through quiet cycles rather than ticking them. */
void
expectSkipped(const MiniCpu &m)
{
    EXPECT_LT(m.eq.executedCount(), m.cpu->cycles.value());
}

TEST(CpuTest, StraightLineCodeCommitsEverything)
{
    MiniCpu m(1);
    for (int i = 0; i < 200; ++i)
        m.thread(0).alu(static_cast<std::uint8_t>(1 + i % 20));
    m.run();
    EXPECT_EQ(m.cpu->threadStats(0).committed.value(), 200u);
    EXPECT_EQ(m.cpu->threadStats(0).mispredicts.value(), 0u);
}

TEST(CpuTest, DependencyChainSlowerThanIndependent)
{
    // Identical I-footprints (loops), identical memory behaviour; only
    // the data dependencies differ.
    MiniCpu indep(1);
    indep.thread(0).loop(300, [&](unsigned) {
        for (int k = 0; k < 6; ++k)
            indep.thread(0).alu(static_cast<std::uint8_t>(1 + k));
    });
    indep.run();
    auto independent_cycles = indep.cpu->cycles.value();

    MiniCpu chain(1);
    chain.thread(0).loop(300, [&](unsigned) {
        for (int k = 0; k < 6; ++k)
            chain.thread(0).alu(1, 1, 1);
    });
    chain.run();
    auto chained_cycles = chain.cpu->cycles.value();
    EXPECT_GT(chained_cycles, independent_cycles + independent_cycles / 2);
}

TEST(CpuTest, MulAndDivLatenciesRespected)
{
    MiniCpu mul(1);
    for (int i = 0; i < 50; ++i)
        mul.thread(0).alu(1, 1, regNone, OpClass::IntMul);
    mul.run();
    EXPECT_GE(mul.cpu->cycles.value(), 50u * 6);

    MiniCpu dv(1);
    for (int i = 0; i < 10; ++i)
        dv.thread(0).alu(1, 1, regNone, OpClass::IntDiv);
    dv.run();
    EXPECT_GE(dv.cpu->cycles.value(), 10u * 35);
}

TEST(CpuTest, LoadMissStallsGraduationAndCountsMemoryStall)
{
    MiniCpu m(1, 500 * tickPerNs);
    m.thread(0).load(0x10000, 1);
    m.thread(0).alu(2, 1);
    m.run();
    EXPECT_EQ(m.cpu->threadStats(0).committed.value(), 2u);
    EXPECT_GT(m.cpu->threadStats(0).memStallCycles.value(), 500u);
}

TEST(CpuTest, StoresDrainThroughStoreBuffer)
{
    MiniCpu m(1);
    for (int i = 0; i < 8; ++i)
        m.thread(0).store(0x20000 + i * 8);
    m.run();
    m.eq.run(m.eq.curTick() + 100 * tickPerUs);
    EXPECT_EQ(m.cache.l2State(0x20000), LineState::Mod);
}

TEST(CpuTest, StoreToLoadForwardingAvoidsCacheMiss)
{
    MiniCpu m(1, 2000 * tickPerNs); // slow memory: forwarding must not wait
    m.thread(0).store(0x30000, regNone);
    m.thread(0).load(0x30000, 1);
    m.thread(0).alu(2, 1);
    m.run();
    EXPECT_EQ(m.cpu->threadStats(0).committed.value(), 3u);
}

TEST(CpuTest, WellBehavedLoopPredictsWell)
{
    MiniCpu m(1);
    m.thread(0).loop(200, [&](unsigned) {
        m.thread(0).alu(1);
        m.thread(0).alu(2);
    });
    m.run();
    const auto &st = m.cpu->threadStats(0);
    EXPECT_EQ(st.committed.value(), 200u * 3);
    // Non-speculative history update lags a tight in-flight loop;
    // a handful of extra early mispredicts is expected.
    EXPECT_LT(st.mispredicts.value(), 20u);
}

TEST(CpuTest, AlternatingBranchesSquashAndRecover)
{
    MiniCpu m(1);
    for (int i = 0; i < 100; ++i) {
        m.thread(0).alu(1);
        bool taken = (i % 3) == 0;
        m.thread(0).branch(taken, m.thread(0).pc() + 4);
        m.thread(0).alu(2);
    }
    m.run();
    const auto &st = m.cpu->threadStats(0);
    EXPECT_EQ(st.committed.value(), 300u);
    EXPECT_GT(st.mispredicts.value(), 0u);
    EXPECT_GT(st.wrongPathFetched.value(), 0u);
    EXPECT_GT(st.squashedInsts.value(), 0u);
}

TEST(CpuTest, TwoThreadsBothComplete)
{
    MiniCpu m(2);
    for (int i = 0; i < 400; ++i) {
        m.thread(0).alu(static_cast<std::uint8_t>(1 + i % 20));
        m.thread(1).alu(static_cast<std::uint8_t>(1 + i % 20));
    }
    m.run();
    EXPECT_EQ(m.cpu->threadStats(0).committed.value(), 400u);
    EXPECT_EQ(m.cpu->threadStats(1).committed.value(), 400u);
}

TEST(CpuTest, SmtOverlapsMemoryLatency)
{
    // Thread 0 pounds memory; thread 1 is pure compute (loops, so the
    // instruction footprint is small and identical across runs).
    auto mem_program = [](ScriptedSource &s) {
        s.loop(60, [&](unsigned i) {
            s.load(0x40000 + i * 2048, 1);
            s.alu(2, 1);
        });
    };
    auto compute_program = [](ScriptedSource &s) {
        s.loop(400, [&](unsigned) {
            for (int k = 0; k < 5; ++k)
                s.alu(static_cast<std::uint8_t>(1 + k));
        });
    };

    MiniCpu smt(2, 400 * tickPerNs);
    mem_program(smt.thread(0));
    compute_program(smt.thread(1));
    smt.run();
    auto smt_cycles = smt.cpu->cycles.value();

    MiniCpu mem(1, 400 * tickPerNs);
    mem_program(mem.thread(0));
    mem.run();
    auto mem_solo = mem.cpu->cycles.value();

    MiniCpu comp(1, 400 * tickPerNs);
    compute_program(comp.thread(0));
    comp.run();
    auto compute_solo = comp.cpu->cycles.value();

    EXPECT_LT(smt_cycles, mem_solo + compute_solo);
}

TEST(CpuTest, PrefetchesDoNotBlockCommit)
{
    MiniCpu m(1, 1000 * tickPerNs);
    for (int i = 0; i < 10; ++i) {
        m.thread(0).prefetch(0x50000 + i * 128);
        m.thread(0).alu(1);
    }
    m.run();
    EXPECT_EQ(m.cpu->threadStats(0).committed.value(), 20u);
    EXPECT_GE(m.cache.prefetchesIssued.value(), 1u);
}

TEST(CpuTest, PrefetchHidesLatency)
{
    // Prefetch well ahead of use vs. demand misses.
    // Twelve prefetches stay within the 16-MSHR budget (prefetching
    // more would starve demand instruction fetches of MSHRs — which the
    // hand-tuned paper workloads avoid too).
    auto program = [](ScriptedSource &s, bool use_prefetch) {
        if (use_prefetch) {
            for (int i = 0; i < 12; ++i)
                s.prefetch(0x50000 + i * 128);
        }
        // Filler compute gives the prefetches time in flight.
        s.loop(1500, [&](unsigned) {
            for (int k = 0; k < 4; ++k)
                s.alu(static_cast<std::uint8_t>(1 + k));
        });
        for (int i = 0; i < 12; ++i) {
            s.load(0x50000 + i * 128, 1);
            s.alu(2, 1);
        }
    };
    MiniCpu with(1, 300 * tickPerNs);
    program(with.thread(0), true);
    with.run();
    MiniCpu without(1, 300 * tickPerNs);
    program(without.thread(0), false);
    without.run();
    EXPECT_LT(with.cpu->cycles.value(), without.cpu->cycles.value());
}

TEST(CpuTest, ScReplayOnInvalidatedLoad)
{
    MiniCpu m(1, 150 * tickPerNs);
    // A dependent divide chain blocks the head (~20*35 cycles = 350 ns)
    // while the younger load completes at ~150 ns; the invalidation
    // lands in between. (Twenty divides keep the 32-entry IQ open.)
    for (int i = 0; i < 20; ++i)
        m.thread(0).alu(1, 1, regNone, OpClass::IntDiv);
    m.thread(0).load(0x60000, 2);
    m.thread(0).alu(3, 2);
    m.cpu->setSource(0, &m.src[0]);
    m.srcUsed = 1;
    m.cpu->start();
    // The first instruction fetch itself misses to memory (~150 ns), so
    // give the divide chain time to become the commit blocker.
    m.eq.run(m.eq.curTick() + 400 * tickPerNs);
    ASSERT_FALSE(m.cpu->appThreadsDone());
    ASSERT_EQ(m.cache.l2State(0x60000), LineState::Sh)
        << "load should have filled by now";
    m.cache.applyProbe(MsgType::CcInval, 0x60000);
    m.eq.run(m.eq.curTick() + 5000 * tickPerUs);
    ASSERT_TRUE(m.cpu->appThreadsDone());
    EXPECT_EQ(m.cpu->threadStats(0).committed.value(), 22u);
    EXPECT_EQ(m.cpu->threadStats(0).replays.value(), 1u);
}

TEST(CpuTest, RegisterPressureStallsButCompletes)
{
    MiniCpu m(1);
    m.thread(0).alu(1, regNone, regNone, OpClass::IntDiv);
    for (int i = 0; i < 500; ++i)
        m.thread(0).alu(static_cast<std::uint8_t>(2 + i % 26), 1);
    m.run();
    EXPECT_EQ(m.cpu->threadStats(0).committed.value(), 501u);
}

TEST(CpuTest, TlbMissesAreCountedAndSurvived)
{
    MiniCpu m(1);
    for (int i = 0; i < 200; ++i)
        m.thread(0).load(0x100000 + static_cast<Addr>(i) * 2 * pageBytes,
                         1);
    m.run();
    EXPECT_EQ(m.cpu->threadStats(0).committed.value(), 200u);
    EXPECT_GT(m.cpu->threadStats(0).dtlbMisses.value(), 100u);
}

TEST(CpuTest, FpPipelineExecutes)
{
    MiniCpu m(1);
    for (int i = 0; i < 100; ++i) {
        m.thread(0).fp(static_cast<std::uint8_t>(fpRegBase + 1 + i % 10),
                       fpRegBase, regNone, OpClass::FpMul);
        m.thread(0).fp(static_cast<std::uint8_t>(fpRegBase + 11 + i % 10),
                       static_cast<std::uint8_t>(fpRegBase + 1 + i % 10),
                       regNone, OpClass::FpAdd);
    }
    m.run();
    EXPECT_EQ(m.cpu->threadStats(0).committed.value(), 200u);
}

TEST(CpuTest, FourWaySmtCompletes)
{
    MiniCpu m(4);
    for (unsigned t = 0; t < 4; ++t) {
        for (int i = 0; i < 300; ++i) {
            if (i % 5 == 0)
                m.thread(t).load(0x80000 + t * 0x10000 + i * 32, 1);
            else
                m.thread(t).alu(static_cast<std::uint8_t>(1 + i % 20));
        }
    }
    m.run();
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(m.cpu->threadStats(static_cast<ThreadId>(t))
                      .committed.value(),
                  300u);
}

TEST(CpuTest, IcacheMissesStallFetch)
{
    MiniCpu m(1);
    for (int i = 0; i < 600; ++i)
        m.thread(0).alu(static_cast<std::uint8_t>(1 + i % 20));
    m.run();
    EXPECT_GT(m.cache.l1iMisses.value(), 10u);
}

TEST(CpuTest, IcountPrefersLowOccupancyThread)
{
    // One thread stalls on memory constantly; the other must still make
    // steady progress thanks to ICOUNT.
    MiniCpu m(2, 800 * tickPerNs);
    m.thread(0).loop(40, [&](unsigned i) {
        m.thread(0).load(0x90000 + i * 2048, 1);
        m.thread(0).alu(2, 1);
        m.thread(0).alu(3, 2);
    });
    m.thread(1).loop(500, [&](unsigned) {
        for (int k = 0; k < 4; ++k)
            m.thread(1).alu(static_cast<std::uint8_t>(1 + k));
    });
    m.run();
    // The compute thread's IPC must stay healthy despite the memory hog.
    double ipc1 = static_cast<double>(
                      m.cpu->threadStats(1).committed.value()) /
                  static_cast<double>(m.cpu->cycles.value());
    EXPECT_GT(ipc1, 0.25);
}

// ------------------------------------------------------- wake sources
//
// Each test stalls the pipeline on one kind of event and pins the
// counters a cycle-by-cycle pipeline produces, so that a pipeline
// which sleeps through quiet cycles must wake on exactly that event.

TEST(CpuWake, CompletionOfLongLatencyOps)
{
    MiniCpu m(1);
    for (int i = 0; i < 8; ++i)
        m.thread(0).alu(1, 1, regNone, OpClass::IntDiv);
    m.thread(0).marker();
    m.run();
    expectPinned(m, {543, 0, 271500});
    expectSkipped(m);
}

TEST(CpuWake, InstructionFetchFill)
{
    MiniCpu m(1, 500 * tickPerNs);
    for (int i = 0; i < 120; ++i)
        m.thread(0).alu(static_cast<std::uint8_t>(1 + i % 20));
    m.thread(0).marker();
    m.run();
    EXPECT_GE(m.cache.l1iMisses.value(), 4u);
    expectPinned(m, {4107, 0, 2053500});
    expectSkipped(m);
}

TEST(CpuWake, StoreBufferDrain)
{
    MiniCpu m(1, 300 * tickPerNs);
    for (int i = 0; i < 40; ++i)
        m.thread(0).store(0x200000 + static_cast<Addr>(i) * 128);
    m.thread(0).marker();
    m.run();
    EXPECT_EQ(m.cpu->threadStats(0).committed.value(), 41u);
    expectPinned(m, {24769, 86, 2753000});
    expectSkipped(m);
}

TEST(CpuWake, ItlbMissResumesFetch)
{
    MiniCpu m(1);
    for (int i = 0; i < 6; ++i) {
        m.thread(0).jumpTo(0x800000 + static_cast<Addr>(i) * pageBytes);
        m.thread(0).alu(1);
        m.thread(0).alu(2);
    }
    m.thread(0).marker();
    m.run();
    EXPECT_EQ(m.cpu->threadStats(0).itlbMisses.value(), 6u);
    expectPinned(m, {1460, 0, 730000});
    expectSkipped(m);
}

TEST(CpuWake, InvalidationReplayTrap)
{
    MiniCpu m(1, 150 * tickPerNs);
    for (int i = 0; i < 20; ++i)
        m.thread(0).alu(1, 1, regNone, OpClass::IntDiv);
    m.thread(0).load(0x60000, 2);
    m.thread(0).alu(3, 2);
    m.thread(0).marker();
    // The invalidation is an event, landing after the load has filled
    // but while the divide chain still blocks graduation.
    m.eq.schedule(400 * tickPerNs, [&m] {
        ASSERT_EQ(m.cache.l2State(0x60000), LineState::Sh);
        m.cache.applyProbe(MsgType::CcInval, 0x60000);
    });
    m.run();
    EXPECT_EQ(m.cpu->threadStats(0).replays.value(), 1u);
    expectPinned(m, {1391, 303, 695500});
    expectSkipped(m);
}

TEST(CpuWake, ProtocolThreadPoke)
{
    MiniCpu m(1, 100 * tickPerNs, true);
    for (int i = 0; i < 20; ++i)
        m.thread(0).alu(static_cast<std::uint8_t>(1 + i % 20));
    ScriptedSource &proto = m.thread(1);
    // New handler work arrives after the pipeline has gone idle.
    m.eq.schedule(3 * tickPerUs, [&m, &proto] {
        ASSERT_TRUE(m.cpu->idle());
        for (int i = 0; i < 10; ++i)
            proto.alu(static_cast<std::uint8_t>(1 + i));
        proto.load(0x70000, 11);
        proto.alu(12, 11);
        proto.marker();
        m.cpu->poke();
    });
    m.run();
    EXPECT_EQ(m.cpu->threadStats(1).committed.value(), 13u);
    expectPinned(m, {433, 0, 3086500});
    expectSkipped(m);
}

TEST(CpuWake, CacheRetryIsPolledEveryCycle)
{
    // Twenty-four independent misses against sixteen MSHRs: once the
    // MSHRs are full the LSU retries every cycle until a fill frees one.
    MiniCpu m(1, 2000 * tickPerNs);
    for (int i = 0; i < 24; ++i)
        m.thread(0).load(0x300000 + static_cast<Addr>(i) * 128,
                         static_cast<std::uint8_t>(1 + i % 20));
    m.thread(0).marker();
    for (unsigned t = 0; t < m.srcUsed; ++t)
        m.cpu->setSource(static_cast<ThreadId>(t), &m.src[t]);
    m.cpu->start();
    m.eq.run(2500 * tickPerNs);
    std::uint64_t c0 = m.cpu->cycles.value();
    std::uint64_t e0 = m.eq.executedCount();
    m.eq.run(3500 * tickPerNs);
    // Every cycle of that window ran the pipeline.
    EXPECT_EQ(m.cpu->cycles.value() - c0, 2000u);
    EXPECT_GE(m.eq.executedCount() - e0, m.cpu->cycles.value() - c0);
    m.eq.run(m.eq.curTick() + 5000 * tickPerUs);
    ASSERT_TRUE(m.cpu->appThreadsDone());
    expectPinned(m, {12059, 8005, 6029500});
}

} // namespace
} // namespace smtp::testing
