/**
 * @file
 * Tests for the parallel sweep harness (SweepPool) and the determinism
 * contracts it relies on: parallelFor must run every index exactly
 * once, results must not depend on the worker count, and whole-machine
 * simulations must be bit-identical across thread counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "machine/machine.hpp"
#include "sim/sweep.hpp"
#include "workload/app.hpp"

namespace smtp
{
namespace
{

TEST(SweepPool, RunsEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        SweepPool pool(jobs);
        constexpr std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&hits](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i
                                         << " with jobs=" << jobs;
    }
}

TEST(SweepPool, EmptyAndSingleElementRanges)
{
    SweepPool pool(4);
    int ran = 0;
    pool.parallelFor(0, [&ran](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 0);
    std::atomic<int> one{0};
    pool.parallelFor(1, [&one](std::size_t) { ++one; });
    EXPECT_EQ(one.load(), 1);
}

TEST(SweepPool, ReusableAcrossBatches)
{
    SweepPool pool(3);
    for (int batch = 0; batch < 5; ++batch) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(100, [&sum](std::size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 99u * 100u / 2);
    }
}

TEST(SweepPool, DefaultJobsHonorsEnv)
{
    ::setenv("SMTP_SWEEP_JOBS", "3", 1);
    EXPECT_EQ(SweepPool::defaultJobs(), 3u);
    ::unsetenv("SMTP_SWEEP_JOBS");
    EXPECT_GE(SweepPool::defaultJobs(), 1u);
}

TEST(SweepPool, ParseJobsIsStrict)
{
    unsigned jobs = 99;
    for (const char *bad : {"garbage", "-1", "4x", "", " 4", "+4",
                            "99999999999999999999"}) {
        EXPECT_FALSE(SweepPool::parseCount(bad, jobs)) << "'" << bad << "'";
        EXPECT_EQ(jobs, 99u) << "rejected input must not write";
    }
    ASSERT_TRUE(SweepPool::parseCount("0", jobs));
    EXPECT_EQ(jobs, 0u);
    ASSERT_TRUE(SweepPool::parseCount("8", jobs));
    EXPECT_EQ(jobs, 8u);
}

TEST(SweepPool, ParseScaleIsStrict)
{
    double scale = 7.0;
    for (const char *bad : {"abc", "", "-1", "+1", " 1", "0", "0.0",
                            "1x", "inf", "nan", "1e999", "."}) {
        EXPECT_FALSE(SweepPool::parseScale(bad, scale)) << "'" << bad << "'";
        EXPECT_EQ(scale, 7.0) << "rejected input must not write";
    }
    ASSERT_TRUE(SweepPool::parseScale("0.25", scale));
    EXPECT_EQ(scale, 0.25);
    ASSERT_TRUE(SweepPool::parseScale(".5", scale));
    EXPECT_EQ(scale, 0.5);
    ASSERT_TRUE(SweepPool::parseScale("2", scale));
    EXPECT_EQ(scale, 2.0);
}

// --------------------------------------------- machine determinism

/** Build and run one small machine; return its reported exec time. */
Tick
runMachine()
{
    MachineParams mp;
    mp.model = MachineModel::SMTp;
    mp.nodes = 2;
    mp.appThreadsPerNode = 1;
    Machine machine(mp);

    auto app = workload::makeApp("fft");
    FuncMem mem;
    workload::WorkloadEnv env;
    env.mem = &mem;
    env.map = &machine.addressMap();
    env.nodes = mp.nodes;
    env.threadsPerNode = 1;
    env.scale = 0.1;
    app->build(env);
    for (unsigned t = 0; t < env.totalThreads(); ++t)
        machine.setGlobalSource(t, app->thread(t));
    machine.run();
    return machine.execTime();
}

TEST(SweepDeterminism, ResultsIndependentOfWorkerCount)
{
    // The same four cells swept serially and by a contended pool must
    // produce identical per-cell results, collected in index order.
    auto sweep = [](unsigned jobs) {
        SweepPool pool(jobs);
        std::vector<Tick> out(4);
        pool.parallelFor(out.size(), [&out](std::size_t i) {
            out[i] = runMachine();
        });
        return out;
    };
    std::vector<Tick> serial = sweep(1);
    std::vector<Tick> parallel = sweep(4);
    EXPECT_EQ(serial, parallel);
    // And identical cells reproduce each other within one process.
    for (Tick t : serial)
        EXPECT_EQ(t, serial[0]);
}

} // namespace
} // namespace smtp
