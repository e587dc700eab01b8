/**
 * @file
 * Host-speed benchmark driver for one simulator cell.
 *
 * Builds the named workload's cell through the public calls the sweep
 * cell runner makes (Machine constructor, workload::makeApp +
 * App::build + Machine::setGlobalSource, Machine::run), runs it in
 * passes until the wall-clock budget is spent, checks every pass's
 * outputs against computations of its own, and prints one JSON report
 * line on stdout. perfbench/run.py builds this binary and turns the
 * report into the benchmark's result line; see perfbench/README.md.
 *
 *   smtp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--samples FILE]
 *
 * --trace 0 times untraced passes and reports the end-to-end metrics.
 * --trace 1 spends the first third of the budget on untraced passes and
 * the rest on traced ones (the Exec telemetry category on, and a
 * SIGPROF sampler writing call stacks to FILE), and reports the
 * per-layer metrics; run.py symbolises FILE into per-module self time.
 */

#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "workload/app.hpp"

namespace
{

using namespace smtp;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Workloads -----------------------------------------------------------

struct Workload
{
    const char *name;
    const char *app;
    MachineModel model;
    unsigned nodes;
    unsigned ways;        ///< App threads per node.
    unsigned hostThreads; ///< 0 = serial engine, else parallel:T.
    double scale;         ///< WorkloadEnv::scale (README: input make-up).
};

const Workload kWorkloads[] = {
    {"radix-16n-smtp", "radix", MachineModel::SMTp, 16, 1, 0, 0.25},
    {"lu-16n-base", "lu", MachineModel::Base, 16, 1, 0, 0.125},
    {"kv-4n4w-smtp", "kv-store", MachineModel::SMTp, 4, 4, 0, 1.0},
    {"fft-16n-smtp-par2", "fft", MachineModel::SMTp, 16, 1, 2, 1.0},
};

/**
 * Set-up-only builds before every untraced pass, beside the pass's own.
 * Spreading them over the run lets the set-up median average over the
 * host's speed swings the way the run median does.
 */
constexpr unsigned kSetupBuildsPerPass = 4;

MachineParams
paramsFor(const Workload &w, bool parallel, std::size_t execTraceEvents)
{
    MachineParams mp;
    mp.model = w.model;
    mp.nodes = w.nodes;
    mp.appThreadsPerNode = w.ways;
    mp.dirCacheDivisor = 16; // The cell runner's default for scaled inputs.
    if (parallel && w.hostThreads > 0) {
        mp.exec.mode = ExecParams::Mode::Parallel;
        mp.exec.threads = w.hostThreads;
    }
    if (execTraceEvents > 0) {
        mp.trace.enabled = true;
        mp.trace.categories = trace::categoryBit(trace::Category::Exec);
        mp.trace.bufferEvents = execTraceEvents;
        mp.trace.intervalCycles = 0;
    }
    return mp;
}

/** One cell, declared in the cell runner's order (app dies first). */
struct Cell
{
    std::unique_ptr<FuncMem> mem;
    std::unique_ptr<Machine> machine;
    std::unique_ptr<workload::App> app;
    double machineS = 0.0;  ///< Machine constructor.
    double workloadS = 0.0; ///< makeApp + App::build + attaching sources.
};

std::unique_ptr<Cell>
buildCell(const Workload &w, const MachineParams &mp, std::uint64_t seed)
{
    auto cell = std::make_unique<Cell>();
    auto t0 = Clock::now();
    cell->mem = std::make_unique<FuncMem>();
    cell->machine = std::make_unique<Machine>(mp);
    auto t1 = Clock::now();
    cell->app = workload::makeApp(w.app);
    workload::WorkloadEnv env;
    env.mem = cell->mem.get();
    env.map = &cell->machine->addressMap();
    env.nodes = w.nodes;
    env.threadsPerNode = w.ways;
    env.scale = w.scale;
    env.seed = seed;
    cell->app->build(env);
    for (unsigned t = 0; t < env.totalThreads(); ++t)
        cell->machine->setGlobalSource(t, cell->app->thread(t));
    cell->machine->setWorkloadState(cell->app.get());
    auto t2 = Clock::now();
    cell->machineS = std::chrono::duration<double>(t1 - t0).count();
    cell->workloadS = std::chrono::duration<double>(t2 - t1).count();
    return cell;
}

// ---- Modelled counts -----------------------------------------------------

/** Every simulated count a pass produces, by name, in a fixed order. */
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

std::uint64_t
get(const Counts &c, const std::string &key)
{
    for (const auto &kv : c)
        if (kv.first == key)
            return kv.second;
    std::fprintf(stderr, "perfbench: no count named %s\n", key.c_str());
    std::exit(2);
}

double
asDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

Counts
readCounts(Machine &m, const workload::App &app)
{
    std::uint64_t events = 0;
    for (unsigned s = 0; s < m.shards().count(); ++s)
        events += m.shards().queue(s).executedCount();

    std::uint64_t cycles = 0, committed = 0, fetched = 0, squashed = 0;
    std::uint64_t mcHandlers = 0, naks = 0, msgsNet = 0;
    std::uint64_t l1dMisses = 0, l2Misses = 0, upgrades = 0;
    std::uint64_t coreHandlers = 0, peInsts = 0, peHandlers = 0;
    std::uint64_t busyTicks = 0;
    for (unsigned n = 0; n < m.numNodes(); ++n) {
        const Machine::Node &node = m.node(n);
        cycles += node.cpu->cycles.value();
        fetched += node.cpu->fetchedInsts.value();
        for (unsigned t = 0; t < node.cpu->numThreads(); ++t) {
            const auto &ts = node.cpu->threadStats(static_cast<ThreadId>(t));
            committed += ts.committed.value();
            squashed += ts.squashedInsts.value();
        }
        mcHandlers += node.mc->handlersDispatched.value();
        naks += node.mc->naksSent.value();
        msgsNet += node.mc->msgsFromNet.value();
        l1dMisses += node.cache->l1dMisses.value();
        l2Misses += node.cache->l2Misses.value();
        upgrades += node.cache->upgradesIssued.value();
        if (node.pthread)
            coreHandlers += node.pthread->handlersStarted.value();
        if (node.pengine) {
            peInsts += node.pengine->instructions.value();
            peHandlers += node.pengine->handlers.value();
        }
        busyTicks += node.agentBusyTicks();
    }

    Network &net = m.network();
    Counts c = {
        {"exec_ticks", m.execTime()},
        {"app_committed", m.committedAppInsts()},
        {"sim.events", events},
        {"cpu.cycles", cycles},
        {"cpu.committed", committed},
        {"cpu.fetched", fetched},
        {"cpu.squashed", squashed},
        {"cpu.mem_stall_frac", std::bit_cast<std::uint64_t>(
                                   m.memStallFraction())},
        {"protocol.busy_ticks", busyTicks},
        {"protocol.occupancy_peak", std::bit_cast<std::uint64_t>(
                                        m.peakProtocolOccupancy())},
        {"core.handlers", coreHandlers},
        {"pengine.instructions", peInsts},
        {"pengine.handlers", peHandlers},
        {"mem.handlers", mcHandlers},
        {"mem.naks", naks},
        {"mem.msgs_net", msgsNet},
        {"cache.l1d_misses", l1dMisses},
        {"cache.l2_misses", l2Misses},
        {"cache.upgrades", upgrades},
        {"network.msgs", net.msgsInjected()},
        {"network.bytes", net.bytesInjected()},
    };
    const workload::ServerStats *st = app.serverStats();
    c.emplace_back("workload.requests", st ? st->requests : 0);
    c.emplace_back("workload.latency_samples",
                   st ? st->reqLatency.samples() : 0);
    for (double p : {50.0, 95.0, 99.0}) {
        double ticks = st ? st->reqLatency.percentile(p) : 0.0;
        c.emplace_back("workload.req_p" + std::to_string(int(p)) + "_ticks",
                       std::bit_cast<std::uint64_t>(ticks));
    }
    return c;
}

/** Name of the first count that differs, or empty when all agree. */
std::string
firstDifference(const Counts &a, const Counts &b)
{
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
        if (a[i] != b[i])
            return a[i].first;
    return a.size() == b.size() ? std::string() : std::string("<size>");
}

// ---- Output checks -------------------------------------------------------

/**
 * Radix input keys as RadixApp lays them out: one partition per thread,
 * the first (page-aligned) allocation on its home node, so with one
 * thread per node thread t's keys start at dataBase + t * nodeStride.
 * The key count follows RadixApp's sizing rule,
 * max(4096 * scale, 64 p, 512) rounded up to a multiple of p.
 */
struct RadixLayout
{
    std::vector<Addr> parts;
    unsigned perThread = 0;

    explicit RadixLayout(const Workload &w)
    {
        unsigned p = w.nodes * w.ways;
        unsigned total = std::max(static_cast<unsigned>(4096 * w.scale),
                                  std::max(64u * p, 512u));
        total = (total + p - 1) / p * p;
        perThread = total / p;
        for (unsigned t = 0; t < p; ++t)
            parts.push_back(workload::Alloc::dataBase +
                            static_cast<Addr>(t / w.ways) *
                                workload::Alloc::nodeStride);
    }

    std::vector<std::uint64_t>
    read(const FuncMem &mem) const
    {
        std::vector<std::uint64_t> keys;
        for (Addr base : parts)
            for (unsigned i = 0; i < perThread; ++i)
                keys.push_back(mem.read(base + i * 8));
        return keys;
    }
};

/**
 * Two 5-bit LSD passes leave the keys stably sorted by their low 10
 * bits, in global rank order across the partitions. An input that is
 * already in that order (say, all zeros read from the wrong place)
 * proves nothing and counts as entirely out of place.
 */
unsigned
radixMismatches(std::vector<std::uint64_t> input,
                const std::vector<std::uint64_t> &output)
{
    auto low10 = [](std::uint64_t a, std::uint64_t b) {
        return (a & 0x3ff) < (b & 0x3ff);
    };
    if (std::is_sorted(input.begin(), input.end(), low10))
        return static_cast<unsigned>(input.size());
    std::stable_sort(input.begin(), input.end(), low10);
    unsigned bad = 0;
    for (std::size_t i = 0; i < input.size(); ++i)
        bad += input[i] != output[i];
    return bad;
}

/** kv-store sizing rule: scaled(96, scale, 16, 8) requests per thread. */
std::uint64_t
kvExpectedRequests(const Workload &w)
{
    unsigned per = std::max(static_cast<unsigned>(96 * w.scale), 16u);
    per = (per + 7) / 8 * 8;
    return static_cast<std::uint64_t>(per) * w.nodes * w.ways;
}

// ---- Shard executor split (Exec telemetry) -------------------------------

struct ExecSplit
{
    double busyS = 0.0; ///< Host-thread seconds running shard queues.
    double waitS = 0.0; ///< Host-thread seconds parked at window barriers.
    std::uint64_t windows = 0;
};

/**
 * Per window and shard the Exec category records BarrierWait = (wall
 * time of the window's parallel phase) - (that shard's busy time). A
 * host thread runs a contiguous partition of k shards (ShardExecutor:
 * shards [i n / T, (i + 1) n / T)), so the sum of its shards' records
 * is S = k wall - busy. Assuming the thread that finishes last never
 * waits, wall = min over threads of S / (k - 1); each thread was then
 * busy k wall - S and waited S - (k - 1) wall. Needs k >= 2. The wall
 * time also covers the barrier hand-off (worker wake-up, the main
 * thread's yield loop), which this split charges to every thread's
 * busy time, so waitS is a lower bound.
 */
bool
readExecSplit(Machine &m, ExecSplit &out)
{
    const unsigned n = m.numNodes();
    const unsigned threads = m.hostThreads();
    if (n < 2 * threads)
        return false;
    std::vector<std::vector<std::uint64_t>> wait(n);
    for (const auto &b : m.traceManager()->buffers()) {
        if (b->category() != trace::Category::Exec)
            continue;
        if (b->recorded() > b->stored()) {
            std::fprintf(stderr, "perfbench: exec trace ring wrapped\n");
            return false;
        }
        std::vector<trace::Event> evs;
        b->snapshot(evs);
        for (const auto &e : evs) {
            unsigned s = trace::windowShard(e.arg);
            if (s < n && e.id() == trace::EventId::BarrierWait)
                wait[s].push_back(trace::windowValue(e.arg));
        }
    }
    out = ExecSplit{};
    out.windows = wait[0].size();
    for (unsigned s = 1; s < n; ++s)
        if (wait[s].size() != out.windows)
            return false;
    std::vector<double> sum(threads);
    for (std::uint64_t w = 0; w < out.windows; ++w) {
        double wall = 0.0;
        for (unsigned i = 0; i < threads; ++i) {
            unsigned lo = i * n / threads, hi = (i + 1) * n / threads;
            sum[i] = 0.0;
            for (unsigned s = lo; s < hi; ++s)
                sum[i] += static_cast<double>(wait[s][w]);
            double est = sum[i] / (hi - lo - 1);
            wall = i == 0 ? est : std::min(wall, est);
        }
        for (unsigned i = 0; i < threads; ++i) {
            unsigned k = (i + 1) * n / threads - i * n / threads;
            out.busyS += (k * wall - sum[i]) * 1e-9;
            out.waitS += std::max(0.0, sum[i] - (k - 1) * wall) * 1e-9;
        }
    }
    return true;
}

// ---- SIGPROF call-stack sampler ------------------------------------------

constexpr unsigned kMaxFrames = 24;
constexpr std::size_t kMaxSamples = 1 << 16;

struct StackSample
{
    std::uintptr_t pc[kMaxFrames];
    std::atomic<unsigned> depth{0}; ///< Published last; 0 = unwritten.
};

std::unique_ptr<StackSample[]> gSamples;
std::atomic<std::size_t> gNextSample{0};

/**
 * Record the interrupted PC and its callers. backtrace() runs from the
 * handler frame through the signal trampoline, so the frames after the
 * interrupted PC are its callers' return addresses.
 */
void
onProfSignal(int, siginfo_t *, void *uctx)
{
    std::size_t i = gNextSample.fetch_add(1, std::memory_order_relaxed);
    if (i >= kMaxSamples)
        return;
    int savedErrno = errno;
    auto pc = static_cast<std::uintptr_t>(
        static_cast<ucontext_t *>(uctx)->uc_mcontext.gregs[REG_RIP]);
    void *raw[kMaxFrames + 8];
    int n = backtrace(raw, kMaxFrames + 8);
    StackSample &s = gSamples[i];
    unsigned depth = 0;
    s.pc[depth++] = pc;
    for (int k = 0; k < n; ++k) {
        if (reinterpret_cast<std::uintptr_t>(raw[k]) != pc)
            continue;
        for (++k; k < n && depth < kMaxFrames; ++k)
            s.pc[depth++] = reinterpret_cast<std::uintptr_t>(raw[k]);
        break;
    }
    s.depth.store(depth, std::memory_order_release);
    errno = savedErrno;
}

void
setProfiling(bool on)
{
    itimerval tv{};
    if (on) {
        tv.it_interval.tv_usec = 1000; // Rounded up to the kernel tick.
        tv.it_value.tv_usec = 1000;
    }
    setitimer(ITIMER_PROF, &tv, nullptr);
}

void
installProfiler()
{
    gSamples = std::make_unique<StackSample[]>(kMaxSamples);
    void *warm[4];
    backtrace(warm, 4); // Loads the unwinder outside the handler.
    struct sigaction sa{};
    sa.sa_sigaction = onProfSignal;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
}

/** Executable segments of the benchmark binary, as (start, end, bias). */
struct TextRange
{
    std::uintptr_t lo, hi, bias;
};

std::vector<TextRange>
binaryText()
{
    std::vector<TextRange> out;
    dl_iterate_phdr(
        [](dl_phdr_info *info, std::size_t, void *data) {
            auto *v = static_cast<std::vector<TextRange> *>(data);
            for (int i = 0; i < info->dlpi_phnum; ++i) {
                const auto &ph = info->dlpi_phdr[i];
                if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X))
                    v->push_back({info->dlpi_addr + ph.p_vaddr,
                                  info->dlpi_addr + ph.p_vaddr + ph.p_memsz,
                                  info->dlpi_addr});
            }
            return 1; // The main program comes first; stop there.
        },
        &out);
    return out;
}

/**
 * One line per sample, leaf first: the binary's ELF virtual address of
 * each frame, or "-" for a frame outside it (libc, the kernel vDSO).
 */
bool
writeSamples(const std::string &path, std::size_t &written)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::vector<TextRange> text = binaryText();
    std::size_t n = std::min(gNextSample.load(), kMaxSamples);
    written = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const StackSample &s = gSamples[i];
        unsigned depth = s.depth.load(std::memory_order_acquire);
        if (depth == 0)
            continue;
        for (unsigned k = 0; k < depth; ++k) {
            const TextRange *r = nullptr;
            for (const auto &t : text)
                if (s.pc[k] >= t.lo && s.pc[k] < t.hi)
                    r = &t;
            if (r != nullptr)
                std::fprintf(f, "%s%zx", k ? " " : "", s.pc[k] - r->bias);
            else
                std::fprintf(f, "%s-", k ? " " : "");
        }
        std::fputc('\n', f);
        ++written;
    }
    return std::fclose(f) == 0;
}

// ---- Passes --------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string samples;
};

struct PassLog
{
    std::vector<double> runS, setupS, machineS, workloadS, kcps;
    std::vector<double> busyS, waitS;
    std::uint64_t windows = 0;
    unsigned attempted = 0, failed = 0;
};

class Bench
{
  public:
    Bench(const Workload &w, std::uint64_t seed) : w_(w), seed_(seed)
    {
        if (std::strcmp(w.app, "radix") == 0)
            radix_ = std::make_unique<RadixLayout>(w);
    }

    /** Untimed serial-engine run whose counts every pass must match. */
    void
    setReference()
    {
        auto cell = buildCell(w_, paramsFor(w_, false, 0), seed_);
        cell->machine->run();
        reference_ = readCounts(*cell->machine, *cell->app);
    }

    /** Set-up only: build and destroy one cell, logging its times. */
    void
    setupOnly(PassLog &log)
    {
        auto cell = buildCell(w_, paramsFor(w_, true, 0), seed_);
        logSetup(*cell, log);
        lookahead_ = cell->machine->network().lookahead();
    }

    /** One operation: build, run and check the cell. */
    void
    pass(PassLog &log, std::size_t execTraceEvents, bool profile)
    {
        ++log.attempted;
        auto cell =
            buildCell(w_, paramsFor(w_, true, execTraceEvents), seed_);
        logSetup(*cell, log);
        Machine &m = *cell->machine;
        std::vector<std::uint64_t> keys;
        if (radix_)
            keys = radix_->read(*cell->mem);

        if (profile)
            setProfiling(true);
        auto t0 = Clock::now();
        m.run();
        double runS = secondsSince(t0);
        if (profile)
            setProfiling(false);

        Counts c = readCounts(m, *cell->app);
        bool ok = check(c, keys, *cell);
        if (execTraceEvents > 0) {
            ExecSplit x;
            if (readExecSplit(m, x)) {
                log.busyS.push_back(x.busyS);
                log.waitS.push_back(x.waitS);
                log.windows = x.windows;
            } else {
                std::fprintf(stderr, "perfbench: exec split unreadable\n");
                ok = false;
            }
        }
        m.quiesce();
        if (!m.quiescent()) {
            std::fprintf(stderr, "perfbench: machine not quiescent\n");
            ok = false;
        }
        std::fprintf(stderr,
                     "perfbench: pass %u: setup %.3f ms, run %.3f s, "
                     "simulated %.3f us%s\n",
                     log.attempted, 1e3 * (cell->machineS + cell->workloadS),
                     runS, static_cast<double>(m.execTime()) / tickPerUs,
                     ok ? "" : ", FAILED");
        if (!ok) {
            ++log.failed;
            return;
        }
        log.runS.push_back(runS);
        log.kcps.push_back(static_cast<double>(get(c, "cpu.cycles")) /
                           runS / 1e3);
    }

    const Counts &counts() const { return first_; }
    Tick lookahead() const { return lookahead_; }

  private:
    static void
    logSetup(const Cell &cell, PassLog &log)
    {
        log.setupS.push_back(cell.machineS + cell.workloadS);
        log.machineS.push_back(cell.machineS);
        log.workloadS.push_back(cell.workloadS);
    }

    bool
    check(const Counts &c, const std::vector<std::uint64_t> &keys,
          const Cell &cell)
    {
        bool ok = true;
        auto fail = [&](const char *what, const std::string &detail) {
            std::fprintf(stderr, "perfbench: %s: %s check failed: %s\n",
                         w_.name, what, detail.c_str());
            ok = false;
        };
        if (get(c, "exec_ticks") == 0 || get(c, "app_committed") == 0)
            fail("progress", "no simulated time or no committed work");
        if (first_.empty())
            first_ = c;
        else if (auto d = firstDifference(first_, c); !d.empty())
            fail("repeat", d + " differs from the first pass");
        if (!reference_.empty())
            if (auto d = firstDifference(reference_, c); !d.empty())
                fail("serial-engine", d + " differs from the serial run");
        if (radix_) {
            std::vector<std::uint64_t> out = radix_->read(*cell.mem);
            unsigned bad = radixMismatches(keys, out);
            if (bad != 0)
                fail("sort", std::to_string(bad) + " of " +
                                 std::to_string(out.size()) +
                                 " keys out of place");
        }
        if (const workload::ServerStats *st = cell.app->serverStats()) {
            std::uint64_t want = kvExpectedRequests(w_);
            const Distribution &lat = st->reqLatency;
            if (st->requests != want || lat.samples() != want)
                fail("requests", std::to_string(st->requests) +
                                     " retired, " +
                                     std::to_string(lat.samples()) +
                                     " latency samples, want " +
                                     std::to_string(want));
            double p50 = lat.percentile(50.0), p95 = lat.percentile(95.0);
            double p99 = lat.percentile(99.0);
            if (!(p50 > 0.0 && p50 <= p95 && p95 <= p99))
                fail("latency", "percentiles out of order");
        }
        return ok;
    }

    const Workload &w_;
    std::uint64_t seed_;
    std::unique_ptr<RadixLayout> radix_;
    Counts first_, reference_;
    Tick lookahead_ = 1;
};

// ---- Report --------------------------------------------------------------

class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                 unit + "\"}";
    }

    void
    print(const PassLog &log, double tracedRunS, std::size_t samples) const
    {
        std::printf("{\"attempted\": %u, \"failed\": %u, "
                    "\"traced_run_s\": %.17g, \"samples\": %zu, "
                    "\"metrics\": {%s}}\n",
                    log.attempted, log.failed, tracedRunS, samples,
                    body_.c_str());
    }

  private:
    std::string body_;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

void
layerMetrics(Report &r, const Counts &c, const PassLog &untraced,
             const PassLog &traced)
{
    auto count = [&](const char *name, const char *unit = "count") {
        r.add(name, static_cast<double>(get(c, name)), unit);
    };
    auto real = [&](const char *name, const char *unit) {
        r.add(name, asDouble(get(c, name)), unit);
    };
    double untracedRun = median(untraced.runS);
    double events = static_cast<double>(get(c, "sim.events"));
    double cycles = static_cast<double>(get(c, "cpu.cycles"));
    count("sim.events");
    r.add("sim.ns_per_event", untracedRun * 1e9 / events, "ns");
    r.add("shard.busy_s", median(traced.busyS), "s");
    r.add("shard.wait_s", median(traced.waitS), "s");
    r.add("shard.windows", static_cast<double>(traced.windows), "count");
    count("cpu.cycles");
    count("cpu.committed");
    r.add("cpu.commit_per_cycle",
          static_cast<double>(get(c, "cpu.committed")) / cycles, "ratio");
    count("cpu.fetched");
    count("cpu.squashed");
    real("cpu.mem_stall_frac", "fraction");
    count("workload.requests");
    r.add("workload.req_p50_us",
          asDouble(get(c, "workload.req_p50_ticks")) / tickPerUs, "us");
    r.add("workload.req_p99_us",
          asDouble(get(c, "workload.req_p99_ticks")) / tickPerUs, "us");
    real("protocol.occupancy_peak", "fraction");
    count("core.handlers");
    count("pengine.instructions");
    count("pengine.handlers");
    count("mem.handlers");
    count("mem.naks");
    count("mem.msgs_net");
    count("cache.l1d_misses");
    count("cache.l2_misses");
    count("cache.upgrades");
    count("network.msgs");
    count("network.bytes", "bytes");
    r.add("setup.machine_s", median(untraced.machineS), "s");
    r.add("setup.workload_s", median(untraced.workloadS), "s");
    r.add("trace.overhead_s", median(traced.runS) - untracedRun, "s");
}

bool
parseOptions(int argc, char **argv, Options &o)
{
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (k == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (!(o.seconds > 0.0))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            o.trace = v == "1";
        } else if (k == "--samples") {
            o.samples = v;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && haveWorkload && (!o.trace || !o.samples.empty());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: smtp_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--samples FILE]\n");
        return 2;
    }
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (opt.workload == cand.name)
            w = &cand;
    if (w == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    Bench bench(*w, opt.seed);
    PassLog untraced, traced;
    {
        // The first build in the process pays one-time costs (handler
        // assembly caches, allocator growth) and is not logged.
        PassLog cold;
        bench.setupOnly(cold);
    }
    if (w->hostThreads > 0)
        bench.setReference();

    auto start = Clock::now();
    double untracedBudget = opt.trace ? opt.seconds / 3 : opt.seconds;
    do {
        for (unsigned k = 0; k < kSetupBuildsPerPass; ++k)
            bench.setupOnly(untraced);
        bench.pass(untraced, 0, false);
    } while (secondsSince(start) < untracedBudget);

    Report report;
    double tracedRun = 0.0;
    std::size_t samples = 0;
    if (!opt.trace) {
        report.add("run_s", median(untraced.runS), "s");
        report.add("sim_kcps", median(untraced.kcps), "kcycle/s");
        report.add("setup_s", median(untraced.setupS), "s");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        report.print(untraced, 0.0, 0);
        return 0;
    }

    // Traced passes: size each exec ring to hold every window of the
    // run (two events per window; windows are at least one lookahead of
    // simulated time apart).
    const Counts &c = bench.counts();
    std::size_t ringEvents =
        2 * (get(c, "exec_ticks") / bench.lookahead() + 64);
    installProfiler();
    do {
        bench.pass(traced, ringEvents, true);
    } while (secondsSince(start) < opt.seconds);
    if (!writeSamples(opt.samples, samples)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.samples.c_str());
        return 1;
    }
    tracedRun = median(traced.runS);
    layerMetrics(report, c, untraced, traced);
    PassLog total = untraced;
    total.attempted += traced.attempted;
    total.failed += traced.failed;
    report.print(total, tracedRun, samples);
    return 0;
}
