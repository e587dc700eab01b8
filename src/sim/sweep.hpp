/**
 * @file
 * Parallel sweep harness.
 *
 * Every paper figure is dozens of independent full-system simulations;
 * a Machine is single-threaded but shares nothing with its siblings, so
 * sweep cells are embarrassingly parallel. SweepPool::parallelFor runs
 * an indexed task set on min(jobs, n) threads (the caller plus helpers
 * started for the batch) that claim indices from one shared counter, so
 * a straggler cell (a 32-node model) never idles the other cores.
 * Results are the caller's responsibility to store by index, which
 * keeps output ordering — and therefore every printed table —
 * identical to a serial run.
 *
 * Worker count: explicit argument > SMTP_SWEEP_JOBS env var > hardware
 * concurrency. jobs == 1 degenerates to an inline serial loop (no
 * threads), which the determinism tests diff against parallel runs.
 */

#ifndef SMTP_SIM_SWEEP_HPP
#define SMTP_SIM_SWEEP_HPP

#include <cstddef>
#include <functional>

namespace smtp
{

class SweepPool
{
  public:
    /** @p jobs 0 resolves via defaultJobs(). */
    explicit SweepPool(unsigned jobs = 0);

    SweepPool(const SweepPool &) = delete;
    SweepPool &operator=(const SweepPool &) = delete;

    unsigned jobs() const { return jobs_; }

    /** SMTP_SWEEP_JOBS env override, else hardware concurrency. */
    static unsigned defaultJobs();

    /**
     * Parse a count given on a command line (--jobs=N, where 0 means
     * defaultJobs(); --nodes=N, --dcache-div=N): decimal digits only,
     * no sign, no surrounding junk, and it must fit in an unsigned.
     * Returns false, leaving @p out untouched, on anything else.
     */
    static bool parseCount(const char *text, unsigned &out);

    /**
     * Parse a workload scale (--scale=X): a finite decimal number
     * greater than 0, written with digits and at most one point and
     * exponent ("0.5", "2", "1e-1"); no sign, no spaces, no trailing
     * junk. Returns false, leaving @p out untouched, on anything else.
     */
    static bool parseScale(const char *text, double &out);

    /**
     * Run body(0) .. body(n-1) across the pool; blocks until all
     * complete. The body must only touch state owned by its index.
     * Exceptions escaping the body abort the process (a simulation
     * panic is fatal anyway).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

  private:
    unsigned jobs_;
};

} // namespace smtp

#endif // SMTP_SIM_SWEEP_HPP
