#include "sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

namespace smtp
{

unsigned
SweepPool::defaultJobs()
{
    unsigned v = 0;
    const char *env = std::getenv("SMTP_SWEEP_JOBS");
    if (env != nullptr && parseCount(env, v) && v >= 1)
        return v;
    unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

bool
SweepPool::parseCount(const char *text, unsigned &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    unsigned long long v = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        v = v * 10 + static_cast<unsigned>(*p - '0');
        if (v > std::numeric_limits<unsigned>::max())
            return false;
    }
    out = static_cast<unsigned>(v);
    return true;
}

bool
SweepPool::parseScale(const char *text, double &out)
{
    // strtod alone would take leading spaces, a sign, "inf" and "nan".
    if (text == nullptr || !(std::isdigit(static_cast<unsigned char>(
                                 *text)) ||
                             *text == '.'))
        return false;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    if (*end != '\0' || errno == ERANGE || !std::isfinite(v) || v <= 0)
        return false;
    out = v;
    return true;
}

SweepPool::SweepPool(unsigned jobs) : jobs_(jobs != 0 ? jobs : defaultJobs())
{
}

void
SweepPool::parallelFor(std::size_t n,
                       const std::function<void(std::size_t)> &body)
{
    std::size_t threads = std::min<std::size_t>(jobs_, n);
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next++; i < n; i = next++)
            body(i);
    };
    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t)
        helpers.emplace_back(work);
    work(); // The caller works too.
    for (auto &h : helpers)
        h.join();
}

} // namespace smtp
