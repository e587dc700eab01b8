/**
 * @file
 * A scripted InstSource for CPU unit tests: a fixed vector of micro-ops
 * with small builder helpers for ALU chains, memory ops and loops.
 */

#ifndef SMTP_TESTS_SCRIPTED_SOURCE_HPP
#define SMTP_TESTS_SCRIPTED_SOURCE_HPP

#include <vector>

#include "cpu/inst.hpp"

namespace smtp::testing
{

class ScriptedSource : public InstSource
{
  public:
    bool hasNext() override { return idx_ < ops_.size(); }
    const MicroOp &peek() override { return ops_[idx_]; }
    void consume() override { ++idx_; }
    bool finished() override { return idx_ >= ops_.size(); }

    std::size_t consumed() const { return idx_; }
    std::size_t size() const { return ops_.size(); }

    // ---- Builders ----------------------------------------------------

    std::uint64_t
    pc() const
    {
        return pcBase_ + 4 * ops_.size();
    }

    void
    alu(std::uint8_t dest, std::uint8_t s1 = regNone,
        std::uint8_t s2 = regNone, OpClass cls = OpClass::IntAlu)
    {
        MicroOp op;
        op.pc = pc();
        op.cls = cls;
        op.dest = dest;
        op.src1 = s1;
        op.src2 = s2;
        ops_.push_back(op);
    }

    void
    fp(std::uint8_t dest, std::uint8_t s1 = regNone,
       std::uint8_t s2 = regNone, OpClass cls = OpClass::FpAdd)
    {
        alu(dest, s1, s2, cls);
    }

    void
    load(Addr addr, std::uint8_t dest, std::uint8_t addr_reg = regNone)
    {
        MicroOp op;
        op.pc = pc();
        op.cls = OpClass::Load;
        op.dest = dest;
        op.src1 = addr_reg;
        op.effAddr = addr;
        ops_.push_back(op);
    }

    void
    store(Addr addr, std::uint8_t data_reg = regNone,
          std::uint8_t addr_reg = regNone)
    {
        MicroOp op;
        op.pc = pc();
        op.cls = OpClass::Store;
        op.src1 = addr_reg;
        op.src2 = data_reg;
        op.effAddr = addr;
        ops_.push_back(op);
    }

    void
    prefetch(Addr addr, bool exclusive = false)
    {
        MicroOp op;
        op.pc = pc();
        op.cls = exclusive ? OpClass::PrefetchEx : OpClass::Prefetch;
        op.effAddr = addr;
        ops_.push_back(op);
    }

    /**
     * A non-speculative ldctxt: it executes at the head of the active
     * list, so its retirement (seen through the ldctxt-retired hook)
     * marks the tick at which everything before it has committed.
     */
    void
    marker()
    {
        MicroOp op;
        op.pc = pc();
        op.cls = OpClass::PLdctxt;
        ops_.push_back(op);
    }

    /** Place the next op at @p pc (e.g. on a fresh page). */
    void
    jumpTo(std::uint64_t pc)
    {
        pcBase_ = pc - 4 * ops_.size();
    }

    /** A resolved conditional branch at the current pc. */
    void
    branch(bool taken, std::uint64_t target)
    {
        MicroOp op;
        op.pc = pc();
        op.cls = OpClass::Branch;
        op.isCondBranch = true;
        op.taken = taken;
        op.target = taken ? target : op.pc + 4;
        ops_.push_back(op);
    }

    /**
     * Emit @p iters iterations of a loop whose body is produced by
     * @p body(iteration); the backward branch is taken for all but the
     * final iteration — exactly what the real front end would see.
     */
    template <typename Fn>
    void
    loop(unsigned iters, Fn &&body)
    {
        std::uint64_t head = pc();
        for (unsigned i = 0; i < iters; ++i) {
            body(i);
            branch(i + 1 < iters, head);
            // Subsequent iterations replay the same PCs.
            if (i + 1 < iters)
                pcBase_ -= (pc() - head);
        }
    }

  private:
    std::vector<MicroOp> ops_;
    std::size_t idx_ = 0;
    std::uint64_t pcBase_ = 0x400000;
};

} // namespace smtp::testing

#endif // SMTP_TESTS_SCRIPTED_SOURCE_HPP
