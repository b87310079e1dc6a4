#include "workloads/model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hydra {

const char*
procName(ProcKind k)
{
    switch (k) {
      case ProcKind::ConvBN: return "ConvBN";
      case ProcKind::Pooling: return "Pooling";
      case ProcKind::FC: return "FC";
      case ProcKind::NonLinear: return "NonLinear";
      case ProcKind::PCMM: return "PCMM";
      case ProcKind::CCMM: return "CCMM";
      case ProcKind::Norm: return "Norm";
      case ProcKind::Bootstrap: return "Boot";
      default: break;
    }
    panic("unknown ProcKind %d", static_cast<int>(k));
}

// Per-unit mixes, Table I right-hand columns.
OpMix convBnMix() { return OpMix{8, 0, 2, 7}; }
OpMix poolingMix() { return OpMix{2, 0, 1, 0}; }
OpMix fcMix() { return OpMix{1, 0, 1, 0}; }
OpMix pcmmMix() { return OpMix{1, 0, 1, 0}; }
OpMix ccmmMix() { return OpMix{7, 1, 1, 6}; }
OpMix nonLinearMix() { return OpMix{0, 8, 0, 15}; }
/** LayerNorm: rotate-accumulate mean/variance + normalize. */
static OpMix normMix() { return OpMix{2, 1, 1, 2}; }

size_t
WorkloadModel::totalUnits(ProcKind k) const
{
    size_t sum = 0;
    for (const auto& s : steps)
        if (s.kind == k)
            sum += s.parallelism;
    return sum;
}

std::pair<size_t, size_t>
WorkloadModel::parallelismRange(ProcKind k) const
{
    size_t lo = 0, hi = 0;
    for (const auto& s : steps) {
        if (s.kind != k)
            continue;
        if (lo == 0 || s.parallelism < lo)
            lo = s.parallelism;
        hi = std::max(hi, s.parallelism);
    }
    return {lo, hi};
}

size_t
WorkloadModel::stepCount(ProcKind k) const
{
    size_t n = 0;
    for (const auto& s : steps)
        if (s.kind == k)
            ++n;
    return n;
}

namespace {

/** Mid-chain working level for linear layers. */
constexpr size_t kMidLimbs = 12;
/** Level right after bootstrap (cheap matmuls in [13]). */
constexpr size_t kFreshLimbs = 8;
/** Average level across a bootstrap's own pipeline. */
constexpr size_t kBootLimbs = 18;
/** Non-linear layers burn the lower part of the chain. */
constexpr size_t kNonLinLimbs = 10;

/** ReLU/GeLU/Softmax polynomial degree ([12] uses minimax composites;
 *  the per-unit op mix is already fixed by Table I). */
constexpr size_t kReluDegree = 15;

} // namespace

Step
makeConvStep(const std::string& name, size_t par, double scale,
             size_t out_cts)
{
    return Step{ProcKind::ConvBN, name, par, convBnMix(), kMidLimbs,
                AggKind::BroadcastEach, 0, scale, out_cts};
}

Step
makeReluStep(const std::string& name, size_t par, size_t out_cts)
{
    return Step{ProcKind::NonLinear, name, par, nonLinearMix(),
                kNonLinLimbs, AggKind::BroadcastEach, kReluDegree, 1.0,
                out_cts};
}

Step
makePoolStep(const std::string& name, size_t par, size_t out_cts)
{
    return Step{ProcKind::Pooling, name, par, poolingMix(), kMidLimbs,
                AggKind::BroadcastEach, 0, 1.0, out_cts};
}

Step
makeFcStep(const std::string& name, size_t par)
{
    return Step{ProcKind::FC, name, par, fcMix(), kMidLimbs,
                AggKind::ReduceTree, 0, 1.0, 1};
}

Step
makeBootStep(const std::string& name, size_t count)
{
    return Step{ProcKind::Bootstrap, name, count, OpMix{}, kBootLimbs,
                AggKind::None, 0, 1.0, count};
}

Step
makePcmmStep(const std::string& name, size_t par, double scale)
{
    return Step{ProcKind::PCMM, name, par, pcmmMix(), kFreshLimbs,
                AggKind::ReduceTree, 0, scale, 1};
}

Step
makeCcmmStep(const std::string& name, size_t par, double scale)
{
    return Step{ProcKind::CCMM, name, par, ccmmMix(), kMidLimbs,
                AggKind::ReduceTree, 0, scale, 1};
}

Step
makeNonLinStep(const std::string& name, size_t par, size_t out_cts)
{
    return Step{ProcKind::NonLinear, name, par, nonLinearMix(),
                kNonLinLimbs, AggKind::BroadcastEach, kReluDegree, 1.0,
                out_cts};
}

Step
makeNormStep(const std::string& name, size_t par)
{
    return Step{ProcKind::Norm, name, par, normMix(), kMidLimbs,
                AggKind::BroadcastEach, 0, 1.0, 2};
}

} // namespace hydra
