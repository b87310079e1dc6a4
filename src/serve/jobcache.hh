/**
 * @file
 * Job-result cache for the serving engine, with one window-purity
 * rule for clusters with and without local fault injection.
 *
 * A job window is InferenceRunner::runJob over units [first, first +
 * count) of a plan on a card group from a start tick.  Everything a
 * cluster-local FaultPlan injects except a kill is start-invariant:
 * drop and corrupt draws are keyed on (seed, msg, attempt), and
 * stragglers and link degradation are static factors; the executor's
 * time origin only shifts event timestamps (pinned by RunnerJobs.
 * KillFreeWindowsAreStartInvariant).  So a window is a pure function
 * of (plan, card set, unit window, the group's fault projection with
 * kills left out) as long as no kill reaches it:
 *
 *   A window is PURE when every card of its group is either unkilled
 *   or dies strictly after start + reach, where reach is the span (or,
 *   for a failed window, the tick of its failure past the start).
 *
 * The cache memoizes pure windows only and replays an entry only when
 * the replay would be pure at the new start, so a kill always lands in
 * a real execution.  Million-request serving runs re-execute the same
 * handful of windows; a replay is O(1) and the same spans, bit for
 * bit, as real execution.
 *
 * Fault-free clusters key their windows with fault word 0; faulted
 * clusters live in their own key space (a non-zero word) and count
 * their lookups separately, so the fault-free counters, which the cake
 * stats hash folds, do not depend on what faulted clusters look up.
 */

#ifndef HYDRA_SERVE_JOBCACHE_HH
#define HYDRA_SERVE_JOBCACHE_HH

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sched/runner.hh"

namespace hydra {

namespace jobcache_detail {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** Fold one 64-bit word into an FNV-1a hash, low byte first. */
inline void
fold(uint64_t& h, uint64_t v)
{
    for (size_t i = 0; i < sizeof(v); ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

inline uint64_t
bitsOf(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

} // namespace jobcache_detail

/** What a cluster-local fault plan means to the cache for one card
 *  group. */
struct WindowFaults
{
    /** 0 on a fault-free cluster; otherwise a non-zero hash of the
     *  group's projected plan (planForGroup) with kills left out. */
    uint64_t word = 0;
    /** Earliest kill tick among the group's cards; never when none. */
    Tick killAt = ~Tick{0};

    static WindowFaults
    of(const FaultPlan& local, const std::vector<size_t>& cards)
    {
        WindowFaults f;
        if (local.empty())
            return f;
        using namespace jobcache_detail;
        FaultPlan p = planForGroup(local, cards);
        uint64_t h = kFnvBasis;
        fold(h, p.seed);
        fold(h, bitsOf(p.dropRate));
        fold(h, bitsOf(p.corruptRate));
        fold(h, bitsOf(p.linkDegrade));
        fold(h, p.dropFirstAttempts);
        fold(h, p.stragglers.size());
        for (const auto& [card, factor] : p.stragglers) {
            fold(h, card);
            fold(h, bitsOf(factor));
        }
        f.word = h ? h : 1;
        for (const auto& [card, tick] : p.cardFailAt)
            f.killAt = std::min(f.killAt, tick);
        return f;
    }
};

/** Memoized outcome of one pure runJob window: everything the serving
 *  engine feeds back from a job, with ticks relative to its start. */
struct CachedJob
{
    bool ok = true;
    Tick span = 0;
    /** Ticks past the start the execution observed: the span, or the
     *  failure tick of a failed window. */
    Tick reach = 0;
    /** Unit-boundary offsets from the job's start (runJob semantics). */
    std::vector<Tick> stepEnds;
    uint64_t redispatches = 0;
    Tick recoveryPenalty = 0;
    uint64_t timedOut = 0;

    /** The outcome of `r`, a window executed from `start`. */
    static CachedJob
    of(const InferenceResult& r, Tick start)
    {
        CachedJob c;
        c.ok = r.ok();
        c.span = r.total.makespan;
        c.reach = c.span;
        if (!c.ok && r.error.tick > start)
            c.reach = std::max(c.reach, r.error.tick - start);
        c.stepEnds = r.stepEnds;
        c.redispatches = r.redispatches;
        c.recoveryPenalty = r.recoveryPenalty;
        c.timedOut = r.total.timedOutTransfers;
        return c;
    }
};

/** Per-run cache of pure job windows, keyed on the ExecPlan's
 *  window-independent identity + the executed unit window + the card
 *  set + the fault word: sliced tails and memoized replays work
 *  identically for Safe step units and Aggressive multi-layer units. */
class JobCache
{
  public:
    /** The cached window, or nullptr when there is none or replaying
     *  it from `start` would not be pure. */
    const CachedJob*
    lookup(const std::string& plan_key,
           const std::vector<size_t>& cards, size_t first_unit,
           size_t num_units, const WindowFaults& f, Tick start) const
    {
        auto it = map_.find(
            keyOf(plan_key, cards, first_unit, num_units, f.word));
        bool hit = it != map_.end() && pure(start, it->second, f);
        ++(f.word ? (hit ? faultedHits_ : faultedMisses_)
                  : (hit ? hits_ : misses_));
        return hit ? &it->second : nullptr;
    }

    /** Memoize `job`, executed from `start`, if it was pure. */
    void
    insert(const std::string& plan_key,
           const std::vector<size_t>& cards, size_t first_unit,
           size_t num_units, const WindowFaults& f, Tick start,
           const CachedJob& job)
    {
        if (pure(start, job, f))
            map_.emplace(
                keyOf(plan_key, cards, first_unit, num_units, f.word),
                job);
    }

    /** Lookups from fault-free clusters. */
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    /** Lookups from clusters with local fault injection. */
    uint64_t faultedHits() const { return faultedHits_; }
    uint64_t faultedMisses() const { return faultedMisses_; }

  private:
    /** The window-purity rule: no kill at or before start + reach. */
    static bool
    pure(Tick start, const CachedJob& job, const WindowFaults& f)
    {
        return f.killAt > start && job.reach < f.killAt - start;
    }

    /** (FNV-1a plan key, first, count, FNV-1a card signature, fault
     *  word).  The plan key folds the machine shape, workload content
     *  and opt level; the card set is folded by content, so shrunken
     *  groups never alias their pre-repair selves. */
    using Key = std::tuple<uint64_t, size_t, size_t, uint64_t, uint64_t>;

    static Key
    keyOf(const std::string& plan_key, const std::vector<size_t>& cards,
          size_t first_unit, size_t num_units, uint64_t fault_word)
    {
        using namespace jobcache_detail;
        uint64_t hp = kFnvBasis;
        for (char ch : plan_key) {
            hp ^= static_cast<unsigned char>(ch);
            hp *= 0x100000001b3ULL;
        }
        uint64_t hc = kFnvBasis;
        fold(hc, cards.size());
        for (size_t c : cards)
            fold(hc, c);
        return {hp, first_unit, num_units, hc, fault_word};
    }

    std::map<Key, CachedJob> map_;
    mutable uint64_t hits_ = 0;
    mutable uint64_t misses_ = 0;
    mutable uint64_t faultedHits_ = 0;
    mutable uint64_t faultedMisses_ = 0;
};

} // namespace hydra

#endif // HYDRA_SERVE_JOBCACHE_HH
