#include "serve/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hh"

namespace hydra {

namespace {

/** Bucket upper edges in ticks, computed once: 100us * 2^(i/4). */
const std::array<Tick, LatencyHistogram::kBuckets>&
bucketEdges()
{
    static const auto edges = [] {
        std::array<Tick, LatencyHistogram::kBuckets> e{};
        const double base = 100e-6;
        const double ratio = std::pow(2.0, 0.25);
        double upper = base;
        for (size_t i = 0; i < e.size(); ++i) {
            e[i] = secondsToTicks(upper);
            upper *= ratio;
        }
        return e;
    }();
    return edges;
}

} // namespace

Tick
LatencyHistogram::bucketUpper(size_t i)
{
    return bucketEdges()[std::min(i, kBuckets - 1)];
}

void
LatencyHistogram::add(Tick t)
{
    const auto& edges = bucketEdges();
    // First bucket whose upper edge exceeds t; overflow clamps into
    // the last bucket.
    auto it = std::upper_bound(edges.begin(), edges.end(), t);
    size_t idx = it == edges.end()
                     ? kBuckets - 1
                     : static_cast<size_t>(it - edges.begin());
    ++counts_[idx];
    ++total_;
}

Tick
LatencyHistogram::percentile(double p) const
{
    if (total_ == 0)
        return 0;
    p = std::clamp(p, 0.0, 1.0);
    // Rank of the quantile sample, 1-based (nearest-rank definition).
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(total_)));
    rank = std::max<uint64_t>(rank, 1);
    uint64_t cum = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        cum += counts_[i];
        if (cum >= rank)
            return bucketEdges()[i];
    }
    return bucketEdges()[kBuckets - 1];
}

namespace {

/** Incremental FNV-1a (64-bit). */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void* p, size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }

    void u64(uint64_t v) { bytes(&v, sizeof(v)); }

    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string& s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void
    hist(const LatencyHistogram& hg)
    {
        u64(hg.count());
        for (uint64_t c : hg.buckets())
            u64(c);
    }
};

} // namespace

uint64_t
ServeStats::hash() const
{
    Fnv f;
    f.u64(horizon);
    f.u64(offered);
    f.u64(admitted);
    f.u64(completed);
    f.u64(shed);
    f.u64(shedQueueFull);
    f.u64(shedNoCapacity);
    f.u64(shedAfterAdmit);
    f.u64(failedCards.size());
    for (size_t c : failedCards)
        f.u64(c);
    f.u64(repartitions);
    f.u64(redispatches);
    f.u64(recoveryPenalty);
    f.u64(clusterKills);
    f.u64(clusterPartitions);
    f.u64(failovers);
    f.u64(spilled);
    f.u64(recoveredSteps);
    f.u64(replayedSteps);
    f.u64(healthTransitions);
    f.u64(canaryProbes);
    f.u64(stalled ? 1 : 0);
    f.str(stallReport);
    f.u64(maxQueueDepth);
    f.f64(meanQueueDepth);
    f.hist(latency);
    f.hist(queueWait);
    f.hist(service);
    // Cake counters join the hash only for non-fifo runs: fifo hashes
    // must stay bit-identical to their pre-scheduler values.
    const bool cake = sched != "fifo";
    if (cake) {
        f.str(sched);
        f.u64(preemptions);
        f.u64(preemptResumes);
        f.u64(steals);
        f.u64(stealsCross);
        f.u64(demotions);
        f.u64(promotions);
        f.u64(kicks);
        f.u64(chargedTicks);
        f.u64(refundedTicks);
        f.u64(executedTicks);
        f.u64(maxWaitTicks);
        f.u64(jobCacheHits);
        f.u64(jobCacheMisses);
    }
    for (const auto& t : tenants) {
        f.str(t.name);
        f.u64(t.offered);
        f.u64(t.admitted);
        f.u64(t.completed);
        f.u64(t.shed);
        if (cake) {
            f.u64(t.deficitTicks);
            f.u64(t.demotions);
            f.u64(t.kicks);
            f.u64(t.steals);
            f.u64(t.preemptions);
        }
    }
    for (const auto& g : groups) {
        f.u64(g.id);
        f.u64(g.cluster);
        f.str(g.workload);
        f.u64(g.cards);
        f.u64(g.completed);
        f.u64(g.busyTicks);
        f.u64(g.retired ? 1 : 0);
    }
    for (const auto& c : clusters) {
        f.u64(c.id);
        f.str(c.health);
        f.u64(c.completed);
        f.u64(c.failovers);
        f.u64(c.canaryProbes);
        f.u64(c.deadCards);
        f.u64(c.killed ? 1 : 0);
    }
    return f.h;
}

namespace {

double
ms(Tick t)
{
    return ticksToSeconds(t) * 1e3;
}

} // namespace

std::string
ServeStats::toJson(const std::string& machine,
                   const std::string& spec_line) const
{
    std::string s = "{";
    s += strf("\"machine\": \"%s\", ", machine.c_str());
    s += strf("\"spec\": \"%s\", ", spec_line.c_str());
    s += strf("\"horizon_s\": %.6f, ", ticksToSeconds(horizon));
    s += strf("\"offered\": %llu, \"admitted\": %llu, "
              "\"completed\": %llu, ",
              static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(admitted),
              static_cast<unsigned long long>(completed));
    s += strf("\"shed\": {\"total\": %llu, \"queue_full\": %llu, "
              "\"no_capacity\": %llu}, ",
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(shedQueueFull),
              static_cast<unsigned long long>(shedNoCapacity));
    s += strf("\"throughput_rps\": %.6f, ", throughputRps());
    s += strf("\"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, "
              "\"p99\": %.3f}, ",
              ms(latency.percentile(0.50)),
              ms(latency.percentile(0.95)),
              ms(latency.percentile(0.99)));
    s += strf("\"queue_wait_ms\": {\"p50\": %.3f, \"p99\": %.3f}, ",
              ms(queueWait.percentile(0.50)),
              ms(queueWait.percentile(0.99)));
    s += strf("\"queue\": {\"max_depth\": %zu, \"mean_depth\": %.3f}, ",
              maxQueueDepth, meanQueueDepth);
    s += strf("\"sched\": \"%s\", ", sched.c_str());
    if (sched != "fifo")
        s += strf("\"cake\": {\"preemptions\": %llu, "
                  "\"preempt_resumes\": %llu, \"steals\": %llu, "
                  "\"steals_cross\": %llu, \"demotions\": %llu, "
                  "\"promotions\": %llu, \"kicks\": %llu, "
                  "\"charged_ticks\": %llu, \"refunded_ticks\": %llu, "
                  "\"executed_ticks\": %llu, \"max_wait_s\": %.6f, "
                  "\"job_cache_hits\": %llu, "
                  "\"job_cache_misses\": %llu}, ",
                  static_cast<unsigned long long>(preemptions),
                  static_cast<unsigned long long>(preemptResumes),
                  static_cast<unsigned long long>(steals),
                  static_cast<unsigned long long>(stealsCross),
                  static_cast<unsigned long long>(demotions),
                  static_cast<unsigned long long>(promotions),
                  static_cast<unsigned long long>(kicks),
                  static_cast<unsigned long long>(chargedTicks),
                  static_cast<unsigned long long>(refundedTicks),
                  static_cast<unsigned long long>(executedTicks),
                  ticksToSeconds(maxWaitTicks),
                  static_cast<unsigned long long>(jobCacheHits),
                  static_cast<unsigned long long>(jobCacheMisses));
    // Cache observability under the unified ExecPlan path.  The job
    // cache repeats the cake-block values so fifo runs (no cake block)
    // still export them; none of this enters the hash.
    s += strf("\"caches\": {\"program\": {\"hits\": %llu, "
              "\"misses\": %llu, \"evictions\": %llu, "
              "\"entries\": %llu}, "
              "\"job\": {\"hits\": %llu, \"misses\": %llu, "
              "\"faulted_hits\": %llu, \"faulted_misses\": %llu}}, ",
              static_cast<unsigned long long>(progCacheHits),
              static_cast<unsigned long long>(progCacheMisses),
              static_cast<unsigned long long>(progCacheEvictions),
              static_cast<unsigned long long>(progCacheEntries),
              static_cast<unsigned long long>(jobCacheHits),
              static_cast<unsigned long long>(jobCacheMisses),
              static_cast<unsigned long long>(jobCacheFaultedHits),
              static_cast<unsigned long long>(jobCacheFaultedMisses));
    s += "\"faults\": {\"failed_cards\": [";
    for (size_t i = 0; i < failedCards.size(); ++i)
        s += strf("%s%zu", i ? ", " : "", failedCards[i]);
    s += strf("], \"repartitions\": %llu, \"redispatches\": %llu, "
              "\"recovery_penalty_s\": %.6f}, ",
              static_cast<unsigned long long>(repartitions),
              static_cast<unsigned long long>(redispatches),
              ticksToSeconds(recoveryPenalty));
    s += strf("\"federation\": {\"cluster_kills\": %llu, "
              "\"cluster_partitions\": %llu, \"failovers\": %llu, "
              "\"spilled\": %llu, \"recovered_steps\": %llu, "
              "\"replayed_steps\": %llu, \"health_transitions\": %llu, "
              "\"canary_probes\": %llu, \"shed_after_admit\": %llu, "
              "\"stalled\": %s, ",
              static_cast<unsigned long long>(clusterKills),
              static_cast<unsigned long long>(clusterPartitions),
              static_cast<unsigned long long>(failovers),
              static_cast<unsigned long long>(spilled),
              static_cast<unsigned long long>(recoveredSteps),
              static_cast<unsigned long long>(replayedSteps),
              static_cast<unsigned long long>(healthTransitions),
              static_cast<unsigned long long>(canaryProbes),
              static_cast<unsigned long long>(shedAfterAdmit),
              stalled ? "true" : "false");
    s += "\"clusters\": [";
    for (size_t i = 0; i < clusters.size(); ++i) {
        const auto& c = clusters[i];
        s += strf("%s{\"id\": %zu, \"health\": \"%s\", "
                  "\"completed\": %llu, \"failovers\": %llu, "
                  "\"canary_probes\": %llu, \"dead_cards\": %zu, "
                  "\"killed\": %s}",
                  i ? ", " : "", c.id, c.health.c_str(),
                  static_cast<unsigned long long>(c.completed),
                  static_cast<unsigned long long>(c.failovers),
                  static_cast<unsigned long long>(c.canaryProbes),
                  c.deadCards, c.killed ? "true" : "false");
    }
    s += "]}, ";
    s += "\"tenants\": [";
    // Bulk runs (10k+ tenants) would dominate the export; list the
    // first kMaxJsonTenants and record how many were elided.
    constexpr size_t kMaxJsonTenants = 64;
    size_t listed = std::min(tenants.size(), kMaxJsonTenants);
    for (size_t i = 0; i < listed; ++i) {
        const auto& t = tenants[i];
        s += strf("%s{\"name\": \"%s\", \"offered\": %llu, "
                  "\"admitted\": %llu, \"completed\": %llu, "
                  "\"shed\": %llu",
                  i ? ", " : "", t.name.c_str(),
                  static_cast<unsigned long long>(t.offered),
                  static_cast<unsigned long long>(t.admitted),
                  static_cast<unsigned long long>(t.completed),
                  static_cast<unsigned long long>(t.shed));
        if (sched != "fifo")
            s += strf(", \"deficit_s\": %.6f, \"demotions\": %llu, "
                      "\"kicks\": %llu, \"steals\": %llu, "
                      "\"preemptions\": %llu",
                      ticksToSeconds(t.deficitTicks),
                      static_cast<unsigned long long>(t.demotions),
                      static_cast<unsigned long long>(t.kicks),
                      static_cast<unsigned long long>(t.steals),
                      static_cast<unsigned long long>(t.preemptions));
        s += "}";
    }
    s += "]";
    if (listed < tenants.size())
        s += strf(", \"tenants_elided\": %zu",
                  tenants.size() - listed);
    s += ", \"groups\": [";
    for (size_t i = 0; i < groups.size(); ++i) {
        const auto& g = groups[i];
        s += strf("%s{\"id\": %zu, \"cluster\": %zu, "
                  "\"workload\": \"%s\", "
                  "\"cards\": %zu, \"completed\": %llu, "
                  "\"utilization\": %.4f, \"retired\": %s}",
                  i ? ", " : "", g.id, g.cluster, g.workload.c_str(),
                  g.cards,
                  static_cast<unsigned long long>(g.completed),
                  g.utilization(horizon),
                  g.retired ? "true" : "false");
    }
    s += strf("], \"hash\": \"%016llx\"}",
              static_cast<unsigned long long>(hash()));
    return s;
}

std::string
ServeStats::describe() const
{
    std::string s;
    s += strf("horizon %.3f s, offered %llu, admitted %llu, completed "
              "%llu, shed %llu (%llu queue-full, %llu no-capacity)\n",
              ticksToSeconds(horizon),
              static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(admitted),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(shedQueueFull),
              static_cast<unsigned long long>(shedNoCapacity));
    s += strf("throughput %.3f req/s; latency p50 %.1f ms, p95 %.1f "
              "ms, p99 %.1f ms; queue depth max %zu, mean %.2f\n",
              throughputRps(), ms(latency.percentile(0.50)),
              ms(latency.percentile(0.95)),
              ms(latency.percentile(0.99)), maxQueueDepth,
              meanQueueDepth);
    if (!failedCards.empty()) {
        s += "faults: lost card(s)";
        for (size_t c : failedCards)
            s += strf(" %zu", c);
        s += strf(", %llu repartition(s), %llu redispatch(es), "
                  "recovery penalty %.3f s\n",
                  static_cast<unsigned long long>(repartitions),
                  static_cast<unsigned long long>(redispatches),
                  ticksToSeconds(recoveryPenalty));
    }
    if (clusterKills || clusterPartitions || failovers || spilled ||
        canaryProbes) {
        s += strf("federation: %llu cluster kill(s), %llu partition(s), "
                  "%llu failover(s), %llu spilled, %llu recovered / "
                  "%llu replayed step(s), %llu probe(s), %llu health "
                  "transition(s)\n",
                  static_cast<unsigned long long>(clusterKills),
                  static_cast<unsigned long long>(clusterPartitions),
                  static_cast<unsigned long long>(failovers),
                  static_cast<unsigned long long>(spilled),
                  static_cast<unsigned long long>(recoveredSteps),
                  static_cast<unsigned long long>(replayedSteps),
                  static_cast<unsigned long long>(canaryProbes),
                  static_cast<unsigned long long>(healthTransitions));
    }
    if (sched != "fifo") {
        s += strf("%s: %llu preemption(s) (%llu resumed), %llu "
                  "steal(s) (%llu cross-cluster), %llu demotion(s) / "
                  "%llu promotion(s), %llu kick(s), max wait %.3f s\n",
                  sched.c_str(),
                  static_cast<unsigned long long>(preemptions),
                  static_cast<unsigned long long>(preemptResumes),
                  static_cast<unsigned long long>(steals),
                  static_cast<unsigned long long>(stealsCross),
                  static_cast<unsigned long long>(demotions),
                  static_cast<unsigned long long>(promotions),
                  static_cast<unsigned long long>(kicks),
                  ticksToSeconds(maxWaitTicks));
        s += strf("  ledger: charged %llu = refunded %llu + executed "
                  "%llu tick(s) (mod 2^64); job cache %llu hit(s) / "
                  "%llu miss(es)\n",
                  static_cast<unsigned long long>(chargedTicks),
                  static_cast<unsigned long long>(refundedTicks),
                  static_cast<unsigned long long>(executedTicks),
                  static_cast<unsigned long long>(jobCacheHits),
                  static_cast<unsigned long long>(jobCacheMisses));
    }
    if (jobCacheFaultedHits || jobCacheFaultedMisses)
        s += strf("job cache on faulted clusters: %llu hit(s) / %llu "
                  "miss(es)\n",
                  static_cast<unsigned long long>(jobCacheFaultedHits),
                  static_cast<unsigned long long>(jobCacheFaultedMisses));
    if (progCacheHits || progCacheMisses)
        s += strf("program cache: %llu hit(s) / %llu miss(es), %llu "
                  "eviction(s), %llu entrie(s)\n",
                  static_cast<unsigned long long>(progCacheHits),
                  static_cast<unsigned long long>(progCacheMisses),
                  static_cast<unsigned long long>(progCacheEvictions),
                  static_cast<unsigned long long>(progCacheEntries));
    if (stalled)
        s += stallReport;
    for (const auto& c : clusters)
        s += strf("  cluster %zu: %s%s, completed %llu, "
                  "%zu dead card(s)\n",
                  c.id, c.health.c_str(), c.killed ? " (killed)" : "",
                  static_cast<unsigned long long>(c.completed),
                  c.deadCards);
    // Bulk runs: cap the console listing (the JSON export and hash
    // still cover every tenant).
    constexpr size_t kMaxDescribeTenants = 20;
    size_t shown = std::min(tenants.size(), kMaxDescribeTenants);
    for (size_t i = 0; i < shown; ++i) {
        const auto& t = tenants[i];
        s += strf("  tenant %-10s offered %6llu  completed %6llu  "
                  "shed %5llu",
                  t.name.c_str(),
                  static_cast<unsigned long long>(t.offered),
                  static_cast<unsigned long long>(t.completed),
                  static_cast<unsigned long long>(t.shed));
        // Cake counters print only when the tenant actually tripped
        // the machinery — quiet tenants keep the fifo-era line shape.
        if (t.deficitTicks || t.demotions || t.kicks || t.steals ||
            t.preemptions) {
            s += strf("  [deficit %.3fs", ticksToSeconds(t.deficitTicks));
            if (t.demotions)
                s += strf(" demoted x%llu",
                          static_cast<unsigned long long>(t.demotions));
            if (t.kicks)
                s += strf(" kicked x%llu",
                          static_cast<unsigned long long>(t.kicks));
            if (t.steals)
                s += strf(" stolen x%llu",
                          static_cast<unsigned long long>(t.steals));
            if (t.preemptions)
                s += strf(" sliced x%llu",
                          static_cast<unsigned long long>(
                              t.preemptions));
            s += "]";
        }
        s += "\n";
    }
    if (shown < tenants.size())
        s += strf("  ... %zu more tenant(s)\n", tenants.size() - shown);
    for (const auto& g : groups)
        s += strf("  group %zu [%s] %zu card(s)%s  completed %6llu  "
                  "util %5.1f%%\n",
                  g.id, g.workload.c_str(), g.cards,
                  g.retired ? " retired" : "",
                  static_cast<unsigned long long>(g.completed),
                  g.utilization(horizon) * 100);
    return s;
}

} // namespace hydra
