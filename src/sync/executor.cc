#include "sync/executor.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "sync/link.hh"

namespace hydra {

Tick
RunStats::maxComputeBusy() const
{
    Tick m = 0;
    for (Tick t : computeBusy)
        m = std::max(m, t);
    return m;
}

Tick
RunStats::commOverhead() const
{
    Tick floor = maxComputeBusy();
    return makespan > floor ? makespan - floor : 0;
}

uint64_t
RunStats::fingerprint() const
{
    // FNV-1a over every execution-visible field, so two runs hash
    // equal iff they are bit-identical (execution-equivalence tests).
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(makespan);
    mix(computeBusy.size());
    for (Tick t : computeBusy)
        mix(t);
    mix(commBusy.size());
    for (Tick t : commBusy)
        mix(t);
    mix(netBytes);
    mix(netMessages);
    mix(totalCost.cycles);
    mix(totalCost.hbmBytes);
    for (uint64_t v : totalCost.cuOps)
        mix(v);
    mix(totalCost.limbs);
    for (const auto& [label, ticks] : labelComputeTicks) {
        mix(label);
        mix(ticks);
    }
    mix(retries);
    mix(droppedTransfers);
    mix(corruptedTransfers);
    mix(timedOutTransfers);
    mix(retryBackoffTicks);
    return h;
}

void
RunStats::append(const RunStats& next, Tick step_gap)
{
    makespan += next.makespan + step_gap;
    if (computeBusy.size() < next.computeBusy.size())
        computeBusy.resize(next.computeBusy.size(), 0);
    if (commBusy.size() < next.commBusy.size())
        commBusy.resize(next.commBusy.size(), 0);
    for (size_t i = 0; i < next.computeBusy.size(); ++i)
        computeBusy[i] += next.computeBusy[i];
    for (size_t i = 0; i < next.commBusy.size(); ++i)
        commBusy[i] += next.commBusy[i];
    netBytes += next.netBytes;
    netMessages += next.netMessages;
    totalCost += next.totalCost;
    retries += next.retries;
    droppedTransfers += next.droppedTransfers;
    corruptedTransfers += next.corruptedTransfers;
    timedOutTransfers += next.timedOutTransfers;
    retryBackoffTicks += next.retryBackoffTicks;
    for (const auto& [label, t] : next.labelComputeTicks)
        labelComputeTicks[label] += t;
}

namespace {

/** Deterministic duration scaling for stragglers / link degradation. */
Tick
scaleTick(Tick t, double factor)
{
    return static_cast<Tick>(static_cast<double>(t) * factor);
}

constexpr uint32_t kNone = ProgramLink::kNone;

/** One pending engine event: a plain record, no callback.  `task` is
 *  a flat index into ProgramLink::compute or ProgramLink::comm. */
struct Event
{
    enum class Kind : uint8_t
    {
        /** Re-evaluate one card's two queue heads. */
        Kick,
        /** Re-evaluate every card in index order. */
        KickAll,
        ComputeDone,
        RecvReady,
        TransferDone,
        TransferFailed,
        CardFail,
    };
    enum class Outcome : uint8_t { Ok, Drop, Timeout, Corrupt };

    Tick when = 0;
    uint64_t seq = 0;
    Tick start = 0;
    uint32_t card = 0;
    uint32_t task = 0;
    uint32_t attempt = 0;
    Kind kind = Kind::Kick;
    Outcome outcome = Outcome::Ok;
};

/**
 * Deterministic event order, the same as EventQueue's (tick, then
 * insertion): events due now go to a FIFO, later ones to a binary
 * heap on (tick, seq).  A heap event due now was scheduled before the
 * clock reached now, so it precedes everything in the FIFO.
 */
class EventOrder
{
  public:
    Tick now() const { return now_; }
    void advanceTo(Tick t) { now_ = t; }

    void
    push(Tick when, Event e)
    {
        if (when == now_) {
            due_.push_back(e);
            return;
        }
        e.when = when;
        e.seq = seq_++;
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    bool
    pop(Event& e)
    {
        if (!heap_.empty() && heap_.front().when == now_) {
            popHeap(e);
        } else if (head_ < due_.size()) {
            e = due_[head_++];
            if (head_ == due_.size()) {
                due_.clear();
                head_ = 0;
            }
        } else if (!heap_.empty()) {
            popHeap(e);
            now_ = e.when;
        } else {
            return false;
        }
        return true;
    }

  private:
    static bool
    later(const Event& a, const Event& b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    void
    popHeap(Event& e)
    {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        e = heap_.back();
        heap_.pop_back();
    }

    std::vector<Event> heap_;
    std::vector<Event> due_;
    size_t head_ = 0;
    Tick now_ = 0;
    uint64_t seq_ = 0;
};

/** All mutable execution state, local to one tryRun() call. */
struct Engine
{
    Engine(const Program& prog, const ProgramLink& link,
           const NetworkModel& net, const FaultPlan& plan,
           const RetryPolicy& retry, bool record)
        : prog(prog), link(link), net(net), plan(plan), retry(retry),
          n(static_cast<uint32_t>(prog.cardCount())),
          overlap(net.overlapsCompute()), faultsActive(!plan.empty()),
          record(record), cards(n),
          cidDone(link.computeIds.size(), 0),
          slotReady(link.slotCard.size(), 0),
          slotLanded(link.slotCard.size(), 0),
          readyCount(link.msgs.size(), 0),
          attempts(link.msgs.size(), 0),
          labelTicks(link.labels.size(), 0),
          labelSeen(link.labels.size(), 0)
    {
        if (faultsActive)
            for (uint32_t c = 0; c < n; ++c)
                cards[c].straggle = plan.stragglerFactor(c);
    }

    const Program& prog;
    const ProgramLink& link;
    const NetworkModel& net;
    const FaultPlan& plan;
    const RetryPolicy& retry;
    const uint32_t n;
    const bool overlap;
    const bool faultsActive;
    const bool record;

    struct CardState
    {
        size_t computeIdx = 0;
        size_t commIdx = 0;
        bool computeBusy = false;
        bool commBusy = false;
        bool recvConfigured = false;
        double straggle = 1.0;
        Tick computeBusyTicks = 0;
        Tick commBusyTicks = 0;
    };

    EventOrder q;
    std::vector<CardState> cards;
    /** Cards whose compute pipeline is busy. */
    uint32_t computing = 0;
    /** Per dense compute id: has a task with that id finished? */
    std::vector<uint8_t> cidDone;
    /** Per recv slot: ready posted / data landed. */
    std::vector<uint8_t> slotReady;
    std::vector<uint8_t> slotLanded;
    /** Per message: ready slots, and failed attempts so far. */
    std::vector<uint32_t> readyCount;
    std::vector<uint32_t> attempts;
    /** Per dense label: compute ticks, and whether any task ran. */
    std::vector<Tick> labelTicks;
    std::vector<uint8_t> labelSeen;
    RunStats stats;
    RunError err;
    bool halted = false;
    /** Time of the last completed piece of work (drives makespan, so
     *  a post-completion card-kill event cannot inflate it). */
    Tick finishTick = 0;

    void
    emit(uint32_t card, Tick start, Tick end, TaskEvent::Kind kind,
         uint32_t label)
    {
        if (record)
            stats.timeline.push_back(TaskEvent{card, start, end, kind,
                                               label});
    }

    bool
    allDone() const
    {
        for (uint32_t c = 0; c < n; ++c)
            if (cards[c].computeIdx != prog.cards[c].compute.size() ||
                cards[c].commIdx != prog.cards[c].comm.size())
                return false;
        return true;
    }

    void
    halt(RunError e)
    {
        halted = true;
        finishTick = q.now();
        err = std::move(e);
    }

    void
    schedule(Tick when, Event::Kind kind, uint32_t card,
             uint32_t task = 0)
    {
        Event e;
        e.kind = kind;
        e.card = card;
        e.task = task;
        e.start = q.now();
        q.push(when, e);
    }

    void kick(uint32_t c) { schedule(q.now(), Event::Kind::Kick, c); }

    void
    scheduleCardFailures()
    {
        for (const auto& [card, tick] : plan.cardFailAt) {
            if (card >= n)
                continue;
            // Kill ticks are absolute; with a time origin a kill dated
            // before the run starts fires immediately.
            schedule(std::max(tick, q.now()), Event::Kind::CardFail,
                     static_cast<uint32_t>(card));
        }
    }

    /** Call fn(slot, card) for each receiver of send `task` on card
     *  `c`, in card order; returns the receiver count. */
    template <typename Fn>
    uint32_t
    forEachReceiver(uint32_t c, uint32_t task, Fn&& fn) const
    {
        const ProgramLink::CommLink& l = link.comm[task];
        const CommTask& t =
            prog.cards[c].comm[task - link.commBase[c]];
        if (t.peer != kBroadcast) {
            fn(l.slot, static_cast<uint32_t>(t.peer));
            return 1;
        }
        for (uint32_t s = link.slotBegin[l.msg];
             s < link.slotBegin[l.msg + 1]; ++s)
            if (s != l.selfSlot)
                fn(s, link.slotCard[s]);
        return n - 1;
    }

    void
    tryCompute(uint32_t c)
    {
        CardState& st = cards[c];
        const auto& queue = prog.cards[c].compute;
        if (st.computeBusy || st.computeIdx >= queue.size())
            return;
        if (!overlap && st.commBusy)
            return; // FAB: data movement blocks the pipeline
        uint32_t flat =
            link.computeBase[c] + static_cast<uint32_t>(st.computeIdx);
        const ProgramLink::ComputeLink& l = link.compute[flat];
        for (uint32_t w = l.waitBegin; w < l.waitEnd; ++w) {
            uint32_t s = link.waitSlots[w];
            if (s == kNone || !slotLanded[s])
                return; // CT_d waiting for its recv signal
        }

        Tick dur = queue[st.computeIdx].duration;
        if (st.straggle != 1.0)
            dur = scaleTick(dur, st.straggle);
        st.computeBusy = true;
        ++computing;
        schedule(q.now() + dur, Event::Kind::ComputeDone, c, flat);
    }

    void
    computeDone(const Event& e)
    {
        CardState& s = cards[e.card];
        const ComputeTask& task = prog.cards[e.card].compute[s.computeIdx];
        const ProgramLink::ComputeLink& l = link.compute[e.task];
        Tick dur = q.now() - e.start;
        s.computeBusy = false;
        --computing;
        s.computeBusyTicks += dur;
        emit(e.card, e.start, q.now(), TaskEvent::Kind::Compute,
             task.label);
        labelTicks[l.label] += dur;
        labelSeen[l.label] = 1;
        stats.totalCost += task.cost;
        cidDone[l.cid] = 1;
        ++s.computeIdx;
        finishTick = q.now();
        // Host-mediated mode: remote senders may be blocked on this
        // card's compute pipeline; re-evaluate everyone, in order.
        if (overlap)
            kick(e.card);
        else
            schedule(q.now(), Event::Kind::KickAll, e.card);
    }

    void
    tryComm(uint32_t c)
    {
        CardState& st = cards[c];
        const auto& queue = prog.cards[c].comm;
        if (st.commBusy || st.commIdx >= queue.size())
            return;
        uint32_t flat =
            link.commBase[c] + static_cast<uint32_t>(st.commIdx);
        const CommTask& task = queue[st.commIdx];
        const ProgramLink::CommLink& l = link.comm[flat];

        if (task.kind == CommTask::Kind::Recv) {
            if (st.recvConfigured)
                return; // ready posted; waiting for the sender
            // Configure the DMA, then post ready to the sender.
            st.commBusy = true;
            schedule(q.now() + net.setupLatency(), Event::Kind::RecvReady,
                     c, flat);
            return;
        }

        // Send: needs its payload computed (SAC) and every receiver
        // ready (handshake).
        if (l.after != kNone && (l.after == ProgramLink::kDangling ||
                                 !cidDone[l.after]))
            return;
        const bool bcast = task.peer == kBroadcast;
        if (bcast) {
            if (!l.broadcastOk)
                return;
            uint32_t selfReady =
                l.selfSlot != kNone && slotReady[l.selfSlot] ? 1 : 0;
            if (readyCount[l.msg] - selfReady != n - 1)
                return;
        } else if (l.slot == kNone || !slotReady[l.slot]) {
            return;
        }
        if (!overlap) {
            // Host-mediated movement engages the FPGA's only DMA path;
            // it cannot start while the pipeline computes.
            if (st.computeBusy)
                return;
            if (bcast ? computing != 0 : cards[task.peer].computeBusy)
                return;
        }

        Tick dur = bcast ? net.broadcastTime(task.bytes, c, n)
                         : net.transferTime(task.bytes, c, task.peer);

        // Resolve this attempt's fate against the fault plan.  On the
        // fault-free path the outcome is always Ok with the exact wire
        // time, keeping event timing tick-identical to a build without
        // the fault layer.
        Event::Outcome out = Event::Outcome::Ok;
        uint32_t attempt = 0;
        Tick consumed = dur;
        if (faultsActive) {
            attempt = attempts[l.msg];
            if (plan.linkDegrade > 1.0)
                dur = scaleTick(dur, plan.linkDegrade);
            consumed = dur;
            if (plan.dropsTransfer(task.msg, attempt)) {
                // The data never arrives; the DTU's ack timer fires at
                // the timeout (or at the expected wire time if no
                // timer is configured).
                out = Event::Outcome::Drop;
                consumed = retry.timeout ? retry.timeout : dur;
            } else if (retry.timeout && dur > retry.timeout) {
                out = Event::Outcome::Timeout;
                consumed = retry.timeout;
            } else if (plan.corruptsTransfer(task.msg, attempt)) {
                out = Event::Outcome::Corrupt; // checksum fails on arrival
            }
        }

        st.commBusy = true;
        uint32_t receivers =
            forEachReceiver(c, flat, [this](uint32_t, uint32_t r) {
                cards[r].commBusy = true;
            });
        stats.netBytes += task.bytes * receivers;
        if (attempt == 0)
            ++stats.netMessages;

        Event e;
        e.kind = out == Event::Outcome::Ok ? Event::Kind::TransferDone
                                           : Event::Kind::TransferFailed;
        e.card = c;
        e.task = flat;
        e.start = q.now();
        e.attempt = attempt;
        e.outcome = out;
        q.push(q.now() + consumed, e);
    }

    void
    recvReady(const Event& e)
    {
        CardState& s = cards[e.card];
        s.commBusy = false;
        s.recvConfigured = true;
        const ProgramLink::CommLink& l = link.comm[e.task];
        if (!slotReady[l.slot]) {
            slotReady[l.slot] = 1;
            ++readyCount[l.msg];
        }
        // An unmatched recv quiesces here and is reported by the
        // deadlock diagnostics (no abort).
        if (link.sender[l.msg] != kNone)
            kick(link.sender[l.msg]);
    }

    void
    transferDone(const Event& e)
    {
        const uint32_t c = e.card;
        const Tick now = q.now();
        const Tick dur = now - e.start;
        CardState& s = cards[c];
        s.commBusy = false;
        s.commBusyTicks += dur;
        emit(c, e.start, now, TaskEvent::Kind::Transfer, 0);
        ++s.commIdx;
        forEachReceiver(c, e.task, [&](uint32_t slot, uint32_t r) {
            CardState& rs = cards[r];
            rs.commBusy = false;
            rs.recvConfigured = false;
            rs.commBusyTicks += dur;
            emit(r, e.start, now, TaskEvent::Kind::Transfer, 0);
            ++rs.commIdx;
            slotLanded[slot] = 1;
            kick(r);
        });
        // The handshake is consumed: no card stays ready for it.
        uint32_t m = link.comm[e.task].msg;
        for (uint32_t slot = link.slotBegin[m]; slot < link.slotBegin[m + 1];
             ++slot)
            slotReady[slot] = 0;
        readyCount[m] = 0;
        finishTick = now;
        kick(c);
    }

    /**
     * Failed attempt: the wire/DTU stayed occupied for the consumed
     * ticks; the sender backs off exponentially and retries the same
     * head-of-queue task.  Receivers keep their DMA configured (ready
     * state survives a retry).
     */
    void
    transferFailed(const Event& e)
    {
        const uint32_t c = e.card;
        const Tick now = q.now();
        const Tick consumed = now - e.start;
        CardState& s = cards[c];
        s.commBusy = false;
        s.commBusyTicks += consumed;
        emit(c, e.start, now, TaskEvent::Kind::Transfer, 0);
        forEachReceiver(c, e.task, [&](uint32_t, uint32_t r) {
            CardState& rs = cards[r];
            rs.commBusy = false;
            rs.commBusyTicks += consumed;
            emit(r, e.start, now, TaskEvent::Kind::Transfer, 0);
        });
        switch (e.outcome) {
        case Event::Outcome::Drop:
            ++stats.droppedTransfers;
            break;
        case Event::Outcome::Timeout:
            ++stats.timedOutTransfers;
            break;
        case Event::Outcome::Corrupt:
            ++stats.corruptedTransfers;
            break;
        case Event::Outcome::Ok:
            break;
        }
        finishTick = now;
        uint32_t next = e.attempt + 1;
        attempts[link.comm[e.task].msg] = next;
        if (next >= retry.maxAttempts) {
            uint64_t msg =
                prog.cards[c].comm[e.task - link.commBase[c]].msg;
            RunError err;
            err.kind = RunError::Kind::TransferFailed;
            err.card = c;
            err.msg = msg;
            err.attempts = next;
            err.tick = now;
            err.message = strf(
                "transfer of msg %llu from card %u failed after "
                "%u attempt(s) (%llu dropped, %llu corrupted, "
                "%llu timed out this run)",
                static_cast<unsigned long long>(msg), c, next,
                static_cast<unsigned long long>(stats.droppedTransfers),
                static_cast<unsigned long long>(stats.corruptedTransfers),
                static_cast<unsigned long long>(stats.timedOutTransfers));
            halt(std::move(err));
            return;
        }
        ++stats.retries;
        Tick backoff = retry.backoffFor(e.attempt);
        stats.retryBackoffTicks += backoff;
        schedule(now + backoff, Event::Kind::Kick, c);
        if (!overlap) {
            // Freed endpoints may compute during the backoff window;
            // the sender re-arbitrates at retry time.
            forEachReceiver(c, e.task,
                            [this](uint32_t, uint32_t r) { kick(r); });
        }
    }

    void
    cardFail(uint32_t card)
    {
        if (allDone())
            return; // program already drained; nothing to kill
        RunError e;
        e.kind = RunError::Kind::CardFailed;
        e.card = card;
        e.tick = q.now();
        e.message = strf("card %u failed permanently at %.6f s", card,
                         ticksToSeconds(q.now()));
        halt(std::move(e));
    }

    void
    evaluate(uint32_t c)
    {
        tryCompute(c);
        tryComm(c);
    }

    /** Drain the queue; stops at the first structured failure. */
    void
    run()
    {
        Event e;
        while (!halted && q.pop(e)) {
            switch (e.kind) {
            case Event::Kind::Kick:
                evaluate(e.card);
                break;
            case Event::Kind::KickAll:
                for (uint32_t r = 0; r < n; ++r)
                    evaluate(r);
                break;
            case Event::Kind::ComputeDone:
                computeDone(e);
                break;
            case Event::Kind::RecvReady:
                recvReady(e);
                break;
            case Event::Kind::TransferDone:
                transferDone(e);
                break;
            case Event::Kind::TransferFailed:
                transferFailed(e);
                break;
            case Event::Kind::CardFail:
                cardFail(e.card);
                break;
            }
        }
    }

    /** Fold the dense per-label ticks into the stats map. */
    void
    foldLabels()
    {
        for (uint32_t i = 0; i < labelSeen.size(); ++i)
            if (labelSeen[i])
                stats.labelComputeTicks.emplace_hint(
                    stats.labelComputeTicks.end(),
                    static_cast<uint32_t>(link.labels.id(i)),
                    labelTicks[i]);
    }

    bool
    landed(size_t c, uint64_t msg) const
    {
        uint32_t s = link.slotOf(link.msgs.find(msg), c);
        return s != kNone && slotLanded[s];
    }

    uint32_t
    senderOf(uint64_t msg) const
    {
        uint32_t m = link.msgs.find(msg);
        return m == kNone ? kNone : link.sender[m];
    }

    /** Build wait-for diagnostics once the queue quiesced undrained. */
    DeadlockReport
    buildDeadlockReport() const
    {
        DeadlockReport report;

        // Pending compute ids -> owning card (for SAC blockers).
        std::map<uint64_t, size_t> pendingComputeOwner;
        for (size_t c = 0; c < n; ++c)
            for (size_t i = cards[c].computeIdx;
                 i < prog.cards[c].compute.size(); ++i)
                pendingComputeOwner[prog.cards[c].compute[i].id] = c;

        std::set<uint64_t> unmatched;
        std::vector<std::vector<size_t>> edges(n);

        for (size_t c = 0; c < n; ++c) {
            const auto& st = cards[c];
            const auto& compute = prog.cards[c].compute;
            const auto& comm = prog.cards[c].comm;
            if (st.computeIdx == compute.size() &&
                st.commIdx == comm.size())
                continue;

            StuckCard sc;
            sc.card = c;
            sc.computeIdx = st.computeIdx;
            sc.computeTotal = compute.size();
            sc.commIdx = st.commIdx;
            sc.commTotal = comm.size();
            std::string why;

            if (st.computeIdx < compute.size()) {
                const ComputeTask& t = compute[st.computeIdx];
                for (uint64_t m : t.waitMsgs) {
                    if (landed(c, m))
                        continue;
                    uint32_t s = senderOf(m);
                    if (s != kNone) {
                        edges[c].push_back(s);
                        why += strf("compute %llu waits msg %llu from "
                                    "card %u; ",
                                    static_cast<unsigned long long>(t.id),
                                    static_cast<unsigned long long>(m),
                                    s);
                    } else {
                        unmatched.insert(m);
                        why += strf("compute %llu waits msg %llu that "
                                    "has no sender; ",
                                    static_cast<unsigned long long>(t.id),
                                    static_cast<unsigned long long>(m));
                    }
                }
            }
            if (st.commIdx < comm.size()) {
                const CommTask& t = comm[st.commIdx];
                const ProgramLink::CommLink& l =
                    link.comm[link.commBase[c] + st.commIdx];
                auto msgU = static_cast<unsigned long long>(t.msg);
                if (t.kind == CommTask::Kind::Send) {
                    if (l.after != kNone &&
                        (l.after == ProgramLink::kDangling ||
                         !cidDone[l.after])) {
                        auto o = pendingComputeOwner.find(t.afterCompute);
                        auto idU = static_cast<unsigned long long>(
                            t.afterCompute);
                        if (o != pendingComputeOwner.end()) {
                            edges[c].push_back(o->second);
                            why += strf("send msg %llu waits compute "
                                        "%llu on card %zu; ",
                                        msgU, idU, o->second);
                        } else {
                            why += strf("send msg %llu waits dangling "
                                        "compute id %llu; ",
                                        msgU, idU);
                        }
                    } else {
                        std::vector<size_t> rx;
                        if (t.peer == kBroadcast) {
                            for (size_t r = 0; r < n; ++r)
                                if (r != c)
                                    rx.push_back(r);
                        } else if (t.peer < n) {
                            rx.push_back(t.peer);
                        }
                        for (size_t r : rx) {
                            uint32_t s = link.slotOf(l.msg, r);
                            if (s != kNone && slotReady[s])
                                continue;
                            edges[c].push_back(r);
                            why += strf("send msg %llu waits ready "
                                        "from card %zu; ",
                                        msgU, r);
                        }
                    }
                } else if (st.recvConfigured) {
                    uint32_t s = senderOf(t.msg);
                    if (s != kNone) {
                        edges[c].push_back(s);
                        why += strf("recv msg %llu waits data from "
                                    "card %u; ",
                                    msgU, s);
                    } else {
                        unmatched.insert(t.msg);
                        why += strf("recv msg %llu has no matching "
                                    "send; ",
                                    msgU);
                    }
                }
            }
            if (why.empty())
                why = "quiesced with pending work";
            sc.waitingOn = std::move(why);
            report.stuck.push_back(std::move(sc));
        }

        report.unmatchedMsgs.assign(unmatched.begin(), unmatched.end());
        report.cycle = findCycle(edges);
        return report;
    }

    /** First wait-for cycle among the cards, if any (iterative DFS). */
    static std::vector<size_t>
    findCycle(const std::vector<std::vector<size_t>>& edges)
    {
        const size_t n = edges.size();
        enum : uint8_t { White, Grey, Black };
        std::vector<uint8_t> color(n, White);
        std::vector<size_t> stack;

        // Recursive DFS expressed with an explicit stack of (node,
        // next-edge-index) frames.
        for (size_t root = 0; root < n; ++root) {
            if (color[root] != White)
                continue;
            std::vector<std::pair<size_t, size_t>> frames;
            frames.emplace_back(root, 0);
            color[root] = Grey;
            stack.push_back(root);
            while (!frames.empty()) {
                auto& [node, idx] = frames.back();
                if (idx < edges[node].size()) {
                    size_t next = edges[node][idx++];
                    if (next >= n)
                        continue;
                    if (color[next] == Grey) {
                        // Found a cycle: slice the grey stack.
                        auto it = std::find(stack.begin(), stack.end(),
                                            next);
                        return std::vector<size_t>(it, stack.end());
                    }
                    if (color[next] == White) {
                        color[next] = Grey;
                        stack.push_back(next);
                        frames.emplace_back(next, 0);
                    }
                } else {
                    color[node] = Black;
                    stack.pop_back();
                    frames.pop_back();
                }
            }
        }
        return {};
    }
};

} // namespace

RunResult
ClusterExecutor::tryRun(const Program& program)
{
    RunResult res;
    if (program.cardCount() != cluster_.totalCards()) {
        res.error.kind = RunError::Kind::InvalidProgram;
        res.error.message =
            strf("program spans %zu card(s) but the cluster has %zu",
                 program.cardCount(), cluster_.totalCards());
        return res;
    }
    ProgramLink link(program);
    if (prevalidate_ && !link.issues.empty()) {
        res.error.kind = RunError::Kind::InvalidProgram;
        res.error.message = strf(
            "program validation found %zu issue(s); first: [%s] %s",
            link.issues.size(),
            programIssueKindName(link.issues.front().kind),
            link.issues.front().detail.c_str());
        res.error.issues = std::move(link.issues);
        return res;
    }

    Engine eng(program, link, *network_, faults_, retry_,
               recordTimeline_);
    eng.q.advanceTo(origin_);
    eng.finishTick = origin_;
    eng.scheduleCardFailures();
    for (uint32_t c = 0; c < eng.n; ++c)
        eng.kick(c);
    eng.run();

    if (eng.err.ok() && !eng.allDone()) {
        eng.err.kind = RunError::Kind::Deadlock;
        eng.err.tick = eng.q.now();
        eng.err.deadlock = eng.buildDeadlockReport();
        eng.err.message = strf(
            "deadlock: %zu card(s) quiesced with pending work%s",
            eng.err.deadlock.stuck.size(),
            eng.err.deadlock.cycle.empty() ? ""
                                           : " (wait-for cycle found)");
    }

    eng.foldLabels();
    eng.stats.makespan = eng.finishTick - origin_;
    eng.stats.computeBusy.resize(program.cardCount());
    eng.stats.commBusy.resize(program.cardCount());
    for (size_t c = 0; c < program.cardCount(); ++c) {
        eng.stats.computeBusy[c] = eng.cards[c].computeBusyTicks;
        eng.stats.commBusy[c] = eng.cards[c].commBusyTicks;
    }
    res.stats = std::move(eng.stats);
    res.error = std::move(eng.err);
    return res;
}

RunStats
ClusterExecutor::run(const Program& program)
{
    RunResult res = tryRun(program);
    if (!res.ok()) {
        std::string detail = res.error.message;
        if (res.error.kind == RunError::Kind::Deadlock)
            detail += "\n" + res.error.deadlock.describe();
        // A user-visible, clean exit (never abort): callers that need
        // to survive failures use tryRun() and inspect the RunError.
        fatal("cluster run failed [%s]: %s",
              RunError::kindName(res.error.kind), detail.c_str());
    }
    return std::move(res.stats);
}

} // namespace hydra
