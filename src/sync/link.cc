#include "sync/link.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hydra {

void
DenseIds::build(std::vector<uint64_t>& ids)
{
    ids_.clear();
    table_.clear();
    min_ = 0;
    if (ids.empty())
        return;
    auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
    uint64_t span = *hi - *lo;
    if (span < 4 * ids.size() + 64) {
        min_ = *lo;
        table_.assign(span + 1, kAbsent);
        for (uint64_t id : ids)
            table_[id - min_] = 0;
        uint32_t rank = 0;
        for (size_t k = 0; k < table_.size(); ++k) {
            if (table_[k] == kAbsent)
                continue;
            table_[k] = rank++;
            ids_.push_back(min_ + k);
        }
        return;
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    ids_ = std::move(ids);
}

uint32_t
DenseIds::findSorted(uint64_t id) const
{
    auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    return it != ids_.end() && *it == id
               ? static_cast<uint32_t>(it - ids_.begin())
               : kAbsent;
}

uint32_t
ProgramLink::slotOf(uint32_t m, size_t card) const
{
    if (m == kNone)
        return kNone;
    auto b = slotCard.begin() + slotBegin[m];
    auto e = slotCard.begin() + slotBegin[m + 1];
    auto it = std::lower_bound(b, e, card);
    return it != e && *it == card
               ? static_cast<uint32_t>(it - slotCard.begin())
               : kNone;
}

ProgramLink::ProgramLink(const Program& prog)
{
    const size_t n = prog.cardCount();
    auto add = [this](ProgramIssue::Kind kind, size_t card, uint64_t id,
                      std::string detail) {
        issues.push_back(ProgramIssue{kind, card, id, std::move(detail)});
    };

    // Task offsets and the id sets.
    computeBase.resize(n + 1);
    commBase.resize(n + 1);
    uint32_t nc = 0, nm = 0;
    for (size_t c = 0; c < n; ++c) {
        computeBase[c] = nc;
        commBase[c] = nm;
        nc += static_cast<uint32_t>(prog.cards[c].compute.size());
        nm += static_cast<uint32_t>(prog.cards[c].comm.size());
    }
    computeBase[n] = nc;
    commBase[n] = nm;
    {
        std::vector<uint64_t> cids, lids, mids;
        cids.reserve(nc);
        lids.reserve(nc);
        mids.reserve(nm);
        for (const CardProgram& card : prog.cards) {
            for (const ComputeTask& t : card.compute) {
                cids.push_back(t.id);
                lids.push_back(t.label);
                mids.insert(mids.end(), t.waitMsgs.begin(),
                            t.waitMsgs.end());
            }
            for (const CommTask& t : card.comm)
                mids.push_back(t.msg);
        }
        computeIds.build(cids);
        labels.build(lids);
        msgs.build(mids);
    }
    const uint32_t nmsgs = static_cast<uint32_t>(msgs.size());

    // One recv slot per distinct (message, card).  Queues are walked
    // card-major, so each message's slots come out in card order.
    comm.resize(nm);
    slotBegin.assign(nmsgs + 1, 0);
    std::vector<uint32_t> lastCard(nmsgs, kNone);
    for (size_t c = 0; c < n; ++c) {
        const auto& queue = prog.cards[c].comm;
        for (size_t i = 0; i < queue.size(); ++i) {
            uint32_t m = msgs.find(queue[i].msg);
            comm[commBase[c] + i].msg = m;
            if (queue[i].kind == CommTask::Kind::Recv && lastCard[m] != c) {
                lastCard[m] = static_cast<uint32_t>(c);
                ++slotBegin[m + 1];
            }
        }
    }
    for (uint32_t m = 0; m < nmsgs; ++m)
        slotBegin[m + 1] += slotBegin[m];
    slotCard.resize(slotBegin[nmsgs]);
    std::vector<uint32_t> next(slotBegin.begin(), slotBegin.end() - 1);
    std::fill(lastCard.begin(), lastCard.end(), kNone);
    for (size_t c = 0; c < n; ++c) {
        const auto& queue = prog.cards[c].comm;
        for (size_t i = 0; i < queue.size(); ++i) {
            if (queue[i].kind != CommTask::Kind::Recv)
                continue;
            CommLink& l = comm[commBase[c] + i];
            if (lastCard[l.msg] != c) {
                lastCard[l.msg] = static_cast<uint32_t>(c);
                slotCard[next[l.msg]] = static_cast<uint32_t>(c);
                ++next[l.msg];
            }
            l.slot = next[l.msg] - 1;
        }
    }

    // Sends and the per-task peer checks.
    sender.assign(nmsgs, kNone);
    std::vector<uint32_t> sendCount(nmsgs, 0);
    std::vector<uint32_t> secondSender(nmsgs, kNone);
    std::vector<size_t> firstDst(nmsgs, 0);
    for (size_t c = 0; c < n; ++c) {
        const auto& queue = prog.cards[c].comm;
        for (size_t i = 0; i < queue.size(); ++i) {
            const CommTask& t = queue[i];
            CommLink& l = comm[commBase[c] + i];
            auto msgU = static_cast<unsigned long long>(t.msg);
            if (t.kind == CommTask::Kind::Recv) {
                if (t.peer >= n)
                    add(ProgramIssue::Kind::BadPeer, c, t.msg,
                        strf("recv msg %llu from out-of-range card %zu",
                             msgU, t.peer));
                else if (t.peer == c)
                    add(ProgramIssue::Kind::SelfMessage, c, t.msg,
                        strf("card %zu receives msg %llu from itself", c,
                             msgU));
                continue;
            }
            if (t.peer != kBroadcast && t.peer >= n)
                add(ProgramIssue::Kind::BadPeer, c, t.msg,
                    strf("send msg %llu to out-of-range card %zu", msgU,
                         t.peer));
            else if (t.peer == c)
                add(ProgramIssue::Kind::SelfMessage, c, t.msg,
                    strf("card %zu sends msg %llu to itself", c, msgU));
            if (t.afterCompute != 0) {
                l.after = computeIds.find(t.afterCompute);
                if (l.after == kNone) {
                    l.after = kDangling;
                    add(ProgramIssue::Kind::DanglingAfterCompute, c,
                        t.afterCompute,
                        strf("send msg %llu waits on unknown compute id "
                             "%llu",
                             msgU,
                             static_cast<unsigned long long>(
                                 t.afterCompute)));
                }
            }
            if (sendCount[l.msg] == 0)
                firstDst[l.msg] = t.peer;
            else if (sendCount[l.msg] == 1)
                secondSender[l.msg] = static_cast<uint32_t>(c);
            ++sendCount[l.msg];
            sender[l.msg] = static_cast<uint32_t>(c);
            if (t.peer == kBroadcast) {
                l.selfSlot = slotOf(l.msg, c);
                uint32_t others = slotBegin[l.msg + 1] - slotBegin[l.msg] -
                                  (l.selfSlot != kNone ? 1 : 0);
                l.broadcastOk = others == n - 1;
            } else if (t.peer < n) {
                l.slot = slotOf(l.msg, t.peer);
            }
        }
    }

    // Pairing checks, in ascending message id order.
    for (uint32_t m = 0; m < nmsgs; ++m) {
        if (sendCount[m] == 0)
            continue;
        auto msgU = static_cast<unsigned long long>(msgs.id(m));
        if (sendCount[m] > 1) {
            add(ProgramIssue::Kind::DuplicateSender, secondSender[m],
                msgs.id(m),
                strf("msg %llu has %zu senders", msgU,
                     static_cast<size_t>(sendCount[m])));
            continue;
        }
        // A single sender is also the last one.
        size_t src = sender[m];
        if (firstDst[m] == kBroadcast) {
            for (size_t r = 0; r < n; ++r)
                if (r != src && slotOf(m, r) == kNone)
                    add(ProgramIssue::Kind::UnmatchedSend, src,
                        msgs.id(m),
                        strf("broadcast msg %llu has no recv on card "
                             "%zu",
                             msgU, r));
        } else if (firstDst[m] < n && slotOf(m, firstDst[m]) == kNone) {
            add(ProgramIssue::Kind::UnmatchedSend, src, msgs.id(m),
                strf("msg %llu to card %zu has no matching recv", msgU,
                     firstDst[m]));
        }
    }
    for (uint32_t m = 0; m < nmsgs; ++m) {
        if (sendCount[m] != 0)
            continue;
        for (uint32_t s = slotBegin[m]; s < slotBegin[m + 1]; ++s)
            add(ProgramIssue::Kind::UnmatchedRecv, slotCard[s],
                msgs.id(m),
                strf("recv of msg %llu that no card sends",
                     static_cast<unsigned long long>(msgs.id(m))));
    }

    // Compute tasks: dense ids and the slot of every waited message.
    compute.resize(nc);
    for (size_t c = 0; c < n; ++c) {
        const auto& queue = prog.cards[c].compute;
        for (size_t i = 0; i < queue.size(); ++i) {
            const ComputeTask& t = queue[i];
            ComputeLink& l = compute[computeBase[c] + i];
            l.cid = computeIds.find(t.id);
            l.label = labels.find(t.label);
            l.waitBegin = static_cast<uint32_t>(waitSlots.size());
            for (uint64_t w : t.waitMsgs) {
                uint32_t s = slotOf(msgs.find(w), c);
                waitSlots.push_back(s);
                if (s == kNone)
                    add(ProgramIssue::Kind::WaitOnUnknownMsg, c, w,
                        strf("compute id %llu waits on msg %llu that "
                             "card %zu never receives",
                             static_cast<unsigned long long>(t.id),
                             static_cast<unsigned long long>(w), c));
            }
            l.waitEnd = static_cast<uint32_t>(waitSlots.size());
        }
    }
}

std::vector<ProgramIssue>
Program::validate() const
{
    return ProgramLink(*this).issues;
}

} // namespace hydra
