/**
 * @file
 * Dense link of a Program: one linear pass that maps message ids,
 * compute ids and labels to dense indices, gives every (message,
 * receiving card) pair a recv slot, resolves each task's references to
 * those indices, and collects Program::validate()'s issues on the way.
 *
 * The executor runs entirely on the linked indices -- flat per-slot
 * and per-message arrays instead of id-keyed maps and sets -- and
 * Program::validate() is this pass with everything but the issues
 * discarded, so the two can never disagree.
 */

#ifndef HYDRA_SYNC_LINK_HH
#define HYDRA_SYNC_LINK_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "sync/task.hh"

namespace hydra {

/** Sorted set of 64-bit ids, each numbered by its ascending rank. */
class DenseIds
{
  public:
    static constexpr uint32_t kAbsent =
        std::numeric_limits<uint32_t>::max();

    /** Index `ids` (duplicates allowed; the vector is consumed). */
    void build(std::vector<uint64_t>& ids);

    /** Rank of `id`, or kAbsent. */
    uint32_t
    find(uint64_t id) const
    {
        if (!table_.empty())
            return id >= min_ && id - min_ < table_.size()
                       ? table_[id - min_]
                       : kAbsent;
        return findSorted(id);
    }

    size_t size() const { return ids_.size(); }
    uint64_t id(uint32_t rank) const { return ids_[rank]; }

  private:
    uint32_t findSorted(uint64_t id) const;

    /** Ascending distinct ids. */
    std::vector<uint64_t> ids_;
    /** Direct rank table over [min_, max] when the ids are compact
     *  (builder ids count up from 1); empty otherwise. */
    std::vector<uint32_t> table_;
    uint64_t min_ = 0;
};

/** Dense view of one Program (see file comment). */
struct ProgramLink
{
    static constexpr uint32_t kNone = DenseIds::kAbsent;
    /** CommLink::after of a send whose afterCompute id is unknown. */
    static constexpr uint32_t kDangling = kNone - 1;

    /** Per compute task, flat over cards (computeBase[c] + index). */
    struct ComputeLink
    {
        /** Dense compute id. */
        uint32_t cid;
        /** Dense label. */
        uint32_t label;
        /** waitSlots[waitBegin, waitEnd): the recv slot each waited
         *  message lands in on this card (kNone: it never does). */
        uint32_t waitBegin;
        uint32_t waitEnd;
    };

    /** Per comm task, flat over cards (commBase[c] + index). */
    struct CommLink
    {
        /** Dense message. */
        uint32_t msg;
        /** Recv: this card's slot.  Point-to-point send: the peer's
         *  slot (kNone if the peer never posts a recv). */
        uint32_t slot = kNone;
        /** Send: dense afterCompute id, kNone for no dependency or
         *  kDangling. */
        uint32_t after = kNone;
        /** Broadcast send: the sender's own slot of the message. */
        uint32_t selfSlot = kNone;
        /** Broadcast send: every other card has a slot. */
        bool broadcastOk = false;
    };

    explicit ProgramLink(const Program& prog);

    /** Recv slot of dense message `m` on `card`, or kNone. */
    uint32_t slotOf(uint32_t m, size_t card) const;

    DenseIds msgs;
    DenseIds computeIds;
    DenseIds labels;

    /** Slots of message m are [slotBegin[m], slotBegin[m + 1]), in
     *  ascending card order. */
    std::vector<uint32_t> slotBegin;
    std::vector<uint32_t> slotCard;
    /** Per message: the card of its last send in card-major queue
     *  order, or kNone. */
    std::vector<uint32_t> sender;

    std::vector<uint32_t> computeBase;
    std::vector<ComputeLink> compute;
    std::vector<uint32_t> waitSlots;
    std::vector<uint32_t> commBase;
    std::vector<CommLink> comm;

    /** Program::validate()'s findings, in its order. */
    std::vector<ProgramIssue> issues;
};

} // namespace hydra

#endif // HYDRA_SYNC_LINK_HH
