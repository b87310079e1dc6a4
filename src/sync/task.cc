#include "sync/task.hh"

#include "common/logging.hh"

namespace hydra {

const char*
programIssueKindName(ProgramIssue::Kind k)
{
    switch (k) {
    case ProgramIssue::Kind::UnmatchedRecv:
        return "unmatched-recv";
    case ProgramIssue::Kind::UnmatchedSend:
        return "unmatched-send";
    case ProgramIssue::Kind::DanglingAfterCompute:
        return "dangling-after-compute";
    case ProgramIssue::Kind::BadPeer:
        return "bad-peer";
    case ProgramIssue::Kind::SelfMessage:
        return "self-message";
    case ProgramIssue::Kind::WaitOnUnknownMsg:
        return "wait-on-unknown-msg";
    case ProgramIssue::Kind::DuplicateSender:
        return "duplicate-sender";
    }
    return "?";
}

uint32_t
Program::labelId(const std::string& name)
{
    for (size_t i = 0; i < labels.size(); ++i)
        if (labels[i] == name)
            return static_cast<uint32_t>(i);
    labels.push_back(name);
    return static_cast<uint32_t>(labels.size() - 1);
}

uint64_t
ProgramBuilder::addCompute(size_t card, Tick duration, const OpCost& cost,
                           uint32_t label,
                           std::vector<uint64_t> wait_msgs)
{
    HYDRA_ASSERT(card < prog_.cardCount(), "card index out of range");
    uint64_t id = nextCompute_++;
    prog_.cards[card].compute.push_back(
        ComputeTask{id, duration, std::move(wait_msgs), cost, label});
    return id;
}

void
ProgramBuilder::addSend(size_t card, uint64_t msg, size_t dst,
                        uint64_t bytes, uint64_t after_compute)
{
    HYDRA_ASSERT(card < prog_.cardCount(), "card index out of range");
    HYDRA_ASSERT(dst == kBroadcast || dst < prog_.cardCount(),
                 "destination out of range");
    HYDRA_ASSERT(dst != card, "self-send");
    prog_.cards[card].comm.push_back(
        CommTask{CommTask::Kind::Send, msg, dst, bytes, after_compute});
}

void
ProgramBuilder::addRecv(size_t card, uint64_t msg, size_t src,
                        uint64_t bytes)
{
    HYDRA_ASSERT(card < prog_.cardCount() && src < prog_.cardCount(),
                 "card index out of range");
    HYDRA_ASSERT(src != card, "self-recv");
    prog_.cards[card].comm.push_back(
        CommTask{CommTask::Kind::Recv, msg, src, bytes, 0});
}

uint64_t
ProgramBuilder::sendTo(size_t src, size_t dst, uint64_t bytes,
                       uint64_t after_compute)
{
    uint64_t msg = newMsg();
    addSend(src, msg, dst, bytes, after_compute);
    addRecv(dst, msg, src, bytes);
    return msg;
}

uint64_t
ProgramBuilder::broadcastFrom(size_t src, uint64_t bytes,
                              uint64_t after_compute)
{
    uint64_t msg = newMsg();
    addSend(src, msg, kBroadcast, bytes, after_compute);
    for (size_t c = 0; c < prog_.cardCount(); ++c)
        if (c != src)
            addRecv(c, msg, src, bytes);
    return msg;
}

} // namespace hydra
