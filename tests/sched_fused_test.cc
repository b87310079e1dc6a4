/**
 * @file
 * Fused-queue scheduling tests (paper Section IV-D: multiple tasks
 * preloaded per card): fused execution is pinned bit for bit per
 * registry machine x benchmark, never slower than stepwise, and
 * conserves work.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "baselines/prototypes.hh"

namespace hydra {
namespace {

struct FusedPin
{
    const char* machine;
    const char* workload;
    uint64_t fingerprint;
};

/** RunStats::fingerprint of runFused for every registry machine x
 *  allBenchmarks(), captured when fused mode still lowered each step
 *  by hand into one shared program builder.  Compiling the whole
 *  workload as one multi-member unit must reproduce them exactly. */
const FusedPin kFusedPins[] = {
    {"hydra-s", "ResNet-18", 0x7dbf0b5082b96ca7ull},
    {"hydra-s", "ResNet-50", 0x336eca5b3fd187c7ull},
    {"hydra-s", "BERT-base", 0x8d0fed9d90034e38ull},
    {"hydra-s", "OPT-6.7B", 0x0d4a4db792070600ull},
    {"hydra-m", "ResNet-18", 0x78e288268cda0d94ull},
    {"hydra-m", "ResNet-50", 0x4478647da70dde51ull},
    {"hydra-m", "BERT-base", 0x52cb4f06bfc1f769ull},
    {"hydra-m", "OPT-6.7B", 0xf6fa83654cad6a52ull},
    {"hydra-l", "ResNet-18", 0xfaf46fa59f05ff95ull},
    {"hydra-l", "ResNet-50", 0x89d68a8e7abb51eeull},
    {"hydra-l", "BERT-base", 0xf622abca98b1bfa2ull},
    {"hydra-l", "OPT-6.7B", 0x892d52d516761e19ull},
    {"fab-s", "ResNet-18", 0x9e1e72d2b9c6d4e3ull},
    {"fab-s", "ResNet-50", 0x3e39215664c7f653ull},
    {"fab-s", "BERT-base", 0x97e3a62b1666526cull},
    {"fab-s", "OPT-6.7B", 0x63f21bf625154b58ull},
    {"fab-m", "ResNet-18", 0xc3a416734f26aec6ull},
    {"fab-m", "ResNet-50", 0x15d674c8651a3492ull},
    {"fab-m", "BERT-base", 0xbb64b68e0e5f4760ull},
    {"fab-m", "OPT-6.7B", 0xbd242f98e3d4dac6ull},
    {"fab-l", "ResNet-18", 0xef4a77e902b91974ull},
    {"fab-l", "ResNet-50", 0x89f51a93fb9d02f4ull},
    {"fab-l", "BERT-base", 0xfe95ebb200cb94d4ull},
    {"fab-l", "OPT-6.7B", 0xb00d26a9c24d75faull},
    {"poseidon", "ResNet-18", 0xf6dd1b9d005da91eull},
    {"poseidon", "ResNet-50", 0x033538855d7c55f2ull},
    {"poseidon", "BERT-base", 0x6c77ee7430f8980cull},
    {"poseidon", "OPT-6.7B", 0xeabf0beabbc18548ull},
};

TEST(Fused, FingerprintsArePinnedPerMachineAndWorkload)
{
    std::vector<WorkloadModel> wls = allBenchmarks();
    size_t checked = 0;
    for (const std::string& m : machineNames()) {
        InferenceRunner runner(machineByName(m));
        for (const WorkloadModel& wl : wls) {
            const FusedPin* pin = nullptr;
            for (const FusedPin& p : kFusedPins)
                if (m == p.machine && wl.name == p.workload)
                    pin = &p;
            ASSERT_NE(pin, nullptr) << m << " x " << wl.name;
            RunResult rr = runner.runFused(wl);
            ASSERT_TRUE(rr.ok()) << rr.error.message;
            EXPECT_EQ(rr.stats.fingerprint(), pin->fingerprint)
                << m << " x " << wl.name;
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(kFusedPins));
}

TEST(Fused, NeverSlowerThanStepwise)
{
    for (const auto& wl :
         {workloadByName("resnet20"), workloadByName("bert")}) {
        for (auto spec : {hydraMSpec(), hydraLSpec()}) {
            InferenceRunner runner(spec);
            Tick stepwise = runner.run(wl).total.makespan;
            Tick fused = runner.runFused(wl).stats.makespan;
            EXPECT_LE(fused, stepwise)
                << wl.name << " on " << spec.name;
        }
    }
}

TEST(Fused, SingleCardMatchesStepwiseCompute)
{
    // With one card there is no cross-card slack to reclaim; the fused
    // makespan equals the stepwise makespan minus the sync gaps.
    WorkloadModel wl = workloadByName("resnet20");
    InferenceRunner runner(hydraSSpec());
    InferenceResult stepwise = runner.run(wl);
    RunStats fused = runner.runFused(wl).stats;
    Tick busy_stepwise = 0;
    for (const auto& s : stepwise.steps)
        busy_stepwise += s.stats.computeBusy[0];
    EXPECT_EQ(fused.computeBusy[0], busy_stepwise);
    EXPECT_EQ(fused.makespan, fused.computeBusy[0]);
}

TEST(Fused, WorkIsConserved)
{
    WorkloadModel wl = workloadByName("resnet18");
    InferenceRunner runner(hydraMSpec());
    InferenceResult stepwise = runner.run(wl);
    RunStats fused = runner.runFused(wl).stats;
    Tick sw = 0, fu = 0;
    for (Tick t : stepwise.total.computeBusy)
        sw += t;
    for (Tick t : fused.computeBusy)
        fu += t;
    EXPECT_EQ(sw, fu);
    EXPECT_EQ(stepwise.total.netBytes, fused.netBytes);
}

TEST(Fused, Deterministic)
{
    WorkloadModel wl = workloadByName("bert");
    InferenceRunner runner(hydraLSpec());
    EXPECT_EQ(runner.runFused(wl).stats.makespan,
              runner.runFused(wl).stats.makespan);
}

} // namespace
} // namespace hydra
