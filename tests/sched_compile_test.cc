/**
 * @file
 * Schedule-compiler tests: the map+price -> optimize -> cache compiler
 * must keep the golden makespans of every registered machine x
 * workload pair and the pinned compiled-Program corpus bit for bit,
 * the Safe pass level must be tick-neutral (RunStats fingerprints),
 * Aggressive output must stay statically valid and executable (unit +
 * fuzz), and the shared ProgramCache must hit on repeated compiles
 * while keying on step content, not step names.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "baselines/prototypes.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sched/execplan.hh"
#include "sched/graph/modelspec.hh"
#include "sched/progcache.hh"
#include "sync/executor.hh"

namespace hydra {
namespace {

/**
 * Final ticks of every registered (machine, workload) pair, captured
 * on the direct step mapper before the compiler split.
 * The pipeline (and its Safe pass level) must reproduce these exactly.
 */
struct Golden
{
    const char* machine;
    const char* workload;
    uint64_t makespan;
};

const Golden kGoldens[] = {
    {"hydra-s", "resnet18", 52691418458776ull},
    {"hydra-s", "resnet50", 655834251580152ull},
    {"hydra-s", "bert", 408704936259736ull},
    {"hydra-s", "opt", 17637541280413872ull},
    {"hydra-s", "resnet20", 2220523528524ull},
    {"hydra-m", "resnet18", 6857565190612ull},
    {"hydra-m", "resnet50", 82584461339718ull},
    {"hydra-m", "bert", 53122397900053ull},
    {"hydra-m", "opt", 2214560898140687ull},
    {"hydra-m", "resnet20", 1040746374372ull},
    {"hydra-l", "resnet18", 2931152948723ull},
    {"hydra-l", "resnet50", 12441962309636ull},
    {"hydra-l", "bert", 9928055869936ull},
    {"hydra-l", "opt", 282793641201986ull},
    {"hydra-l", "resnet20", 4074712084371ull},
    {"fab-s", "resnet18", 152047346888172ull},
    {"fab-s", "resnet50", 1940709169586428ull},
    {"fab-s", "bert", 1213166176400924ull},
    {"fab-s", "opt", 52860947277381752ull},
    {"fab-s", "resnet20", 6303837625832ull},
    {"fab-m", "resnet18", 22672157922188ull},
    {"fab-m", "resnet50", 258872566044188ull},
    {"fab-m", "bert", 159294942125964ull},
    {"fab-m", "opt", 6640184078890908ull},
    {"fab-m", "resnet20", 4427843626920ull},
    {"fab-l", "resnet18", 56571113009520ull},
    {"fab-l", "resnet50", 286750963399388ull},
    {"fab-l", "bert", 53553936749234ull},
    {"fab-l", "opt", 945129268191504ull},
    {"fab-l", "resnet20", 43111632301050ull},
    {"poseidon", "resnet18", 78696081052797ull},
    {"poseidon", "resnet50", 937303258235333ull},
    {"poseidon", "bert", 545952360060732ull},
    {"poseidon", "opt", 23013800065115272ull},
    {"poseidon", "resnet20", 3367559216914ull},
};

TEST(CompileGolden, EveryMachineWorkloadPairKeepsItsTicks)
{
    for (const Golden& g : kGoldens) {
        InferenceRunner runner(machineByName(g.machine));
        InferenceResult res = runner.run(workloadByName(g.workload));
        ASSERT_TRUE(res.ok()) << g.machine << "/" << g.workload;
        EXPECT_EQ(res.total.makespan, g.makespan)
            << g.machine << "/" << g.workload;
    }
}

/** Compile/executor fixture for one (machine, workload). */
struct Rig
{
    PrototypeSpec spec;
    WorkloadModel wl;
    OpCostModel cost;
    std::unique_ptr<NetworkModel> net;
    ClusterExecutor ex;

    Rig(const char* machine, const char* workload)
        : spec(machineByName(machine)), wl(workloadByName(workload)),
          cost(spec.fpga, size_t{1} << 16, spec.dnum),
          net(spec.makeNetwork()), ex(spec.cluster, *net)
    {
    }

    CompiledStep
    compile(const Step& step, OptLevel level)
    {
        return compileUnit(cost, *net, spec.cluster.totalCards(),
                           wl.logSlots, spec.mapping, {&step, 1}, level);
    }
};

TEST(CompilePipeline, SafeLevelIsTickNeutralPerStep)
{
    for (const char* machine : {"hydra-m", "fab-m", "poseidon"}) {
        Rig rig(machine, "resnet20");
        for (const auto& step : rig.wl.steps) {
            RunStats none =
                rig.ex.run(rig.compile(step, OptLevel::None).program);
            RunStats safe =
                rig.ex.run(rig.compile(step, OptLevel::Safe).program);
            EXPECT_EQ(none.fingerprint(), safe.fingerprint())
                << machine << " step " << step.name;
        }
    }
}

TEST(CompilePipeline, AggressiveOutputValidatesAndExecutes)
{
    for (const char* machine : {"hydra-m", "fab-m"}) {
        Rig rig(machine, "resnet20");
        for (const auto& step : rig.wl.steps) {
            CompiledStep cs = rig.compile(step, OptLevel::Aggressive);
            EXPECT_TRUE(cs.program.validate().empty())
                << machine << " step " << step.name;
            RunResult rr = rig.ex.tryRun(cs.program);
            EXPECT_TRUE(rr.ok()) << rr.error.message;
        }
    }
}

TEST(ProgramCacheTest, SecondRunHitsEveryStep)
{
    ProgramCache& cache = ProgramCache::global();
    cache.clear();
    cache.resetStats();

    InferenceRunner runner(machineByName("hydra-m"));
    WorkloadModel wl = workloadByName("resnet18");
    runner.run(wl);
    ProgramCache::Stats first = cache.stats();
    EXPECT_GT(first.misses, 0u);
    // Repeated identical layers share entries: fewer compiles than
    // steps.
    EXPECT_LT(first.entries, wl.steps.size());
    EXPECT_EQ(first.hits + first.misses, wl.steps.size());

    runner.run(wl);
    ProgramCache::Stats second = cache.stats();
    EXPECT_EQ(second.misses, first.misses);
    EXPECT_EQ(second.hits, first.hits + wl.steps.size());
    EXPECT_GT(second.hitRate(), 0.5);
}

TEST(ProgramCacheTest, RunAndRunJobShareEntries)
{
    ProgramCache& cache = ProgramCache::global();
    cache.clear();
    cache.resetStats();

    PrototypeSpec spec = machineByName("hydra-m");
    InferenceRunner runner(spec);
    WorkloadModel wl = workloadByName("resnet20");
    runner.run(wl);
    ProgramCache::Stats after_run = cache.stats();

    // A whole-machine job group maps to the same sub-spec as run(), so
    // runJob compiles nothing new.
    CardGroup all =
        CardGroup::contiguous(0, spec.cluster.totalCards());
    InferenceResult res =
        runner.runJob(*runner.planForJob(wl, all), all, 0);
    ASSERT_TRUE(res.ok());
    ProgramCache::Stats after_job = cache.stats();
    EXPECT_EQ(after_job.misses, after_run.misses);
    EXPECT_EQ(after_job.entries, after_run.entries);
    EXPECT_GE(after_job.hits, after_run.hits + wl.steps.size());
}

TEST(ProgramCacheTest, KeyTracksContentNotName)
{
    PrototypeSpec spec = machineByName("hydra-m");
    WorkloadModel wl = workloadByName("resnet20");
    Step a = wl.steps[0];
    Step b = a;
    b.name = "renamed_step";
    auto key = [&](const PrototypeSpec& m, const ClusterConfig& exec,
                   const Step& st, OptLevel lv) {
        return unitKey(m, exec, m.cluster, size_t{1} << 16, wl.logSlots,
                       {&st, 1}, lv);
    };
    const OptLevel safe = OptLevel::Safe;
    std::string ka = key(spec, spec.cluster, a, safe);
    EXPECT_EQ(ka, key(spec, spec.cluster, b, safe));

    b.limbs += 1;
    EXPECT_NE(ka, key(spec, spec.cluster, b, safe));

    // Shrunken executing cluster (degraded re-dispatch) re-keys.
    ClusterConfig degraded{1, spec.cluster.totalCards() - 1};
    EXPECT_NE(ka, key(spec, degraded, a, safe));

    // Pass level re-keys.
    EXPECT_NE(ka, key(spec, spec.cluster, a, OptLevel::Aggressive));

    // A different machine re-keys even with equal geometry.
    PrototypeSpec other = spec;
    other.fpga.clockHz *= 2.0;
    EXPECT_NE(ka, key(other, other.cluster, a, safe));

    // A multi-step unit keys on every member in order; a one-step
    // unit's key is the machine half plus that step's content.
    std::vector<Step> pair = {wl.steps[0], wl.steps[1]};
    std::vector<Step> swapped = {wl.steps[1], wl.steps[0]};
    std::string kp = unitKey(spec, spec.cluster, spec.cluster,
                             size_t{1} << 16, wl.logSlots, pair);
    EXPECT_NE(kp, unitKey(spec, spec.cluster, spec.cluster,
                          size_t{1} << 16, wl.logSlots, swapped));
    EXPECT_EQ(ka, machineCacheKey(spec, spec.cluster, spec.cluster,
                                  size_t{1} << 16, wl.logSlots) +
                      stepContentKey(a));
}

// ---------------------------------------------------------------------------
// Pinned compiled-Program corpus.  RunStats fingerprints only see the
// summed OpCost; these hashes cover every field of every compiled
// Program (labels, each compute task's id, duration, waits, label and
// OpCost, each comm task) plus the optimizer's pass deltas, so any
// change to the mapper, the pricing or the passes shows up here.

/** FNV-1a over compiled programs, plans and optimizer reports. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    byte(uint8_t b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    str(const std::string& s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }

    void
    counts(const ProgramCounts& c)
    {
        for (uint64_t v : {c.computeTasks, c.sends, c.recvs, c.messages,
                           c.bytes, c.maxComputeDepth, c.maxCommDepth})
            u64(v);
    }

    void
    compiled(const CompiledStep& cs)
    {
        const Program& p = cs.program;
        u64(p.labels.size());
        for (const std::string& l : p.labels)
            str(l);
        u64(p.cards.size());
        for (const CardProgram& card : p.cards) {
            u64(card.compute.size());
            for (const ComputeTask& t : card.compute) {
                u64(t.id);
                u64(t.duration);
                u64(t.waitMsgs.size());
                for (uint64_t m : t.waitMsgs)
                    u64(m);
                u64(t.label);
                u64(t.cost.cycles);
                u64(t.cost.hbmBytes);
                for (uint64_t x : t.cost.cuOps)
                    u64(x);
                u64(t.cost.limbs);
            }
            u64(card.comm.size());
            for (const CommTask& t : card.comm) {
                u64(static_cast<uint64_t>(t.kind));
                u64(t.msg);
                u64(t.peer);
                u64(t.bytes);
                u64(t.afterCompute);
            }
        }
        const OptReport& r = cs.report;
        u64(static_cast<uint64_t>(r.level));
        counts(r.before);
        counts(r.after);
        u64(r.passes.size());
        for (const PassDelta& d : r.passes) {
            str(d.pass);
            counts(d.before);
            counts(d.after);
            u64(d.changes);
        }
    }

    void
    plan(const ExecPlan& p)
    {
        str(p.key);
        u64(p.units.size());
        for (const ExecUnit& u : p.units) {
            u64(static_cast<uint64_t>(u.kind));
            str(u.name);
            u64(static_cast<uint64_t>(u.lead));
            u64(u.steps.size());
            compiled(*u.compiled);
        }
        const NetOptReport& r = p.report;
        for (uint64_t v : {r.bootsElided, r.bootsMerged, r.relevelled,
                           r.fusedSteps, r.prefetchedBoundaries,
                           static_cast<uint64_t>(r.modeledBootSavings)})
            u64(v);
    }
};

std::string
hex(uint64_t v)
{
    return strf("0x%016llxull", static_cast<unsigned long long>(v));
}

/** Per-step compiles at each level, plus the whole-workload program
 *  runFused preloads, for one (machine, benchmark). */
struct StepPin
{
    const char* machine;
    const char* workload;
    uint64_t none, safe, aggressive, fused;
};

const StepPin kStepPins[] = {
    {"hydra-s", "ResNet-18", 0xf1e0c5c0661e458aull,
     0x7d8a0f0396178bd0ull, 0x161df377ced3fcf6ull, 0xa9b7505ca268605eull},
    {"hydra-s", "ResNet-50", 0x103b7ad1554a8821ull,
     0xfb8b6f86946078e3ull, 0x454d55adfefcf3a9ull, 0x49007e71a257721bull},
    {"hydra-s", "BERT-base", 0x9c70cc17bf1a11eaull,
     0xf946cb2fb03087d8ull, 0xddb671a07589b5ceull, 0xedea0f25c9eaae84ull},
    {"hydra-s", "OPT-6.7B", 0xf5bb17bab73b2ad3ull,
     0xcd6cfb1a2819451dull, 0x2baf4ba966e886cfull, 0x4f9f1f21b077d7faull},
    {"hydra-m", "ResNet-18", 0x2c4b43776cd04385ull,
     0x2a50f2cecde06c51ull, 0x39d25e0df6459139ull, 0xc5f62f7e9d377708ull},
    {"hydra-m", "ResNet-50", 0x26ea6d000d491ae2ull,
     0x536c752884c2cf88ull, 0x8214d468d65ddaf6ull, 0x4881b641817f8452ull},
    {"hydra-m", "BERT-base", 0x67d330102e96b0deull,
     0x47bdd6207d52d654ull, 0xa5f7a54eb5e6a8eeull, 0x6b902ba8974efbc9ull},
    {"hydra-m", "OPT-6.7B", 0xe7deba6fd3b8ca0bull,
     0xa6523f849327a8d1ull, 0x317fd266fbc912bbull, 0xa9c34c2b3d19d85eull},
    {"hydra-l", "ResNet-18", 0xfeb24697c6c5e3cbull,
     0xea270b1c0d8aaebdull, 0xd487e90b1c71e2eaull, 0xcc4ae822bcf7ba16ull},
    {"hydra-l", "ResNet-50", 0x953fe6c78c63421dull,
     0xf7687fc5b8fac345ull, 0xbaf0281428c6b943ull, 0x7aec649857ec84a7ull},
    {"hydra-l", "BERT-base", 0xc86bae580078ad12ull,
     0x862a0184ad94a75cull, 0x865c70f540f3bb17ull, 0x1b5e0db465633dfaull},
    {"hydra-l", "OPT-6.7B", 0x13b17c33d0668294ull,
     0xf97e977a68e2a742ull, 0xd214f493668c52d1ull, 0x7bc08cb57b80d21dull},
    {"fab-s", "ResNet-18", 0x748bf5e9bc29463cull,
     0x1aa0fd51c2f3a3fcull, 0x44ec51932257bde8ull, 0xadd8c3fb64cbd4f2ull},
    {"fab-s", "ResNet-50", 0x4c92a35af47a5ee9ull,
     0xad2454aea630d310ull, 0x6281ca94965a94acull, 0x8a1f795a14322fc5ull},
    {"fab-s", "BERT-base", 0x429592f37f9e6f66ull,
     0x87b3d3da48eca5eeull, 0x0a7b0eb07192e0aaull, 0x22c8c7dbdbe3bd14ull},
    {"fab-s", "OPT-6.7B", 0x850b4a2f2d07de56ull,
     0x2c74632a3ae747e6ull, 0xd457392d73aa59deull, 0x9f35aad95a089f6bull},
    {"fab-m", "ResNet-18", 0xcfd8acae7e262df2ull,
     0x8bf967bb78b5f422ull, 0xff345439d3263502ull, 0xd9f29a7bb74d5f57ull},
    {"fab-m", "ResNet-50", 0x4416ee54860d9de9ull,
     0x73b6f4024cd519f4ull, 0x3ff4fca86eb0c052ull, 0x843c440a43e6dc05ull},
    {"fab-m", "BERT-base", 0x3ae71f5f1946f3c4ull,
     0x41294cd8b7d17188ull, 0x0ad4925ce478213cull, 0xfb26ff58a2ad3f7full},
    {"fab-m", "OPT-6.7B", 0x3aadf3e835568c9dull,
     0xbda4d923ba0746f1ull, 0x051c04b75aa80569ull, 0xbbe7db5386ac063cull},
    {"fab-l", "ResNet-18", 0xeaee88ad2fa21e3eull,
     0x8102d096b2613cd2ull, 0x52e6aebc15912bb1ull, 0x7f16dbc9f0c850b3ull},
    {"fab-l", "ResNet-50", 0xeaa96894762171b6ull,
     0x38dfb673c97ad407ull, 0x58ba2d00888729c9ull, 0x84a696df08863804ull},
    {"fab-l", "BERT-base", 0x8bc3d07541970584ull,
     0x05b06cd003cebb80ull, 0x86e46f541bed5341ull, 0xd44688e3ee5d6cf0ull},
    {"fab-l", "OPT-6.7B", 0xec5d3296b4ba940aull,
     0xaaf8ca8e236a10ceull, 0xb522f0f4a6290ccfull, 0x7a0f46df86438003ull},
    {"poseidon", "ResNet-18", 0x8f5d5d8ca5ea26d6ull,
     0x2c0447507093440aull, 0xc947ac0378d61e2eull, 0xc6d4ba1cd0d4e336ull},
    {"poseidon", "ResNet-50", 0x71189f1e2d4a5e6bull,
     0xc91ea38b4e6b3143ull, 0xe427bec5b54dfe47ull, 0x6757723e518cb57bull},
    {"poseidon", "BERT-base", 0xf87029391bd36380ull,
     0xafa42fb0a9837096ull, 0x5b27e1eea711aa54ull, 0x9f8f66f780723a06ull},
    {"poseidon", "OPT-6.7B", 0x0999c091d087ad3cull,
     0xfff651a020102deaull, 0xe629f9ccca9e70f0ull, 0xe323020408a47649ull},
};

/** compilePlan at Safe and Aggressive, unit shapes included. */
struct PlanPin
{
    const char* machine;
    const char* model;
    uint64_t safe, aggressive;
};

const PlanPin kPlanPins[] = {
    {"hydra-s", "resnet18", 0x047956b8ed01eca5ull, 0x8695bc65827c1ea5ull},
    {"hydra-s", "resnet50", 0xc15cd7852ae619b1ull, 0xbd4ee1a50d69b27full},
    {"hydra-s", "bert", 0x89069d9be5974f25ull, 0x33bcc090f2955e28ull},
    {"hydra-s", "opt", 0xd703a14cb0d27df0ull, 0xf30f2821e122419cull},
    {"hydra-s", "resnet20", 0xbc85a2cc60ee3bc9ull, 0xf1244f7d44c1c765ull},
    {"hydra-s", "mlp3", 0xbb191f618b92e771ull, 0x89e98291a14e247dull},
    {"hydra-m", "resnet18", 0x2f0fcf7f867c01a8ull, 0x49905373858f7a96ull},
    {"hydra-m", "resnet50", 0xccd1f7b7329cbee8ull, 0x21680a34c11f3c48ull},
    {"hydra-m", "bert", 0xd24a06a52d34ef6dull, 0x6c19701454f50a17ull},
    {"hydra-m", "opt", 0xe7f87cdb7e7ddd24ull, 0x3c14d39b5960c310ull},
    {"hydra-m", "resnet20", 0x530624318266d094ull, 0x8fbd3f209b193495ull},
    {"hydra-m", "mlp3", 0x9e6c5df788dd3a57ull, 0x33de6c8158dd64d4ull},
    {"hydra-l", "resnet18", 0x698e3feb9a85badbull, 0x997d1fe272cdc6f7ull},
    {"hydra-l", "resnet50", 0xa921247f326e2f00ull, 0x31865786bcea695eull},
    {"hydra-l", "bert", 0xcf8e0bd120dd0748ull, 0x31d6fadaee758ebdull},
    {"hydra-l", "opt", 0xff080c112e6b8a96ull, 0x7cbb6affd1f00f5aull},
    {"hydra-l", "resnet20", 0x7444180fca7b902dull, 0xcab7656f282ec19eull},
    {"hydra-l", "mlp3", 0x7b3d633bec97502cull, 0x9971b3dcb515685bull},
    {"fab-s", "resnet18", 0xb199415082b1940cull, 0x6502ab7bbdfec4bbull},
    {"fab-s", "resnet50", 0x5b450f338a931879ull, 0x4cf5684f6f272aa0ull},
    {"fab-s", "bert", 0xd3a7a2969aacf7c2ull, 0x1d0f15f2306ba9f7ull},
    {"fab-s", "opt", 0x44de7f9375c355f8ull, 0xd0d4a98c88f6c0c1ull},
    {"fab-s", "resnet20", 0xa0b80b339236d334ull, 0xa98ec5ee0dd9a71dull},
    {"fab-s", "mlp3", 0xb43c3b18b398935full, 0x7db02fb3c35b80b8ull},
    {"fab-m", "resnet18", 0x9c88e63aef954c6aull, 0xa8b7719c780f2cbaull},
    {"fab-m", "resnet50", 0xde2305c43c58a7a7ull, 0x7ce28eceb36b334bull},
    {"fab-m", "bert", 0x23193ea63811a3ecull, 0x1b578ee916e1b310ull},
    {"fab-m", "opt", 0xd4c97e6f6f5d0d97ull, 0xa611594b8938b98bull},
    {"fab-m", "resnet20", 0x473165747ebfbd0dull, 0x550d02caa8ee93fbull},
    {"fab-m", "mlp3", 0x084a42502da1bb01ull, 0xe878fd0f6d54b154ull},
    {"fab-l", "resnet18", 0x1e34af54a10fade1ull, 0x47fe2a2f3283436aull},
    {"fab-l", "resnet50", 0xdebd9f01bebf6af3ull, 0x14348658640e51cdull},
    {"fab-l", "bert", 0x13bc1f5fbd5c8455ull, 0x60c9cd9d8053526full},
    {"fab-l", "opt", 0x6aa955644da77561ull, 0x5eee9957c3707b0dull},
    {"fab-l", "resnet20", 0x5ee5217c242d1c40ull, 0x8aad24588811fb97ull},
    {"fab-l", "mlp3", 0x38db3eb807d1ba44ull, 0x9fc45eb6134e3267ull},
    {"poseidon", "resnet18", 0x274e28343e754742ull, 0xcddc768f0f960d0bull},
    {"poseidon", "resnet50", 0xe79998761474f594ull, 0x422f7aac0febc31aull},
    {"poseidon", "bert", 0x6dc5000576bdd5a8ull, 0x9787416d3e2a4e62ull},
    {"poseidon", "opt", 0x56ef238a5b135914ull, 0x996fc59cf465f38bull},
    {"poseidon", "resnet20", 0xe1678c0b8473877eull, 0x6b4ca5915f6c3f8cull},
    {"poseidon", "mlp3", 0x7ed7a0d237b8e9a4ull, 0xac205540e23b1330ull},
};

/** Degraded and ragged shapes: a 3-card ragged group's plans and every
 *  unit recompiled for the n-1 survivors under the machine network. */
struct ShapePin
{
    const char* machine;
    const char* workload;
    uint64_t ragged, survivors;
};

const ShapePin kShapePins[] = {
    {"hydra-m", "ResNet-18", 0x24bc3ad427e6d8b3ull, 0xbad2067886c5cbb1ull},
    {"hydra-m", "ResNet-50", 0xf353e05a24b1eb12ull, 0xf555f3f4a6a71c4cull},
    {"hydra-m", "BERT-base", 0x4b9b0112b39d7618ull, 0x7605f9b2bdcbc14bull},
    {"hydra-m", "OPT-6.7B", 0xfc601f0bf5d46949ull, 0x8fad77f5fbbed664ull},
    {"hydra-l", "ResNet-18", 0xf4aa03f377fbdd75ull, 0x8664b001475be875ull},
    {"hydra-l", "ResNet-50", 0x60ca84aaec13d880ull, 0xa2f9902abd64329aull},
    {"hydra-l", "BERT-base", 0xbc7d6fd51fe360b6ull, 0xbc39fd8f4033c589ull},
    {"hydra-l", "OPT-6.7B", 0x145377f5e65d5ef7ull, 0xc089c6e12d9ad73cull},
    {"fab-m", "ResNet-18", 0xf0e699707014b7ceull, 0x1e434383b1fc1640ull},
    {"fab-m", "ResNet-50", 0x38a6937bd3dfd624ull, 0x4e7c68bd89bdcb54ull},
    {"fab-m", "BERT-base", 0x273cec204037d53eull, 0xa5dcb99a0f7be441ull},
    {"fab-m", "OPT-6.7B", 0xdc9f883ce8f213f3ull, 0xce21ddf65f6bea70ull},
};

TEST(CompileCorpus, ProgramsArePinned)
{
    ProgramCache& cache = ProgramCache::global();
    cache.clear();
    cache.resetStats();
    const OptLevel planLevels[] = {OptLevel::Safe, OptLevel::Aggressive};

    // Every step at every level, uncached, and the fused program.
    std::vector<WorkloadModel> benches = allBenchmarks();
    size_t checked = 0;
    for (const std::string& m : machineNames()) {
        PrototypeSpec spec = machineByName(m);
        OpCostModel cost(spec.fpga, size_t{1} << 16, spec.dnum);
        std::unique_ptr<NetworkModel> net = spec.makeNetwork();
        size_t cards = spec.cluster.totalCards();
        for (const WorkloadModel& wl : benches) {
            uint64_t got[3];
            const OptLevel levels[] = {OptLevel::None, OptLevel::Safe,
                                       OptLevel::Aggressive};
            for (size_t li = 0; li < 3; ++li) {
                Fnv f;
                for (const Step& s : wl.steps)
                    f.compiled(compileUnit(cost, *net, cards, wl.logSlots,
                                           spec.mapping, {&s, 1},
                                           levels[li]));
                got[li] = f.h;
            }
            Fnv fused;
            fused.compiled(*cachedUnit(spec, spec.cluster, spec.cluster,
                                       cost, *net, wl.logSlots, wl.steps,
                                       OptLevel::None));
            std::string row = strf("    {\"%s\", \"%s\", %s, %s, %s, %s},",
                                   m.c_str(), wl.name.c_str(),
                                   hex(got[0]).c_str(), hex(got[1]).c_str(),
                                   hex(got[2]).c_str(),
                                   hex(fused.h).c_str());
            const StepPin* pin = nullptr;
            for (const StepPin& p : kStepPins)
                if (m == p.machine && wl.name == p.workload)
                    pin = &p;
            if (!pin) {
                ADD_FAILURE() << row;
                continue;
            }
            EXPECT_EQ(got[0], pin->none) << row;
            EXPECT_EQ(got[1], pin->safe) << row;
            EXPECT_EQ(got[2], pin->aggressive) << row;
            EXPECT_EQ(fused.h, pin->fused) << row;
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(kStepPins));

    // Every declarative model through compilePlan, materialized.
    checked = 0;
    for (const std::string& m : machineNames()) {
        PrototypeSpec spec = machineByName(m);
        OpCostModel cost(spec.fpga, size_t{1} << 16, spec.dnum);
        std::unique_ptr<NetworkModel> net = spec.makeNetwork();
        for (const std::string& model : modelSpecNames()) {
            NetworkGraph g = modelGraphByName(model);
            uint64_t got[2];
            for (size_t li = 0; li < 2; ++li) {
                Fnv f;
                f.plan(compilePlan(spec, cost, *net, g, planLevels[li]));
                got[li] = f.h;
            }
            std::string row = strf("    {\"%s\", \"%s\", %s, %s},",
                                   m.c_str(), model.c_str(),
                                   hex(got[0]).c_str(),
                                   hex(got[1]).c_str());
            const PlanPin* pin = nullptr;
            for (const PlanPin& p : kPlanPins)
                if (m == p.machine && model == p.model)
                    pin = &p;
            if (!pin) {
                ADD_FAILURE() << row;
                continue;
            }
            EXPECT_EQ(got[0], pin->safe) << row;
            EXPECT_EQ(got[1], pin->aggressive) << row;
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(kPlanPins));

    // A ragged 3-card group (flat sub-machine) and the n-1 survivor
    // shape of degraded re-dispatch (machine network, smaller cluster).
    checked = 0;
    for (const char* m : {"hydra-m", "hydra-l", "fab-m"}) {
        PrototypeSpec spec = machineByName(m);
        OpCostModel cost(spec.fpga, size_t{1} << 16, spec.dnum);
        std::unique_ptr<NetworkModel> net = spec.makeNetwork();
        PrototypeSpec sub = groupSubSpec(spec, CardGroup{{1, 2, 4}});
        std::unique_ptr<NetworkModel> subNet = sub.makeNetwork();
        ClusterConfig survivors{1, spec.cluster.totalCards() - 1};
        for (const WorkloadModel& wl : benches) {
            Fnv ragged, degraded;
            for (OptLevel lv : planLevels) {
                ragged.plan(compilePlan(sub, cost, *subNet, wl, lv));
                ExecPlan plan = compilePlan(spec, cost, *net, wl, lv,
                                            PlanWindow::none());
                for (const ExecUnit& u : plan.units)
                    degraded.compiled(*cachedUnit(
                        spec, survivors, spec.cluster, cost, *net,
                        plan.logSlots, u.steps, lv));
            }
            std::string row = strf("    {\"%s\", \"%s\", %s, %s},", m,
                                   wl.name.c_str(),
                                   hex(ragged.h).c_str(),
                                   hex(degraded.h).c_str());
            const ShapePin* pin = nullptr;
            for (const ShapePin& p : kShapePins)
                if (std::string(m) == p.machine && wl.name == p.workload)
                    pin = &p;
            if (!pin) {
                ADD_FAILURE() << row;
                continue;
            }
            EXPECT_EQ(ragged.h, pin->ragged) << row;
            EXPECT_EQ(degraded.h, pin->survivors) << row;
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(kShapePins));

    // The key scheme decides what this fixed sequence shares.
    ProgramCache::Stats st = cache.stats();
    EXPECT_EQ(st.hits, 13263u);
    EXPECT_EQ(st.misses, 1585u);
    EXPECT_EQ(st.entries, 1585u);
    EXPECT_EQ(st.evictions, 0u);
}

/** Minimal configurable network for the synthetic pass tests. */
class PassNetwork : public NetworkModel
{
  public:
    explicit PassNetwork(bool overlaps) : overlaps_(overlaps) {}

    std::unique_ptr<NetworkModel>
    clone() const override
    {
        return std::make_unique<PassNetwork>(*this);
    }

    Tick
    transferTime(uint64_t b, size_t, size_t) const override
    {
        return 100 + 3 * b;
    }

    Tick
    broadcastTime(uint64_t b, size_t, size_t) const override
    {
        return 150 + 3 * b;
    }

    Tick setupLatency() const override { return 20; }
    bool overlapsCompute() const override { return overlaps_; }
    Tick stepSyncLatency() const override { return 0; }

  private:
    bool overlaps_;
};

TEST(Passes, CanonicalOrderSortsFreeRunsAndStaysTickNeutral)
{
    ProgramBuilder pb(2);
    uint32_t la = pb.label("a");
    uint32_t lb = pb.label("b");
    // Card 0: b, a, b, a — all dependency-free, one maximal run.
    pb.addCompute(0, 10, OpCost{}, lb);
    pb.addCompute(0, 20, OpCost{}, la);
    pb.addCompute(0, 30, OpCost{}, lb);
    pb.addCompute(0, 40, OpCost{}, la);
    pb.addCompute(1, 5, OpCost{}, la);
    Program prog = pb.take();

    PassNetwork net(true);
    ClusterExecutor ex(ClusterConfig{1, 2}, net);
    uint64_t before = ex.run(prog).fingerprint();

    OptReport report;
    Program opt = optimizeProgram(prog, OptLevel::Safe, true, &report);
    ASSERT_EQ(report.passes.size(), 1u);
    EXPECT_EQ(report.passes[0].pass, "canonical-order");
    EXPECT_GT(report.passes[0].changes, 0u);
    std::vector<uint32_t> labels;
    for (const auto& t : opt.cards[0].compute)
        labels.push_back(t.label);
    EXPECT_EQ(labels, (std::vector<uint32_t>{la, la, lb, lb}));
    EXPECT_EQ(ex.run(opt).fingerprint(), before);
}

TEST(Passes, CanonicalOrderRespectsAnchorsAndWaits)
{
    ProgramBuilder pb(2);
    uint32_t la = pb.label("a");
    uint32_t lb = pb.label("b");
    uint64_t anchor = pb.addCompute(0, 10, OpCost{}, lb);
    uint64_t msg = pb.sendTo(0, 1, 64, anchor);
    pb.addCompute(0, 20, OpCost{}, la);
    pb.addCompute(1, 5, OpCost{}, lb, {msg});
    pb.addCompute(1, 5, OpCost{}, la);
    Program prog = pb.take();

    Program opt = optimizeProgram(prog, OptLevel::Safe, true);
    // The anchored b-task cannot swap with the later a-task, and card
    // 1's waiting task breaks its run: both queues keep their order.
    EXPECT_EQ(opt.cards[0].compute[0].label, lb);
    EXPECT_EQ(opt.cards[1].compute[0].label, lb);
}

TEST(Passes, SafeIsIdentityOnHostMediatedNetworks)
{
    ProgramBuilder pb(1);
    uint32_t lb = pb.label("b");
    uint32_t la = pb.label("a");
    pb.addCompute(0, 10, OpCost{}, lb);
    pb.addCompute(0, 20, OpCost{}, la);
    OptReport report;
    Program opt = optimizeProgram(pb.take(), OptLevel::Safe, false,
                                  &report);
    EXPECT_TRUE(report.passes.empty());
    EXPECT_EQ(opt.cards[0].compute[0].label, lb);
}

TEST(Passes, DeadTransferEliminationDropsUnwaitedZeroByteMsgs)
{
    ProgramBuilder pb(2);
    uint32_t l = pb.label("x");
    uint64_t p = pb.addCompute(0, 10, OpCost{}, l);
    pb.sendTo(0, 1, 0, p);             // dead: zero bytes, never waited
    uint64_t live = pb.sendTo(0, 1, 0, p); // zero bytes but waited
    pb.addCompute(1, 5, OpCost{}, l, {live});
    Program prog = pb.take();

    OptReport report;
    Program opt = optimizeProgram(prog, OptLevel::Aggressive, true,
                                  &report);
    ProgramCounts c = countProgram(opt);
    EXPECT_EQ(c.sends, 1u);
    EXPECT_EQ(c.recvs, 1u);
    EXPECT_TRUE(opt.validate().empty());
    PassNetwork net(true);
    ClusterExecutor ex(ClusterConfig{1, 2}, net);
    EXPECT_TRUE(ex.tryRun(opt).ok());
}

TEST(Passes, BroadcastCoalesceMergesAdjacentSameAnchor)
{
    ProgramBuilder pb(3);
    uint32_t l = pb.label("x");
    uint64_t p = pb.addCompute(0, 10, OpCost{}, l);
    uint64_t m1 = pb.broadcastFrom(0, 100, p);
    uint64_t m2 = pb.broadcastFrom(0, 28, p);
    pb.addCompute(1, 5, OpCost{}, l, {m1, m2});
    pb.addCompute(2, 5, OpCost{}, l, {m2});
    Program prog = pb.take();

    OptReport report;
    Program opt = optimizeProgram(prog, OptLevel::Aggressive, true,
                                  &report);
    ProgramCounts c = countProgram(opt);
    EXPECT_EQ(c.sends, 1u);
    EXPECT_EQ(c.messages, 1u);
    EXPECT_EQ(c.bytes, 128u);
    // Waits on the merged message collapse to the survivor, deduped.
    EXPECT_EQ(opt.cards[1].compute[0].waitMsgs,
              (std::vector<uint64_t>{m1}));
    EXPECT_EQ(opt.cards[2].compute[0].waitMsgs,
              (std::vector<uint64_t>{m1}));
    EXPECT_TRUE(opt.validate().empty());
    PassNetwork net(true);
    ClusterExecutor ex(ClusterConfig{1, 3}, net);
    EXPECT_TRUE(ex.tryRun(opt).ok());
}

TEST(Passes, StallHoistMovesFreeComputeAheadOfWaiters)
{
    ProgramBuilder pb(2);
    uint32_t l = pb.label("x");
    uint64_t p = pb.addCompute(0, 1000, OpCost{}, l);
    uint64_t msg = pb.sendTo(0, 1, 64, p);
    uint64_t waiter = pb.addCompute(1, 5, OpCost{}, l, {msg});
    uint64_t free1 = pb.addCompute(1, 7, OpCost{}, l);
    uint64_t free2 = pb.addCompute(1, 9, OpCost{}, l);
    Program prog = pb.take();

    OptReport report;
    Program opt = optimizeProgram(prog, OptLevel::Aggressive, true,
                                  &report);
    std::vector<uint64_t> order;
    for (const auto& t : opt.cards[1].compute)
        order.push_back(t.id);
    EXPECT_EQ(order, (std::vector<uint64_t>{free1, free2, waiter}));
    PassNetwork net(true);
    ClusterExecutor ex(ClusterConfig{1, 2}, net);
    RunResult rr = ex.tryRun(opt);
    ASSERT_TRUE(rr.ok());
    // The hoisted tasks fill the stall: card 1 now computes while the
    // producer runs, so its makespan is bounded by producer + transfer
    // + waiter rather than adding the free tasks at the end.
    EXPECT_LE(rr.stats.makespan,
              ex.tryRun(prog).stats.makespan);
}

/** Random deadlock-free program in the sync_fuzz_test style. */
Program
randomProgram(size_t cards, uint64_t seed)
{
    Rng rng(seed);
    ProgramBuilder pb(cards);
    uint32_t labels[3] = {pb.label("f0"), pb.label("f1"),
                          pb.label("f2")};
    std::vector<uint64_t> last(cards, 0);
    for (size_t c = 0; c < cards; ++c)
        last[c] = pb.addCompute(c, 10 + rng.uniformU64(100), OpCost{},
                                labels[rng.uniformU64(3)]);
    // (msg, source) of every broadcast: a card may wait only on
    // broadcasts it actually receives, i.e. from another source.
    std::vector<std::pair<uint64_t, size_t>> bcasts;
    for (size_t m = 0; m < 30; ++m) {
        size_t src = rng.uniformU64(cards);
        if (rng.uniformU64(3) == 0) {
            bcasts.emplace_back(
                pb.broadcastFrom(src,
                                 rng.uniformU64(3) == 0
                                     ? 0
                                     : 1 + rng.uniformU64(500),
                                 last[src]),
                src);
        } else {
            size_t dst = rng.uniformU64(cards);
            if (dst == src)
                dst = (dst + 1) % cards;
            pb.sendTo(src, dst,
                      rng.uniformU64(4) == 0 ? 0
                                             : 1 + rng.uniformU64(500),
                      last[src]);
        }
        size_t c = rng.uniformU64(cards);
        std::vector<uint64_t> waits;
        if (!bcasts.empty() && rng.uniformU64(2) == 0) {
            auto [msg, bsrc] = bcasts[rng.uniformU64(bcasts.size())];
            if (bsrc != c)
                waits.push_back(msg);
        }
        last[c] = pb.addCompute(c, 5 + rng.uniformU64(50), OpCost{},
                                labels[rng.uniformU64(3)], waits);
    }
    return pb.take();
}

TEST(Passes, FuzzAggressiveKeepsProgramsValidAndRunnable)
{
    for (uint64_t seed : {1u, 7u, 19u, 42u, 77u, 101u}) {
        for (bool overlaps : {true, false}) {
            Program prog = randomProgram(4, seed);
            Tick work = 0;
            for (const auto& card : prog.cards)
                for (const auto& t : card.compute)
                    work += t.duration;

            Program opt = optimizeProgram(prog, OptLevel::Aggressive,
                                          overlaps);
            EXPECT_TRUE(opt.validate().empty())
                << "seed " << seed << " overlaps " << overlaps;

            PassNetwork net(overlaps);
            ClusterExecutor ex(ClusterConfig{1, 4}, net);
            RunResult a = ex.tryRun(opt);
            ASSERT_TRUE(a.ok()) << a.error.message;
            RunResult b = ex.tryRun(opt);
            EXPECT_EQ(a.stats.fingerprint(), b.stats.fingerprint());

            // Passes drop transfers, never compute: work conserved.
            Tick busy = 0;
            for (Tick t : a.stats.computeBusy)
                busy += t;
            EXPECT_EQ(busy, work);
        }
    }
}

} // namespace
} // namespace hydra
