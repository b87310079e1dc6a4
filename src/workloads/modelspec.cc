#include "workloads/model.hh"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <sstream>

#include "common/logging.hh"

namespace hydra {

namespace {

/** Hard bounds keeping a hostile spec cheap to reject. */
constexpr size_t kMaxLayers = 10000;
constexpr size_t kMaxBlockCount = 1024;

/** Split `s` on `sep` (no empty-field collapsing). */
std::vector<std::string>
splitOn(const std::string& s, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string field;
    while (std::getline(ss, field, sep))
        out.push_back(field);
    return out;
}

std::string
trim(const std::string& s)
{
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

bool
validLayerName(const std::string& s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '.' || c == '-'))
            return false;
    return true;
}

/** One key=value item (or the bare `end` block terminator). */
struct SpecItem
{
    std::string key;
    std::string val;
    std::string raw;
};

bool
tokenize(const std::string& text, std::vector<SpecItem>& items,
         SpecError& err)
{
    std::stringstream lines(text);
    std::string line;
    while (std::getline(lines, line, '\n')) {
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        for (const std::string& piece : splitOn(line, ',')) {
            std::string item = trim(piece);
            if (item.empty())
                continue;
            if (item == "end") {
                items.push_back(SpecItem{"end", "", item});
                continue;
            }
            size_t eq = item.find('=');
            if (eq == std::string::npos) {
                err.message = "model spec item is not key=value";
                err.token = item;
                return false;
            }
            std::string key = item.substr(0, eq);
            std::string val = item.substr(eq + 1);
            if (key.empty() || val.empty()) {
                err.message = "model spec item wants key=value with "
                              "both sides non-empty";
                err.token = item;
                return false;
            }
            items.push_back(
                SpecItem{std::move(key), std::move(val), item});
        }
    }
    return true;
}

/** Parser state threaded through plain and block-expanded items. */
struct ParseState
{
    WorkloadModel model;
    bool sawName = false;
    SpecError* err = nullptr;

    bool
    fail(std::string msg, std::string token, const std::string& raw)
    {
        err->message = std::move(msg);
        err->token = token.empty() ? raw : std::move(token);
        return false;
    }

    bool
    addStep(Step step, const std::string& raw)
    {
        if (model.steps.size() >= kMaxLayers)
            return fail(strf("model spec exceeds %zu layers",
                             kMaxLayers),
                        step.name, raw);
        model.steps.push_back(std::move(step));
        return true;
    }

    /** Apply one item; `prefix` is the active block name prefix
     *  (empty at top level, where header keys are also legal). */
    bool
    apply(const SpecItem& it, const std::string& prefix, bool in_block)
    {
        const std::string& raw = it.raw;
        auto fields = splitOn(it.val, ':');
        // Header keys (top level only).
        if (it.key == "model" || it.key == "slots" ||
            it.key == "limbs") {
            if (in_block)
                return fail("header key is not allowed inside a block",
                            it.key, raw);
            if (it.key == "model") {
                if (sawName)
                    return fail("duplicate model name", it.val, raw);
                sawName = true;
                model.name = it.val;
                return true;
            }
            size_t v = 0;
            if (!parseSize(it.val, v))
                return fail(it.key + " wants an unsigned integer",
                            it.val, raw);
            if (it.key == "slots") {
                if (v == 0 || v > 20)
                    return fail("slots wants 1 <= log2(slots) <= 20",
                                it.val, raw);
                model.logSlots = v;
            } else {
                if (v == 0 || v > 64)
                    return fail("limbs wants 1 <= limbs <= 64", it.val,
                                raw);
                model.maxLimbs = v;
            }
            return true;
        }

        // Layer keys: NAME:PAR-style fields, built by the step
        // factories.
        auto layerName = [&](std::string& out) {
            if (fields.empty() || !validLayerName(prefix + fields[0])) {
                fail("layer wants a name of [A-Za-z0-9_.-]",
                     fields.empty() ? "" : fields[0], raw);
                return false;
            }
            out = prefix + fields[0];
            return true;
        };
        auto parField = [&](size_t idx, size_t& out) {
            if (idx >= fields.size() || !parseSize(fields[idx], out) ||
                out == 0) {
                fail("layer wants an integer count >= 1",
                     idx < fields.size() ? fields[idx] : "", raw);
                return false;
            }
            return true;
        };
        auto scaleField = [&](size_t idx, double& out) {
            if (idx >= fields.size() || !parseF64(fields[idx], out) ||
                out <= 0) {
                fail("layer scale wants a number > 0",
                     idx < fields.size() ? fields[idx] : "", raw);
                return false;
            }
            return true;
        };

        std::string name;
        size_t par = 0;
        if (it.key == "conv") {
            if (fields.size() < 2 || fields.size() > 4)
                return fail("conv wants NAME:PAR[:SCALE[:CTS]]", it.val,
                            raw);
            double scale = 1.0;
            size_t cts = 32;
            if (!layerName(name) || !parField(1, par))
                return false;
            if (fields.size() > 2 && !scaleField(2, scale))
                return false;
            if (fields.size() > 3 && !parField(3, cts))
                return false;
            return addStep(makeConvStep(name, par, scale, cts), raw);
        }
        if (it.key == "relu" || it.key == "nonlin" ||
            it.key == "pool") {
            if (fields.size() < 2 || fields.size() > 3)
                return fail(it.key + " wants NAME:PAR[:CTS]", it.val,
                            raw);
            if (!layerName(name) || !parField(1, par))
                return false;
            size_t cts =
                it.key == "relu" ? 32 : (it.key == "pool" ? 16 : 12);
            if (fields.size() > 2 && !parField(2, cts))
                return false;
            if (it.key == "relu")
                return addStep(makeReluStep(name, par, cts), raw);
            if (it.key == "pool")
                return addStep(makePoolStep(name, par, cts), raw);
            return addStep(makeNonLinStep(name, par, cts), raw);
        }
        if (it.key == "fc" || it.key == "norm" || it.key == "boot") {
            if (fields.size() != 2)
                return fail(it.key + (it.key == "boot"
                                          ? " wants NAME:CTS"
                                          : " wants NAME:PAR"),
                            it.val, raw);
            if (!layerName(name) || !parField(1, par))
                return false;
            if (it.key == "fc")
                return addStep(makeFcStep(name, par), raw);
            if (it.key == "norm")
                return addStep(makeNormStep(name, par), raw);
            return addStep(makeBootStep(name, par), raw);
        }
        if (it.key == "pcmm" || it.key == "ccmm") {
            if (fields.size() != 3)
                return fail(it.key + " wants NAME:PAR:SCALE", it.val,
                            raw);
            double scale = 1.0;
            if (!layerName(name) || !parField(1, par) ||
                !scaleField(2, scale))
                return false;
            if (it.key == "pcmm")
                return addStep(makePcmmStep(name, par, scale), raw);
            return addStep(makeCcmmStep(name, par, scale), raw);
        }
        return fail("unknown model spec key (want model/slots/limbs/"
                    "conv/relu/pool/fc/boot/pcmm/ccmm/nonlin/norm/"
                    "block/end)",
                    it.key, raw);
    }
};

} // namespace

bool
tryParseModelSpec(const std::string& text, WorkloadModel& out,
                  SpecError& err)
{
    err = SpecError{};
    std::vector<SpecItem> items;
    if (!tokenize(text, items, err))
        return false;

    ParseState st;
    st.err = &err;
    size_t i = 0;
    while (i < items.size()) {
        const SpecItem& it = items[i];
        if (it.key == "end") {
            err.message = "end without an open block";
            err.token = it.raw;
            return false;
        }
        if (it.key == "block") {
            auto f = splitOn(it.val, ':');
            if (f.size() < 2 || f.size() > 3)
                return st.fail("block wants PREFIX:COUNT[:START]",
                               it.val, it.raw);
            if (!validLayerName(f[0]))
                return st.fail("block prefix wants [A-Za-z0-9_.-]",
                               f[0], it.raw);
            size_t count = 0, start = 0;
            if (!parseSize(f[1], count) || count == 0 ||
                count > kMaxBlockCount)
                return st.fail(strf("block count wants 1..%zu",
                                    kMaxBlockCount),
                               f[1], it.raw);
            if (f.size() > 2 && !parseSize(f[2], start))
                return st.fail("block start wants an unsigned integer",
                               f[2], it.raw);
            // Collect the body up to the matching `end` (no nesting).
            size_t body = i + 1;
            size_t close = body;
            while (close < items.size() && items[close].key != "end") {
                if (items[close].key == "block")
                    return st.fail("blocks do not nest",
                                   items[close].raw, items[close].raw);
                ++close;
            }
            if (close == items.size())
                return st.fail("block is missing its end", it.val,
                               it.raw);
            for (size_t rep = 0; rep < count; ++rep) {
                std::string prefix = f[0] + strf("%zu", start + rep);
                for (size_t k = body; k < close; ++k)
                    if (!st.apply(items[k], prefix, true))
                        return false;
            }
            i = close + 1;
            continue;
        }
        if (!st.apply(it, "", false))
            return false;
        ++i;
    }

    if (!st.sawName) {
        err.message = "model spec wants a model=NAME item";
        err.token = "model";
        return false;
    }
    if (st.model.steps.empty()) {
        err.message = "model spec declares no layers";
        err.token = st.model.name;
        return false;
    }
    // Duplicate layer names would make graph dumps and fused-unit
    // labels ambiguous; reject them here (block expansion included).
    {
        std::vector<std::string> names;
        names.reserve(st.model.steps.size());
        for (const auto& s : st.model.steps)
            names.push_back(s.name);
        std::sort(names.begin(), names.end());
        auto dup = std::adjacent_find(names.begin(), names.end());
        if (dup != names.end()) {
            err.message = "duplicate layer name";
            err.token = *dup;
            return false;
        }
    }
    out = std::move(st.model);
    return true;
}


namespace {

// ---------------------------------------------------------------------
// The registry: every model's only definition.  Pinned field for field
// by ModelSpec.RegistryModelsArePinned (tests/sched_graph_test.cc).  A
// unitScale that is a product (the transformer qkv scale is 3 x the
// matmul scale) is spelled as its exact %.17g round-trip.
// ---------------------------------------------------------------------

const char kResNet18Spec[] = R"(# ResNet-18 under RNS-CKKS ([12]'s packing)
model=ResNet-18
slots=15
limbs=24
# conv1 + maxpool (average pooling under FHE)
conv=conv1:768
relu=relu1:128
pool=pool1:64
boot=boot0:32
# Stages s1-s4, two blocks each: parallelism within Table I's 384..1024
# (ConvBN) and 4..128 (Non-linear) ranges, 16/8/8/2 ciphertexts; the
# first block of s2-s4 adds a downsample conv
block=s1b:2
conv=_conv1:640:1:16
relu=_relu1:128:16
conv=_conv2:640:1:16
relu=_relu2:128:16
boot=_boot:16
end
conv=s2b0_ds:448:1:8
conv=s2b0_conv1:512:1:8
relu=s2b0_relu1:64:8
conv=s2b0_conv2:512:1:8
relu=s2b0_relu2:64:8
boot=s2b0_boot:8
block=s2b:1:1
conv=_conv1:512:1:8
relu=_relu1:64:8
conv=_conv2:512:1:8
relu=_relu2:64:8
boot=_boot:8
end
conv=s3b0_ds:384:1:8
conv=s3b0_conv1:448:1:8
relu=s3b0_relu1:32:8
conv=s3b0_conv2:448:1:8
relu=s3b0_relu2:32:8
boot=s3b0_boot:8
block=s3b:1:1
conv=_conv1:448:1:8
relu=_relu1:32:8
conv=_conv2:448:1:8
relu=_relu2:32:8
boot=_boot:8
end
conv=s4b0_ds:384:1:2
conv=s4b0_conv1:384:1:2
relu=s4b0_relu1:4:2
conv=s4b0_conv2:384:1:2
relu=s4b0_relu2:4:2
boot=s4b0_boot:2
block=s4b:1:1
conv=_conv1:384:1:2
relu=_relu1:4:2
conv=_conv2:384:1:2
relu=_relu2:4:2
boot=_boot:2
end
pool=avgpool:6:1
boot=boot_final:1
fc=fc:1511
)";

const char kResNet50Spec[] = R"(# ResNet-50 bottleneck stages ([12])
model=ResNet-50
slots=15
limbs=24
# Bottleneck blocks (1x1 reduce, 3x3, 1x1 expand).  The conv SCALE is a
# ciphertext multiplicity: [12]'s multiplexed packing of the wide (up to
# 2048-channel) activations processes several input ciphertexts per
# layer, repeating the kernel units per ciphertext group.
conv=conv1:1024
relu=relu1:128
pool=pool1:256
boot=boot0:32
conv=s1b0_ds:1024:3.4:32
conv=s1b0_conv1:512:3.4:32
relu=s1b0_relu1:128:32
conv=s1b0_conv2:1024:3.4:32
relu=s1b0_relu2:128:32
conv=s1b0_conv3:1024:3.4:32
relu=s1b0_relu3:128:32
boot=s1b0_boot:32
block=s1b:2:1
conv=_conv1:512:3.4:32
relu=_relu1:128:32
conv=_conv2:1024:3.4:32
relu=_relu2:128:32
conv=_conv3:1024:3.4:32
relu=_relu3:128:32
boot=_boot:32
end
conv=s2b0_ds:896:4.7:32
conv=s2b0_conv1:448:4.7:32
relu=s2b0_relu1:64:32
conv=s2b0_conv2:896:4.7:32
relu=s2b0_relu2:64:32
conv=s2b0_conv3:896:4.7:32
relu=s2b0_relu3:64:32
boot=s2b0_boot:32
block=s2b:3:1
conv=_conv1:448:4.7:32
relu=_relu1:64:32
conv=_conv2:896:4.7:32
relu=_relu2:64:32
conv=_conv3:896:4.7:32
relu=_relu3:64:32
boot=_boot:32
end
conv=s3b0_ds:640:6.8:24
conv=s3b0_conv1:320:6.8:24
relu=s3b0_relu1:32:24
conv=s3b0_conv2:640:6.8:24
relu=s3b0_relu2:32:24
conv=s3b0_conv3:640:6.8:24
relu=s3b0_relu3:32:24
boot=s3b0_boot:24
block=s3b:5:1
conv=_conv1:320:6.8:24
relu=_relu1:32:24
conv=_conv2:640:6.8:24
relu=_relu2:32:24
conv=_conv3:640:6.8:24
relu=_relu3:32:24
boot=_boot:24
end
conv=s4b0_ds:384:9.5:16
conv=s4b0_conv1:192:9.5:16
relu=s4b0_relu1:16:16
conv=s4b0_conv2:384:9.5:16
relu=s4b0_relu2:16:16
conv=s4b0_conv3:384:9.5:16
relu=s4b0_relu3:16:16
boot=s4b0_boot:16
block=s4b:2:1
conv=_conv1:192:9.5:16
relu=_relu1:16:16
conv=_conv2:384:9.5:16
relu=_relu2:16:16
conv=_conv3:384:9.5:16
relu=_relu3:16:16
boot=_boot:16
end
pool=avgpool:12:1
boot=boot_final:1
fc=fc:3047
)";

const char kBertBaseSpec[] = R"(# BERT-base: 12 encoder layers ([13])
model=BERT-base
slots=15
limbs=24
# 12 layers, hidden 768, seq 128 (Table I: PCMM 98,304..393,216, CCMM
# 384, Non-linear 4..48, ciphertexts 1..12).  Each layer is [13]'s
# non-interactive pipeline: LN, QKV PCMM, CCMM scores, Softmax, CCMM
# context, output PCMM, boot, LN, FFN (PCMM, GeLU, PCMM), boot.  The
# matmul scale (0.09) is full-ciphertext ops per unit of parallelism.
# layers 0-5: qkv scale is 3 * 0.09 spelled exactly
block=l:6
norm=_ln1:8
pcmm=_qkv:98304:0.27000000000000002
ccmm=_scores:384:1
nonlin=_softmax:48
ccmm=_context:384:1
pcmm=_proj:98304:0.09
boot=_boot1:12
norm=_ln2:8
pcmm=_ffn1:393216:0.09
nonlin=_gelu:48
pcmm=_ffn2:393216:0.09
boot=_boot2:12
end
# layers 6-11: halved softmax parallelism and bootstrap counts
block=l:6:6
norm=_ln1:8
pcmm=_qkv:98304:0.27000000000000002
ccmm=_scores:384:1
nonlin=_softmax:24
ccmm=_context:384:1
pcmm=_proj:98304:0.09
boot=_boot1:6
norm=_ln2:8
pcmm=_ffn1:393216:0.09
nonlin=_gelu:24
pcmm=_ffn2:393216:0.09
boot=_boot2:6
end
boot=boot_final:1
fc=pooler:768
)";

const char kOpt67BSpec[] = R"(# OPT-6.7B: 32 decoder layers ([13])
model=OPT-6.7B
slots=15
limbs=24
# 32 layers, hidden 4096, seq 200 (Table I: PCMM 153,600..614,400, CCMM
# 1000, Non-linear 8..72, ciphertexts 2..18), the BERT-base layer
# pipeline.  The 200 x 4096 activations span ~8x more ciphertexts than
# BERT-base, hence the larger matmul scale (1.1).
# layers 0-15: qkv scale is 3 * 1.1 spelled exactly
block=l:16
norm=_ln1:16
pcmm=_qkv:153600:3.3000000000000003
ccmm=_scores:1000:1
nonlin=_softmax:72
ccmm=_context:1000:1
pcmm=_proj:153600:1.1
boot=_boot1:18
norm=_ln2:16
pcmm=_ffn1:614400:1.1
nonlin=_gelu:72
pcmm=_ffn2:614400:1.1
boot=_boot2:18
end
# layers 16-31: halved softmax parallelism and bootstrap counts
block=l:16:16
norm=_ln1:16
pcmm=_qkv:153600:3.3000000000000003
ccmm=_scores:1000:1
nonlin=_softmax:36
ccmm=_context:1000:1
pcmm=_proj:153600:1.1
boot=_boot1:9
norm=_ln2:16
pcmm=_ffn1:614400:1.1
nonlin=_gelu:36
pcmm=_ffn2:614400:1.1
boot=_boot2:9
end
boot=boot_final:2
fc=head:4096
)";

const char kResNet20Spec[] = R"(# ResNet-20 on CIFAR-10 (Section II motivation)
model=ResNet-20 (CIFAR-10)
slots=15
limbs=24
# 32x32 inputs pack into a single ciphertext ([12]); channel counts
# 16/32/64 give far smaller kernel-group parallelism than ImageNet.
# Three stages of three blocks; the middle block skips its bootstrap.
conv=conv1:16:1:1
relu=relu1:2:1
conv=s1b0_conv1:12:1:1
relu=s1b0_relu1:2:1
conv=s1b0_conv2:12:1:1
relu=s1b0_relu2:2:1
boot=s1b0_boot:1
conv=s1b1_conv1:12:1:1
relu=s1b1_relu1:2:1
conv=s1b1_conv2:12:1:1
relu=s1b1_relu2:2:1
conv=s1b2_conv1:12:1:1
relu=s1b2_relu1:2:1
conv=s1b2_conv2:12:1:1
relu=s1b2_relu2:2:1
boot=s1b2_boot:1
conv=s2b0_conv1:16:1:1
relu=s2b0_relu1:2:1
conv=s2b0_conv2:16:1:1
relu=s2b0_relu2:2:1
boot=s2b0_boot:1
conv=s2b1_conv1:16:1:1
relu=s2b1_relu1:2:1
conv=s2b1_conv2:16:1:1
relu=s2b1_relu2:2:1
conv=s2b2_conv1:16:1:1
relu=s2b2_relu1:2:1
conv=s2b2_conv2:16:1:1
relu=s2b2_relu2:2:1
boot=s2b2_boot:1
conv=s3b0_conv1:24:1:1
relu=s3b0_relu1:2:1
conv=s3b0_conv2:24:1:1
relu=s3b0_relu2:2:1
boot=s3b0_boot:1
conv=s3b1_conv1:24:1:1
relu=s3b1_relu1:2:1
conv=s3b1_conv2:24:1:1
relu=s3b1_relu2:2:1
conv=s3b2_conv1:24:1:1
relu=s3b2_relu1:2:1
conv=s3b2_conv2:24:1:1
relu=s3b2_relu2:2:1
boot=s3b2_boot:1
pool=avgpool:2:1
fc=fc:64
)";

/** A small encrypted MLP: a demo serving tenant and compile-corpus
 *  entry outside the paper's model set. */
const char kMlp3Spec[] = R"(# 3-layer encrypted MLP
model=MLP-3
slots=15
limbs=24
pcmm=fc1:8192:1
nonlin=act1:8
boot=boot0:4
pcmm=fc2:8192:1
nonlin=act2:8
boot=boot1:4
fc=out:512
)";

struct RegistryEntry
{
    const char* name;
    const char* text;
};

const RegistryEntry kRegistry[] = {
    {"resnet18", kResNet18Spec}, {"resnet50", kResNet50Spec},
    {"bert", kBertBaseSpec},     {"opt", kOpt67BSpec},
    {"resnet20", kResNet20Spec}, {"mlp3", kMlp3Spec},
};

constexpr size_t kRegistrySize = std::size(kRegistry);

/** Every registry spec parsed once per process, in registry order. */
const std::vector<WorkloadModel>&
parsedRegistry()
{
    static const std::vector<WorkloadModel> table = [] {
        std::vector<WorkloadModel> t(kRegistrySize);
        for (size_t i = 0; i < kRegistrySize; ++i) {
            SpecError err;
            if (!tryParseModelSpec(kRegistry[i].text, t[i], err))
                panic("registry spec '%s' is broken: %s",
                      kRegistry[i].name, err.describe().c_str());
        }
        return t;
    }();
    return table;
}

/** Registry index of `name`, or kRegistrySize when unknown. */
size_t
registryIndex(const std::string& name)
{
    size_t i = 0;
    while (i < kRegistrySize && name != kRegistry[i].name)
        ++i;
    return i;
}

} // namespace

std::vector<std::string>
modelSpecNames()
{
    std::vector<std::string> names;
    for (const auto& e : kRegistry)
        names.emplace_back(e.name);
    return names;
}

const char*
modelSpecText(const std::string& name)
{
    size_t i = registryIndex(name);
    return i < kRegistrySize ? kRegistry[i].text : nullptr;
}

bool
tryResolveWorkloadModel(const std::string& name, WorkloadModel& out,
                        SpecError& err)
{
    size_t i = registryIndex(name);
    if (i == kRegistrySize) {
        std::string valid;
        for (const auto& e : kRegistry)
            valid += std::string(valid.empty() ? "" : "|") + e.name;
        err.message = strf("unknown model (want %s)", valid.c_str());
        err.token = name;
        return false;
    }
    out = parsedRegistry()[i];
    return true;
}

WorkloadModel
workloadByName(const std::string& name)
{
    WorkloadModel m;
    SpecError err;
    if (!tryResolveWorkloadModel(name, m, err))
        fatal("%s", err.describe().c_str());
    return m;
}

std::vector<WorkloadModel>
allBenchmarks()
{
    std::vector<WorkloadModel> out;
    for (const char* name : {"resnet18", "resnet50", "bert", "opt"})
        out.push_back(workloadByName(name));
    return out;
}

} // namespace hydra
