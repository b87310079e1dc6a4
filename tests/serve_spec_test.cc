/**
 * @file
 * Parser-hardening tests for ServeSpec and FaultPlan: every malformed
 * input must come back as a structured SpecError naming the offending
 * token — no crash, no fatal(), no silently defaulted field — and a
 * deterministic fuzz loop hammers both parsers with mutated specs.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "serve/spec.hh"
#include "sync/fault.hh"

namespace hydra {
namespace {

// ---------------------------------------------------------------------
// ServeSpec::tryParse
// ---------------------------------------------------------------------

TEST(ServeSpecParse, RoundTripsAValidSpec)
{
    ServeSpec s;
    SpecError err;
    ASSERT_TRUE(ServeSpec::tryParse(
        "seed=7,clusters=4,duration=30,queue=16,requests=500,"
        "tenant=vision:open:resnet18:0.5,"
        "tenant=pool:closed:bert:3:0.25,prio=vision:0,"
        "at=2.5:replay:resnet18,group=resnet18:4:2,group=bert:4",
        s, err))
        << err.describe();
    EXPECT_EQ(s.seed, 7u);
    EXPECT_EQ(s.clusters, 4u);
    EXPECT_DOUBLE_EQ(s.durationSeconds, 30.0);
    EXPECT_EQ(s.queueCapacity, 16u);
    EXPECT_EQ(s.maxRequests, 500u);
    ASSERT_EQ(s.tenants.size(), 3u); // replay implicitly declared
    EXPECT_EQ(s.tenants[0].priority, 0);
    EXPECT_EQ(s.tenants[1].mode, ArrivalMode::Closed);
    EXPECT_EQ(s.tenants[1].clients, 3u);
    EXPECT_EQ(s.tenants[2].mode, ArrivalMode::Trace);
    ASSERT_EQ(s.groups.size(), 2u);
    EXPECT_EQ(s.groups[0].minCards, 2u);
}

struct BadCase
{
    const char* spec;
    const char* wantToken; // must appear in err.token
};

TEST(ServeSpecParse, MalformedInputNamesTheOffendingToken)
{
    const BadCase cases[] = {
        {"seed=abc", "abc"},
        {"seed=12x", "12x"},
        {"seed=", "seed="},
        {"clusters=0", "0"},
        {"clusters=-2", "-2"},
        {"clusters=1.5", "1.5"},
        {"duration=oops", "oops"},
        {"duration=-5,tenant=a:open:bert:1", "-5"},
        {"queue=many", "many"},
        {"queue=0,tenant=a:open:bert:1", "0"},
        {"requests=1e", "1e"},
        {"tenant=a:open:bert", "a:open:bert"},
        {"tenant=a:burst:bert:1", "burst"},
        {"tenant=a:open:bert:0", "0"},
        {"tenant=a:open:bert:-1", "-1"},
        {"tenant=a:open:bert:nan", "nan"},
        {"tenant=a:closed:bert:0", "0"},
        {"tenant=a:closed:bert:2:-1", "-1"},
        {"tenant=:open:bert:1", ":open:bert:1"},
        {"tenant=a:open:bert:1,tenant=a:open:bert:2", "a"},
        {"prio=a:1", "a"}, // undeclared tenant
        {"tenant=a:open:bert:1,prio=a:1.5", "1.5"},
        {"at=1:t", "1:t"},
        {"at=-1:t:bert", "-1"},
        {"group=bert", "bert"},
        {"group=bert:0", "bert:0"},
        {"group=bert:2:3", "bert:2:3"},
        {"group=bert:x", "x"},
        {"notakey=1", "notakey"},
        {"justtext", "justtext"},
        // sched= policy tokens
        {"sched=x", "x"},
        {"sched=fifo:1", "fifo:1"},
        {"sched=cake:0", "0"},
        {"sched=cake:-1", "-1"},
        {"sched=cake:nan", "nan"},
        {"sched=cake:1:0", "0"},
        // per-tier quanta (4th field on) must each be seconds > 0
        {"sched=cake:1:2:0", "0"},
        {"sched=cake:1:2:0.5:-1", "-1"},
        {"sched=cake:1:2:0.5:x", "x"},
        // kick cap below the wait budget (validated after parsing)
        {"duration=10,sched=cake:2:1", "1"},
        // bulk tenants= blocks
        {"tenants=2:a:open:bert", "2:a:open:bert"},
        {"tenants=x:a:open:bert:1", "x"},
        {"tenants=0:a:open:bert:1", "0"},
        {"tenants=2000001:a:open:bert:1", "2000001"},
        {"tenants=2:a:open:bert:0", "0"},
        {"tenants=2:a:burst:bert:1", "burst"},
        {"tenants=2:a:open:bert:1,tenants=2:a:open:bert:1", "a#0"},
        // prefix-matching prio
        {"prio=zz*:1", "zz*"},
        {"tenant=a:open:bert:1,prio=a*:1.5", "1.5"},
        {"tenants=2:a:open:bert:1,prio=b*:1", "b*"},
        // per-tenant / spec-default opt= levels
        {"opt=fast", "fast"},
        {"opt=", "opt="},
        {"tenant=a:open:bert:1,opt=a:fast", "fast"},
        {"opt=safe,opt=aggressive", "aggressive"},
        {"opt=b:safe", "b"}, // undeclared tenant
        {"tenants=2:a:open:bert:1,opt=b*:safe", "b*"},
        {"tenant=a:open:bert:1,opt=a:safe:x", "a:safe:x"},
    };
    for (const auto& c : cases) {
        ServeSpec s;
        SpecError err;
        EXPECT_FALSE(ServeSpec::tryParse(c.spec, s, err)) << c.spec;
        EXPECT_FALSE(err.message.empty()) << c.spec;
        EXPECT_NE(err.token.find(c.wantToken), std::string::npos)
            << c.spec << " -> " << err.describe();
        // describe() carries both halves of the diagnosis.
        EXPECT_NE(err.describe().find(err.token), std::string::npos);
    }
}

TEST(ServeSpecParse, RoundTripsASchedulerSpec)
{
    ServeSpec s;
    SpecError err;
    ASSERT_TRUE(ServeSpec::tryParse(
        "seed=1,duration=10,sched=cake:2:20,"
        "tenants=3:sp:closed:resnet20:1:5,prio=sp*:2,"
        "tenant=vip:open:resnet18:0.1,prio=vip:0",
        s, err))
        << err.describe();
    EXPECT_EQ(s.sched, SchedPolicy::Cake);
    EXPECT_DOUBLE_EQ(s.waitBudgetSeconds, 2.0);
    EXPECT_DOUBLE_EQ(s.kickSeconds, 20.0);
    ASSERT_EQ(s.tenants.size(), 4u);
    EXPECT_EQ(s.tenants[0].name, "sp#0");
    EXPECT_EQ(s.tenants[2].name, "sp#2");
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(s.tenants[i].priority, 2);
        EXPECT_EQ(s.tenants[i].mode, ArrivalMode::Closed);
    }
    EXPECT_EQ(s.tenants[3].priority, 0);
    // Tier-scaled wait budget: base * (tier + 1).
    EXPECT_EQ(s.waitBudgetTicks(1), 2 * s.waitBudgetTicks(0));
    EXPECT_NE(s.describe().find("sched=cake"), std::string::npos);
}

TEST(ServeSpecParse, SchedDefaultsToFifo)
{
    ServeSpec s;
    SpecError err;
    ASSERT_TRUE(ServeSpec::tryParse(
        "duration=10,tenant=a:open:bert:1", s, err));
    EXPECT_EQ(s.sched, SchedPolicy::Fifo);
    ASSERT_TRUE(ServeSpec::tryParse(
        "duration=10,sched=cake,tenant=a:open:bert:1", s, err));
    EXPECT_EQ(s.sched, SchedPolicy::Cake);
    // Bare cake keeps the documented defaults (1 s budget, 10 s cap).
    EXPECT_DOUBLE_EQ(s.waitBudgetSeconds, 1.0);
    EXPECT_DOUBLE_EQ(s.kickSeconds, 10.0);
}

TEST(ServeSpecParse, CakeQuantaParseAndClamp)
{
    ServeSpec s;
    SpecError err;
    ASSERT_TRUE(ServeSpec::tryParse(
        "duration=10,sched=cake:1:10:0.25:0.5,tenant=a:open:bert:1", s,
        err))
        << err.describe();
    ASSERT_EQ(s.quantumSeconds.size(), 2u);
    EXPECT_EQ(s.quantumTicks(0), secondsToTicks(0.25));
    EXPECT_EQ(s.quantumTicks(1), secondsToTicks(0.5));
    // Tiers past the last entry clamp to it; negatives clamp to 0.
    EXPECT_EQ(s.quantumTicks(7), secondsToTicks(0.5));
    EXPECT_EQ(s.quantumTicks(-2), secondsToTicks(0.25));
    EXPECT_NE(s.describe().find("quanta"), std::string::npos);

    // No quanta spelled: every tier slices at the tier-0 wait budget
    // (the legacy one-quantum behaviour, so existing runs are
    // bit-identical).
    ServeSpec d;
    ASSERT_TRUE(ServeSpec::tryParse(
        "duration=10,sched=cake:2:20,tenant=a:open:bert:1", d, err));
    EXPECT_TRUE(d.quantumSeconds.empty());
    EXPECT_EQ(d.quantumTicks(0), d.waitBudgetTicks(0));
    EXPECT_EQ(d.quantumTicks(3), d.waitBudgetTicks(0));
}

TEST(ServeSpecParse, OptLevelsParseAndDefault)
{
    // A spec-wide default with per-tenant overrides: explicit levels
    // win, everyone else (including trace-implied tenants) gets the
    // default.
    ServeSpec s;
    SpecError err;
    ASSERT_TRUE(ServeSpec::tryParse(
        "duration=10,opt=aggressive,"
        "tenant=vision:open:resnet18:0.5,"
        "tenant=nlp:open:bert:0.1,opt=nlp:safe,"
        "tenants=3:sp:closed:resnet20:1:5,opt=sp*:aggressive,"
        "at=2:replay:resnet18",
        s, err))
        << err.describe();
    ASSERT_EQ(s.tenants.size(), 6u); // replay implicitly declared
    EXPECT_EQ(s.tenants[0].opt, OptLevel::Aggressive); // default
    EXPECT_EQ(s.tenants[1].opt, OptLevel::Safe);       // explicit wins
    for (size_t i = 2; i < 5; ++i)
        EXPECT_EQ(s.tenants[i].opt, OptLevel::Aggressive) << i;
    EXPECT_EQ(s.tenants[5].opt, OptLevel::Aggressive); // trace-implied
    EXPECT_NE(s.describe().find("opt aggressive"), std::string::npos);

    // Order independence: a per-tenant level spelled before the
    // spec-wide default still wins, and tenants declared after the
    // default still inherit it.
    ServeSpec t;
    ASSERT_TRUE(ServeSpec::tryParse(
        "duration=10,tenant=a:open:bert:1,opt=a:safe,opt=aggressive,"
        "tenant=b:open:bert:1",
        t, err))
        << err.describe();
    ASSERT_EQ(t.tenants.size(), 2u);
    EXPECT_EQ(t.tenants[0].opt, OptLevel::Safe);
    EXPECT_EQ(t.tenants[1].opt, OptLevel::Aggressive);

    // No opt= at all: everyone compiles Safe (the legacy behaviour,
    // keeping pre-existing serving hashes bit-identical).
    ServeSpec d;
    ASSERT_TRUE(ServeSpec::tryParse(
        "duration=10,tenant=a:open:bert:1", d, err));
    EXPECT_EQ(d.tenants[0].opt, OptLevel::Safe);
    EXPECT_EQ(d.describe().find("opt "), std::string::npos);
}

// ---------------------------------------------------------------------
// FaultPlan::tryParse
// ---------------------------------------------------------------------

TEST(FaultPlanParse, RoundTripsAValidSpec)
{
    FaultPlan f;
    SpecError err;
    ASSERT_TRUE(FaultPlan::tryParse(
        "seed=3,drop=0.25,corrupt=0.1,degrade=2,dropfirst=1,"
        "straggle=2:1.5,kill=5@30,ckill=1@40,cpart=2@10:5",
        f, err))
        << err.describe();
    EXPECT_EQ(f.seed, 3u);
    EXPECT_DOUBLE_EQ(f.dropRate, 0.25);
    EXPECT_EQ(f.cardFailAt.at(5), secondsToTicks(30.0));
    EXPECT_EQ(f.clusterKillAt.at(1), secondsToTicks(40.0));
    ASSERT_EQ(f.clusterPartitionAt.count(2), 1u);
    EXPECT_EQ(f.clusterPartitionAt.at(2).start, secondsToTicks(10.0));
    // heal is stored as the absolute end of the healing window.
    EXPECT_EQ(f.clusterPartitionAt.at(2).heal, secondsToTicks(15.0));
    EXPECT_FALSE(f.empty());
}

TEST(FaultPlanParse, ClusterFaultsCountTowardEmpty)
{
    FaultPlan f;
    SpecError err;
    ASSERT_TRUE(FaultPlan::tryParse("ckill=0@1", f, err));
    EXPECT_FALSE(f.empty());
    FaultPlan g;
    ASSERT_TRUE(FaultPlan::tryParse("", g, err));
    EXPECT_TRUE(g.empty());
}

TEST(FaultPlanParse, MalformedInputNamesTheOffendingToken)
{
    const BadCase cases[] = {
        {"seed=banana", "banana"},
        {"drop=high", "high"},
        {"drop=1.5", "1.5"},
        {"drop=-0.1", "-0.1"},
        {"corrupt=2", "2"},
        {"degrade=0.5", "0.5"},
        {"dropfirst=-1", "-1"},
        {"straggle=3", "3"},
        {"straggle=3:0.5", "0.5"},
        {"straggle=x:2", "x"},
        {"kill=5", "5"},
        {"kill=5@-1", "-1"},
        {"kill=x@3", "x"},
        {"ckill=1", "1"},
        {"ckill=a@3", "a"},
        {"ckill=1@never", "never"},
        {"cpart=1@5", "1@5"},
        {"cpart=1@5:0", "0"},
        {"cpart=1@5:-2", "-2"},
        {"cpart=@5:1", "@5:1"},
        {"boom=1", "boom"},
        {"kill", "kill"},
    };
    for (const auto& c : cases) {
        FaultPlan f;
        SpecError err;
        EXPECT_FALSE(FaultPlan::tryParse(c.spec, f, err)) << c.spec;
        EXPECT_FALSE(err.message.empty()) << c.spec;
        EXPECT_NE(err.token.find(c.wantToken), std::string::npos)
            << c.spec << " -> " << err.describe();
    }
}

// ---------------------------------------------------------------------
// Deterministic fuzz loop: mutate valid specs, require a structured
// verdict every time (parse or a named error — never a crash, never an
// empty diagnosis).
// ---------------------------------------------------------------------

uint64_t
nextRand(uint64_t& s)
{
    s += 0x9e3779b97f4a7c15ULL;
    uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
mutate(const std::string& base, uint64_t& rng)
{
    std::string s = base;
    const char alphabet[] = "=:,@.-xe 0157\xff\x01";
    switch (nextRand(rng) % 5) {
    case 0: // flip one character
        if (!s.empty())
            s[nextRand(rng) % s.size()] =
                alphabet[nextRand(rng) % (sizeof(alphabet) - 1)];
        break;
    case 1: // delete one character
        if (!s.empty())
            s.erase(nextRand(rng) % s.size(), 1);
        break;
    case 2: // insert one character
        s.insert(nextRand(rng) % (s.size() + 1), 1,
                 alphabet[nextRand(rng) % (sizeof(alphabet) - 1)]);
        break;
    case 3: // truncate
        s.resize(nextRand(rng) % (s.size() + 1));
        break;
    default: // duplicate a chunk (stress repeated/duplicate keys)
        if (!s.empty()) {
            size_t from = nextRand(rng) % s.size();
            size_t len = 1 + nextRand(rng) % (s.size() - from);
            s += ",";
            s += s.substr(from, len);
        }
        break;
    }
    return s;
}

TEST(ServeSpecParse, FuzzedSpecsNeverCrashAndAlwaysDiagnose)
{
    const std::string base =
        "seed=7,clusters=2,duration=30,queue=16,sched=cake:2:20,"
        "tenant=vision:open:resnet18:0.5,tenant=pool:closed:bert:3:0.25,"
        "tenants=4:sp:closed:resnet20:1:5,prio=sp*:1,"
        "prio=vision:0,opt=aggressive,opt=sp*:safe,"
        "at=2.5:replay:resnet18,group=resnet18:4:2";
    uint64_t rng = 0xfeedface;
    size_t rejected = 0;
    for (int i = 0; i < 4000; ++i) {
        std::string fuzzed = mutate(base, rng);
        // Stack a second mutation on half the inputs.
        if (nextRand(rng) & 1)
            fuzzed = mutate(fuzzed, rng);
        ServeSpec s;
        SpecError err;
        if (ServeSpec::tryParse(fuzzed, s, err)) {
            // Accepted specs must be internally coherent, not
            // silently defaulted garbage.
            EXPECT_GT(s.durationSeconds, 0.0) << fuzzed;
            EXPECT_GE(s.queueCapacity, 1u) << fuzzed;
            EXPECT_GE(s.clusters, 1u) << fuzzed;
            // The starvation cap must never undercut the wait budget.
            EXPECT_GE(s.kickSeconds, s.waitBudgetSeconds) << fuzzed;
            EXPECT_GT(s.waitBudgetSeconds, 0.0) << fuzzed;
            for (const auto& g : s.groups) {
                EXPECT_GE(g.cards, g.minCards) << fuzzed;
                EXPECT_GE(g.minCards, 1u) << fuzzed;
            }
        } else {
            ++rejected;
            EXPECT_FALSE(err.message.empty()) << fuzzed;
            EXPECT_FALSE(err.describe().empty()) << fuzzed;
        }
    }
    // The mutator must actually be exercising the failure paths.
    EXPECT_GT(rejected, 1000u);
}

/**
 * Linear-scan oracle for the tenant-naming items of a serve spec:
 * tenant=, tenants=, prio=, opt= and at=.  It returns the error
 * message prefix and token the parser must report, or, when the spec
 * is accepted, fills the tenant list it must produce (name, priority,
 * level, in declaration order, trace-implied tenants last).
 */
struct OracleTenant
{
    std::string name;
    int priority = 1;
    OptLevel opt = OptLevel::Safe;
};

bool
oracleParse(const std::vector<std::string>& items,
            std::vector<OracleTenant>& out, std::string& msgPrefix,
            std::string& token)
{
    std::vector<OracleTenant> ts;
    std::vector<bool> explicitOpt;
    std::vector<std::string> trace;
    bool defaultSet = false;
    OptLevel def = OptLevel::Safe;
    auto find = [&](const std::string& n) -> OracleTenant* {
        for (auto& t : ts)
            if (t.name == n)
                return &t;
        return nullptr;
    };
    auto declare = [&](const std::string& n) {
        if (find(n)) {
            msgPrefix = "duplicate tenant";
            token = n;
            return false;
        }
        ts.push_back({n, 1, OptLevel::Safe});
        explicitOpt.push_back(false);
        return true;
    };
    // Apply `fn` to each tenant NAME (or NAME* prefix) selects.
    auto select = [&](const std::string& sel, auto fn) {
        size_t matched = 0;
        bool prefix = !sel.empty() && sel.back() == '*';
        std::string stem = prefix ? sel.substr(0, sel.size() - 1) : sel;
        for (size_t i = 0; i < ts.size(); ++i)
            if (prefix ? ts[i].name.compare(0, stem.size(), stem) == 0
                       : ts[i].name == stem) {
                fn(i);
                ++matched;
            }
        return matched;
    };
    for (const std::string& item : items) {
        std::string key = item.substr(0, item.find('='));
        std::string val = item.substr(item.find('=') + 1);
        std::vector<std::string> f;
        for (size_t at = 0;;) {
            size_t c = val.find(':', at);
            f.push_back(val.substr(at, c - at));
            if (c == std::string::npos)
                break;
            at = c + 1;
        }
        if (key == "tenant") {
            if (!declare(f[0]))
                return false;
        } else if (key == "tenants") {
            for (int i = 0; i < std::stoi(f[0]); ++i)
                if (!declare(f[1] + "#" + std::to_string(i)))
                    return false;
        } else if (key == "prio") {
            int p = std::stoi(f[1]);
            if (!select(f[0], [&](size_t i) { ts[i].priority = p; })) {
                msgPrefix = "prio names an undeclared tenant";
                token = f[0];
                return false;
            }
        } else if (key == "opt" && f.size() == 1) {
            if (defaultSet) {
                msgPrefix = "duplicate opt default";
                token = val;
                return false;
            }
            defaultSet = true;
            def = f[0] == "safe" ? OptLevel::Safe : OptLevel::Aggressive;
        } else if (key == "opt") {
            OptLevel lv =
                f[1] == "safe" ? OptLevel::Safe : OptLevel::Aggressive;
            if (!select(f[0], [&](size_t i) {
                    ts[i].opt = lv;
                    explicitOpt[i] = true;
                })) {
                msgPrefix = "opt names an undeclared tenant";
                token = f[0];
                return false;
            }
        } else if (key == "at") {
            trace.push_back(f[1]);
        }
    }
    if (defaultSet)
        for (size_t i = 0; i < ts.size(); ++i)
            if (!explicitOpt[i])
                ts[i].opt = def;
    for (const std::string& n : trace)
        if (!find(n))
            ts.push_back({n, 1, def});
    out = std::move(ts);
    return true;
}

TEST(ServeSpecParse, TenantNamingMatchesALinearScanOracle)
{
    // Names collide on purpose: tenant=s#1 against tenants=N:s:...,
    // prefix selectors against both, trace entries naming declared
    // and undeclared tenants.
    const char* names[] = {"a", "b", "s#0", "s#2", "t#1", "ab", "zz"};
    const char* prefixes[] = {"s", "t", "a"};
    const char* selectors[] = {"a", "b", "s#1", "t#0", "zz",
                               "s*", "t*", "a*", "q*", "nope"};
    uint64_t rng = 0x5eed5;
    size_t accepted = 0, rejected = 0;
    for (int iter = 0; iter < 3000; ++iter) {
        std::vector<std::string> items;
        size_t n = 1 + nextRand(rng) % 7;
        for (size_t k = 0; k < n; ++k) {
            switch (nextRand(rng) % 6) {
            case 0:
                items.push_back(std::string("tenant=") +
                                names[nextRand(rng) % 7] +
                                ":open:resnet18:1");
                break;
            case 1:
                items.push_back(strf("tenants=%d:%s:closed:resnet20:1",
                                     1 + static_cast<int>(nextRand(rng) % 3),
                                     prefixes[nextRand(rng) % 3]));
                break;
            case 2:
                items.push_back(strf("prio=%s:%d",
                                     selectors[nextRand(rng) % 10],
                                     static_cast<int>(nextRand(rng) % 3)));
                break;
            case 3:
                items.push_back(strf(
                    "opt=%s:%s", selectors[nextRand(rng) % 10],
                    nextRand(rng) & 1 ? "safe" : "aggressive"));
                break;
            case 4:
                items.push_back(nextRand(rng) & 1 ? "opt=safe"
                                                  : "opt=aggressive");
                break;
            default:
                items.push_back(std::string("at=1:") +
                                names[nextRand(rng) % 7] + ":resnet18");
                break;
            }
        }
        std::string spec = "duration=10";
        for (const auto& it : items)
            spec += "," + it;

        std::vector<OracleTenant> want;
        std::string wantMsg, wantToken;
        bool wantOk = oracleParse(items, want, wantMsg, wantToken);
        ServeSpec got;
        SpecError err;
        bool ok = ServeSpec::tryParse(spec, got, err);
        ASSERT_EQ(ok, wantOk) << spec << "\n" << err.describe();
        if (!ok) {
            ++rejected;
            EXPECT_EQ(err.message.compare(0, wantMsg.size(), wantMsg), 0)
                << spec << "\n" << err.describe();
            EXPECT_EQ(err.token, wantToken) << spec;
            continue;
        }
        ++accepted;
        ASSERT_EQ(got.tenants.size(), want.size()) << spec;
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got.tenants[i].name, want[i].name) << spec;
            EXPECT_EQ(got.tenants[i].priority, want[i].priority) << spec;
            EXPECT_EQ(got.tenants[i].opt, want[i].opt) << spec;
        }
    }
    // Both outcomes must be well exercised.
    EXPECT_GT(accepted, 500u);
    EXPECT_GT(rejected, 500u);
}

TEST(FaultPlanParse, FuzzedSpecsNeverCrashAndAlwaysDiagnose)
{
    const std::string base =
        "seed=3,drop=0.25,corrupt=0.1,degrade=2,dropfirst=1,"
        "straggle=2:1.5,kill=5@30,ckill=1@40,cpart=2@10:5";
    uint64_t rng = 0xdecaf;
    size_t rejected = 0;
    for (int i = 0; i < 4000; ++i) {
        std::string fuzzed = mutate(base, rng);
        if (nextRand(rng) & 1)
            fuzzed = mutate(fuzzed, rng);
        FaultPlan f;
        SpecError err;
        if (FaultPlan::tryParse(fuzzed, f, err)) {
            EXPECT_GE(f.dropRate, 0.0) << fuzzed;
            EXPECT_LE(f.dropRate, 1.0) << fuzzed;
            EXPECT_GE(f.corruptRate, 0.0) << fuzzed;
            EXPECT_LE(f.corruptRate, 1.0) << fuzzed;
            EXPECT_GE(f.linkDegrade, 1.0) << fuzzed;
            for (const auto& [card, fac] : f.stragglers)
                EXPECT_GE(fac, 1.0) << fuzzed;
            for (const auto& [c, p] : f.clusterPartitionAt)
                EXPECT_GT(p.heal, p.start) << fuzzed;
        } else {
            ++rejected;
            EXPECT_FALSE(err.message.empty()) << fuzzed;
        }
    }
    EXPECT_GT(rejected, 1000u);
}

} // namespace
} // namespace hydra
