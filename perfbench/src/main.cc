/**
 * @file
 * hydra_perfbench: runs one benchmark workload and prints its raw
 * measurements as one JSON object on stdout.  perfbench/run.py builds
 * this binary, runs it, and turns the report into the benchmark's
 * metrics; see perfbench/README.md.
 *
 * Usage:
 *   hydra_perfbench WORKLOAD [--seed N] [--seconds S]
 *                   [--trace-out PATH]
 *   WORKLOAD: fhe_cnn_block | sim_design_sweep | serve_fifo_open |
 *             serve_cake_chaos
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hh"
#include "common/parallel.hh"
#include "math/simd/simd.hh"

namespace perfbench {

int64_t
nowNs()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void
Report::check(bool ok, const std::string& what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

Tracer&
tracer()
{
    static Tracer t;
    return t;
}

Tracer::Scope::Scope(Tracer& t, const char* name)
    : t_(t), id_(t.on_ ? t.begin(name) : -1)
{
}

Tracer::Scope::~Scope()
{
    if (id_ >= 0)
        t_.end(id_);
}

int
Tracer::begin(const char* name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.item = item_;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    spans_[static_cast<size_t>(id)].endNs = nowNs();
    open_.pop_back();
}

namespace {

std::string
jsonStr(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

bool
Tracer::writeChrome(const std::string& path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        f << "{\"name\": " << jsonStr(s.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << jsonNum(static_cast<double>(s.startNs) / 1e3)
          << ", \"dur\": "
          << jsonNum(static_cast<double>(s.endNs - s.startNs) / 1e3)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"item\": " << s.item << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    f << "]}\n";
    return static_cast<bool>(f);
}

bool
cycleDone(const Args& args, Report& rep, uint64_t i, uint64_t n,
          int64_t start_ns)
{
    if (i % n || i < n)
        return false;
    double elapsed = static_cast<double>(nowNs() - start_ns) / 1e9;
    rep.setEndS.push_back(elapsed);
    if (!args.tracePath.empty() && (i < 3 * n || (i / n) % 2 == 0))
        return false;
    return elapsed >= args.seconds;
}

double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

void
reportModelItems(Report& rep, const std::vector<double>& seconds)
{
    double sum = 0.0;
    std::vector<double> ms;
    for (double s : seconds) {
        sum += s;
        ms.push_back(s * 1e3);
    }
    rep.model["model_makespan_s"] = geomean(seconds);
    rep.model["model_p50_ms"] = quantile(ms, 0.50);
    rep.model["model_p99_ms"] = quantile(ms, 0.99);
    rep.model["model_goodput_rps"] =
        static_cast<double>(seconds.size()) / sum;
    rep.model["model_shed_rate"] = 0.0;
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

namespace {

template <typename Map>
std::string
jsonNumMap(const Map& m)
{
    std::string out = "{";
    for (auto it = m.begin(); it != m.end(); ++it)
        out += (it == m.begin() ? "" : ", ") + jsonStr(it->first) +
               ": " + jsonNum(it->second);
    return out + "}";
}

std::string
jsonStrMap(const std::map<std::string, std::string>& m)
{
    std::string out = "{";
    for (auto it = m.begin(); it != m.end(); ++it)
        out += (it == m.begin() ? "" : ", ") + jsonStr(it->first) +
               ": " + jsonStr(it->second);
    return out + "}";
}

void
printReport(const Args& args, const Report& rep)
{
    std::string out = "{";
    out += "\"workload\": " + jsonStr(args.workload);
    out += ", \"seed\": " + std::to_string(args.seed);
    out += ", \"env\": {\"simd\": " +
           jsonStr(hydra::simdLevelName(hydra::simd::activeLevel())) +
           ", \"threads\": " +
           std::to_string(hydra::ThreadPool::instance().threadCount()) +
           ", \"build_type\": " + jsonStr(PERFBENCH_BUILD_TYPE) +
           ", \"compiler\": " + jsonStr(PERFBENCH_COMPILER) + "}";
    out += ", \"setup_s\": [";
    for (size_t i = 0; i < rep.setupS.size(); ++i)
        out += (i ? ", " : "") + jsonNum(rep.setupS[i]);
    out += "], \"items\": [";
    for (size_t i = 0; i < rep.items.size(); ++i) {
        const Item& it = rep.items[i];
        out += std::string(i ? ", " : "") + "{\"name\": " +
               jsonStr(it.name) + ", \"ms\": " + jsonNum(it.ms) +
               ", \"runs\": " + std::to_string(it.runs) +
               ", \"units\": " + std::to_string(it.units) +
               ", \"traced\": " + (it.traced ? "true" : "false") + "}";
    }
    out += "], \"measured_s\": " + jsonNum(rep.measuredS);
    out += ", \"set_end_s\": [";
    for (size_t i = 0; i < rep.setEndS.size(); ++i)
        out += (i ? ", " : "") + jsonNum(rep.setEndS[i]);
    out += "]";
    out += ", \"attempted\": " + std::to_string(rep.attempted);
    out += ", \"failed\": " + std::to_string(rep.failed);
    out += ", \"failures\": [";
    for (size_t i = 0; i < rep.failures.size(); ++i)
        out += (i ? ", " : "") + jsonStr(rep.failures[i]);
    out += "], \"model\": " + jsonNumMap(rep.model);
    out += ", \"layer\": " + jsonNumMap(rep.layer);
    out += ", \"hashes\": " + jsonStrMap(rep.hashes);
    out += ", \"notes\": " + jsonStrMap(rep.notes);
    out += "}\n";
    std::fputs(out.c_str(), stdout);
}

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "hydra_perfbench: %s\nusage: hydra_perfbench WORKLOAD "
                 "[--seed N] [--seconds S] [--trace-out PATH]\n",
                 msg);
    std::exit(2);
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    if (argc < 2)
        usage("missing workload");
    Args args;
    args.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (a == "--seed")
            args.seed = std::strtoull(v, &end, 10);
        else if (a == "--seconds")
            args.seconds = std::strtod(v, &end);
        else if (a == "--trace-out")
            args.tracePath = v;
        else
            usage(("unknown argument " + a).c_str());
        if (end && *end)
            usage(("bad value for " + a).c_str());
    }
    if (!(args.seconds > 0))
        usage("--seconds must be positive");

    Report rep;
    if (args.workload == "fhe_cnn_block")
        runFheBlock(args, rep);
    else if (args.workload == "sim_design_sweep")
        runSimSweep(args, rep);
    else if (args.workload == "serve_fifo_open")
        runServing(args, rep, false);
    else if (args.workload == "serve_cake_chaos")
        runServing(args, rep, true);
    else
        usage(("unknown workload " + args.workload).c_str());

    if (!args.tracePath.empty() &&
        !tracer().writeChrome(args.tracePath)) {
        std::fprintf(stderr, "cannot write %s\n", args.tracePath.c_str());
        return 1;
    }
    printReport(args, rep);
    return 0;
}
