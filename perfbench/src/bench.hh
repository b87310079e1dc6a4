/**
 * @file
 * Shared pieces of the hydra_perfbench program: arguments, the per-run
 * report every workload fills, and the span recorder behind the traced
 * run.
 *
 * The program calls the library only through its public functions, so
 * every span here wraps a call into one layer from the outside.  Spans
 * stay in memory and are written as Chrome trace-event JSON when the
 * run ends; with tracing off, Tracer::Scope costs one branch.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line arguments of one workload run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    /** Measured-phase length (see cycleDone). */
    double seconds = 10.0;
    /** Chrome trace output path; empty = untraced run. */
    std::string tracePath;
};

/** Monotonic nanoseconds since the first call. */
int64_t nowNs();

/** One measured item: a block, a job, or one serving episode. */
struct Item
{
    std::string name;
    /** Host wall time of the item (mean over `runs`). */
    double ms = 0.0;
    /** Back-to-back runs the item time averages. */
    int runs = 1;
    /** Completed requests the item served (serving; else 1). */
    uint64_t units = 1;
    /** Recorded with tracing on (traced runs trace every other item
     *  set; see cycleDone). */
    bool traced = false;
};

/** Everything one workload run measures; main() prints it as JSON. */
struct Report
{
    std::vector<double> setupS;
    std::vector<Item> items;
    /** Wall time of the measured phase, timed apart from any span. */
    double measuredS = 0.0;
    /** End of each whole item set, in seconds since the measured phase
     *  started; taken by cycleDone at set boundaries, outside every
     *  span, so it includes the gaps between items. */
    std::vector<double> setEndS;
    /** Items attempted / failing an output check. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** First few check failures, for the log. */
    std::vector<std::string> failures;
    /** Modelled (simulated-machine) metrics; deterministic per seed. */
    std::map<std::string, double> model;
    /** Per-layer counters and timings from outside the layer. */
    std::map<std::string, double> layer;
    /** Identity hashes for pins and rerun checks, by item name. */
    std::map<std::string, std::string> hashes;
    /** Free-form facts for the human log (parameters, limits). */
    std::map<std::string, std::string> notes;

    /** Count one check; on failure keep the message. */
    void check(bool ok, const std::string& what);
};

/** In-memory span recorder (Chrome trace-event "X" events). */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;
        uint64_t item = 0;
    };

    /** RAII span; a no-op while tracing is off. */
    class Scope
    {
      public:
        Scope(Tracer& t, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& t_;
        int id_;
    };

    void setOn(bool on) { on_ = on; }
    /** Item id stamped on spans opened from now on. */
    void setItem(uint64_t item) { item_ = item; }

    /** Write every span as {"traceEvents": [...]}; false on I/O error. */
    bool writeChrome(const std::string& path) const;

  private:
    int begin(const char* name);
    void end(int id);

    bool on_ = false;
    uint64_t item_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** The process-wide tracer the workloads record into. */
Tracer& tracer();

/**
 * Time `reps` set-up repetitions of `batch` back-to-back calls of
 * `body` (spans recorded when `traced`).  setup_s is the median of the
 * repetitions' per-call means; batching lifts set-ups of a few ms
 * above host scheduling noise.
 */
template <typename F>
void
timeSetup(Report& rep, bool traced, int reps, int batch, F&& body)
{
    tracer().setOn(traced);
    for (int r = 0; r < reps; ++r) {
        Tracer::Scope sp(tracer(), "setup");
        int64_t s0 = nowNs();
        for (int b = 0; b < batch; ++b)
            body();
        rep.setupS.push_back(static_cast<double>(nowNs() - s0) / 1e9 /
                             batch);
    }
    tracer().setOn(false);
}

/**
 * Whether the measured loop stops before item `i` of a workload whose
 * distinct item set has `n` members: at the first set boundary after
 * the measured phase started at `start_ns` has lasted args.seconds, so
 * every metric covers whole sets.  Records each set's end in
 * rep.setEndS.  Traced runs alternate untraced and traced sets,
 * starting untraced (set 0 also warms the process), and stop only
 * after an odd number of sets, at least three, so every traced set
 * has an untraced neighbour for the overhead estimate.
 */
bool cycleDone(const Args& args, Report& rep, uint64_t i, uint64_t n,
               int64_t start_ns);

/** p-quantile (0..1) with linear interpolation; 0 for an empty set. */
double quantile(std::vector<double> v, double p);

/** Geometric mean of positive values; 0 for an empty set. */
double geomean(const std::vector<double>& v);

/** Model metrics of a fixed item set whose items take `seconds` each
 *  on the modelled machine: geomean makespan, p50/p99 in ms, goodput
 *  as items per modelled second (no item misses a limit or is shed). */
void reportModelItems(Report& rep, const std::vector<double>& seconds);

/** 64-bit value as 16 hex digits. */
std::string hex64(uint64_t v);

void runFheBlock(const Args& args, Report& rep);
void runSimSweep(const Args& args, Report& rep);
/** `chaos` selects serve_cake_chaos, else serve_fifo_open. */
void runServing(const Args& args, Report& rep, bool chaos);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
