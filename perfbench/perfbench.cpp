/**
 * @file
 * Training-step benchmark: three pinned tiny-model Gist workloads, timed
 * one TrainLoop::step() at a time, with a traced mode that splits the
 * step into per-layer numbers.
 *
 *   gist_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                  [--trace-out <file>] [--source-id <id>]
 *                  [--pool-threads <n>] [--corrupt-reference]
 *
 * --trace 0 measures the end-to-end metrics with tracing off. --trace 1
 * alternates untraced and traced blocks of steps on one session; traced
 * blocks turn on the executor's per-node profile and the obs/trace span
 * recorder. Setup, every step and every replayed kernel call (gemm /
 * im2col / col2im at the shapes collectKernelShapes() reports) get a
 * benchmark span; the library's own spans are kept for the setups, the
 * first traced block and the first replay. The spans (Chrome trace-event
 * format) and the per-step ExecStats and per-node profile go to
 * --trace-out as JSON, and the per-layer metrics are printed. Both modes
 * print `# ` header lines (effective config, SIMD backend, threads, host,
 * source id, host speed) and end with one JSON line:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Every time the benchmark reports is scaled to reference host speed
 * (see Calibrator). Every step is verified against an oracle run of a
 * differently configured but bitwise-equivalent executor (see
 * Workload::reference); a step that mismatches, yields a non-finite loss,
 * breaks a memory invariant or throws counts as failed.
 * --corrupt-reference flips one bit of the oracle's first loss (self-test
 * of the check itself); --pool-threads overrides the pinned pool size
 * but not the pinned CPUs (diagnostic only).
 */

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/planner.hpp"
#include "core/schedule_builder.hpp"
#include "core/sparsity.hpp"
#include "graph/executor.hpp"
#include "memory/arena.hpp"
#include "models/tiny.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "train/dataset.hpp"
#include "train/trainer.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

extern char **environ;

using namespace gist;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kNumTrain = 1024; ///< 32 steps per epoch
constexpr int kWarmupSteps = 3;          ///< per setup, part of setup_s
constexpr int kSetupReps = 9;            ///< setup_s is their median
constexpr int kReferenceSteps = 10;      ///< steps checked bit for bit
constexpr int kReplayReps = 3;           ///< kernel replays per traced run
/**
 * The timed steps of an untraced run are split into this many blocks of
 * equal measured time; each step-time metric is the median of its
 * per-block values, so a host slowdown covering less than half the run
 * does not move it.
 */
constexpr int kTimedBlocks = 5;
/** Length of one untraced or traced block in --trace 1 runs. */
constexpr auto kTraceBlock = std::chrono::milliseconds(500);
/**
 * SGD with momentum 0.9 (TrainConfig default). At the default LR 0.05
 * without clipping tiny VGG16 diverges to a non-finite loss within a few
 * hundred steps on some seeds; these keep every seed finite.
 */
constexpr float kLearningRate = 0.02f;
constexpr float kClipGradNorm = 5.0f;

/**
 * resnet-hybrid's memory budget (tiny ResNet, batch 32, lossy FP16;
 * all-keep peak 5080192 B, static Gist peak ~3.30 MB). The planner
 * reports it feasible, drops 4 stashes for recompute and plans a
 * 3265874 B peak; the executor measures ~3.246 MB, so measured <=
 * planned holds. At 3.25 MB and 3.0 MB the planner also reports feasible
 * plans (3003730 B and 2717425 B planned), but the executor measures
 * 3244288 B for both (ratio 1.08 and 1.19), so those budgets would fail
 * verification; at 2.62 MB it reports the plan infeasible.
 */
constexpr std::uint64_t kResnetBudgetBytes = 3400000;
/** inception-tiered's device pool cap: 0.3x its unbounded peak. */
constexpr std::uint64_t kInceptionPoolBytes = 393216; // 0.3 x 1309184
/** Throttle of inception-tiered's in-memory slow tier (1 GB/s). */
constexpr double kTierBytesPerSecond = 1e9;

/**
 * Calibration kernel time that defines reference host speed (see
 * Calibrator): about what one kernel takes alone on a 4-vCPU Intel Xeon
 * host at the fastest of its speed levels. Workloads that calibrate on two
 * CPUs at once see slower kernels, so their times are not comparable with
 * the one-CPU workloads', only with their own.
 */
constexpr double kCalibrationRefMs = 0.55;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ----------------------------------------------------------- host speed

/**
 * Fixed calibration work that uses no library code: small matrix
 * products and a strided pass over 1 MiB.
 */
class CalibrationKernel
{
  public:
    CalibrationKernel()
        : a_(kDim * kDim, 0.5f), b_(kDim * kDim, 0.25f), c_(kDim * kDim),
          mem_(kMemFloats, 1.0f)
    {
    }

    /** Run once; returns the time taken, ms. */
    __attribute__((noinline)) double
    run()
    {
        const auto t0 = Clock::now();
        for (int rep = 0; rep < 3; ++rep)
            for (size_t i = 0; i < kDim; ++i)
                for (size_t j = 0; j < kDim; ++j) {
                    float acc = 0.0f;
                    for (size_t k = 0; k < kDim; ++k)
                        acc += a_[i * kDim + k] * b_[k * kDim + j];
                    c_[i * kDim + j] = acc;
                }
        float sum = 0.0f;
        for (int rep = 0; rep < 2; ++rep)
            for (size_t i = 0; i < mem_.size(); i += 4) {
                sum += mem_[i];
                mem_[i] = 0.5f * mem_[i] + 0.5f;
            }
        c_[0] += sum;
        return secondsSince(t0) * 1e3;
    }

  private:
    static constexpr size_t kDim = 64;
    static constexpr size_t kMemFloats = 1 << 18; // 1 MiB

    std::vector<float> a_, b_, c_, mem_;
};

/**
 * Host-speed calibration. A shared cloud host switches between speed
 * levels up to ~1.55x apart for seconds at a time (measured on a 4-vCPU
 * Xeon); a run can sit in one level throughout, so raw step times of the
 * same code spread by 25-40% across runs. CalibrationKernel slows down by
 * the same factor. It runs at once on every CPU the workload is pinned to
 * (the calling thread plus one helper thread per further CPU), before and
 * after every timed step, setup and kernel replay; each of their times is
 * multiplied by kCalibrationRefMs / (mean of the two calibrations around
 * it): the time the work would take at reference speed. The calibration's
 * own time is never part of a measured interval.
 */
class Calibrator
{
  public:
    explicit Calibrator(int cpus) : kernels_(static_cast<size_t>(cpus)),
                                    ms_(kernels_.size())
    {
        for (size_t i = 1; i < kernels_.size(); ++i)
            helpers_.emplace_back([this, i] { helperLoop(i); });
        run(); // first touch of the buffers
        run();
        spent_ms_ = 0.0;
    }

    ~Calibrator()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : helpers_)
            t.join();
    }

    Calibrator(const Calibrator &) = delete;
    Calibrator &operator=(const Calibrator &) = delete;

    /**
     * Run the kernel on every CPU at once; returns (and remembers) the
     * mean of their times, ms.
     */
    double
    run()
    {
        const auto t0 = Clock::now();
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++generation_;
            pending_ = helpers_.size();
        }
        wake_.notify_all();
        ms_[0] = kernels_[0].run();
        {
            std::unique_lock<std::mutex> lock(mu_);
            done_.wait(lock, [this] { return pending_ == 0; });
        }
        double sum = 0.0;
        for (double ms : ms_)
            sum += ms;
        last_ms_ = sum / static_cast<double>(ms_.size());
        spent_ms_ += secondsSince(t0) * 1e3;
        return last_ms_;
    }

    /** Total wall time spent calibrating so far, ms. */
    double spentMs() const { return spent_ms_; }

    /** Factor to reference speed for work between two calibrations. */
    static double
    scale(double before_ms, double after_ms)
    {
        return 2.0 * kCalibrationRefMs / (before_ms + after_ms);
    }

  private:
    void
    helperLoop(size_t index)
    {
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                wake_.wait(lock,
                           [&] { return stop_ || generation_ != seen; });
                if (stop_)
                    return;
                seen = generation_;
            }
            ms_[index] = kernels_[index].run();
            {
                std::lock_guard<std::mutex> lock(mu_);
                --pending_;
            }
            done_.notify_one();
        }
    }

    std::vector<CalibrationKernel> kernels_; ///< one per CPU
    std::vector<double> ms_;                 ///< latest time per CPU
    std::vector<std::thread> helpers_;
    std::mutex mu_;
    std::condition_variable wake_, done_;
    std::uint64_t generation_ = 0;
    size_t pending_ = 0;
    bool stop_ = false;
    double last_ms_ = 0.0;
    double spent_ms_ = 0.0;
};

// ------------------------------------------------------------ workloads

/** One pinned benchmark configuration. */
struct Workload
{
    const char *name;
    const char *model; ///< models::tinyModels() entry
    GistConfig gist;   ///< every knob pinned here
    int pool_threads;
    /** The bitwise-equivalent oracle configuration (see reference()). */
    GistConfig reference;
    int reference_threads;
    bool reference_recompute_as_keep;
};

std::vector<Workload>
workloads()
{
    std::vector<Workload> out;

    // Conv-bound: a GEMM / im2col change shows here, a codec change
    // barely does. Lossless must equal the baseline bit for bit.
    GistConfig vgg = GistConfig::lossless();
    vgg.elide_decode_buffer = true;
    vgg.fused_consume = true;
    vgg.num_threads = 1;
    GistConfig vgg_ref = GistConfig::baseline();
    vgg_ref.num_threads = 1;
    out.push_back({ "vgg16-lossless", "VGG16", vgg, 1, vgg_ref, 1, false });

    // Hybrid planner + executor recompute + BN/eltwise on 2 pool
    // threads. Oracle: 1 thread, recompute slots kept dense.
    GistConfig resnet = GistConfig::lossy(DprFormat::Fp16);
    resnet.mem_budget_bytes = kResnetBudgetBytes;
    resnet.num_threads = 2;
    GistConfig resnet_ref = resnet;
    resnet_ref.num_threads = 1;
    out.push_back(
        { "resnet-hybrid", "ResNet", resnet, 2, resnet_ref, 1, true });

    // Many small nodes, async codec queue, capped device pool evicting
    // to a throttled memory tier. Oracle: uncapped and sync.
    GistConfig inception = GistConfig::lossy(DprFormat::Fp16);
    inception.async_codec = true;
    inception.codec_threads = 1;
    inception.num_threads = 1;
    inception.device_pool_bytes = kInceptionPoolBytes;
    inception.tier_bandwidth_bytes_per_s = kTierBytesPerSecond;
    GistConfig inception_ref = inception;
    inception_ref.async_codec = false;
    inception_ref.device_pool_bytes = 0;
    out.push_back({ "inception-tiered", "Inception", inception, 1,
                    inception_ref, 1, false });
    return out;
}

const models::ModelEntry &
findModel(const std::string &name)
{
    for (const auto &entry : models::tinyModels())
        if (entry.name == name)
            return entry;
    throw std::runtime_error("unknown tiny model " + name);
}

// -------------------------------------------------------------- session

/** Everything one training run owns, in construction order. */
struct Session
{
    std::unique_ptr<Graph> graph;
    BuiltSchedule schedule;
    std::unique_ptr<Executor> exec;
    std::unique_ptr<Trainer> trainer;
    std::unique_ptr<TrainLoop> loop;
    long steps_run = 0; ///< training steps executed so far
    // Setup times at reference speed.
    double schedule_s = 0.0; ///< buildSchedule (incl. hybrid planning)
    double exec_s = 0.0;     ///< executor construction + applyToExecutor
    double total_s = 0.0;    ///< whole setup incl. warm-up
    double raw_total_s = 0.0; ///< total_s as measured
};

/** One executed training step. */
struct StepRecord
{
    long index = 0;     ///< training step number within its session
    double ms = 0.0;    ///< wall time as measured
    double scale = 1.0; ///< factor to reference speed (Calibrator)
    bool threw = false;
    ExecStats stats;
    std::vector<float> fwd_ms; ///< per node, as measured (traced only)
    std::vector<float> bwd_ms;

    double refMs() const { return ms * scale; }
};

/**
 * Runs @p count steps (or, when count < 0, at least one step and then
 * until @p deadline), timing each TrainLoop::step(), reading
 * Executor::stats() after it and calibrating host speed around it. A
 * step that throws is recorded and ends the run.
 */
void
runSteps(Session &s, long count, Clock::time_point deadline,
         Calibrator &cal, bool profile, std::vector<StepRecord> &out)
{
    const auto n = static_cast<size_t>(s.graph->numNodes());
    double before = cal.run();
    for (long i = 0; count < 0 ? i == 0 || Clock::now() < deadline
                               : i < count;
         ++i) {
        StepRecord rec;
        rec.index = s.steps_run++;
        const auto t0 = Clock::now();
        try {
            GIST_TRACE_SCOPE("bench", "step");
            if (!s.loop->step())
                throw std::runtime_error("training loop ended early");
        } catch (const std::exception &e) {
            std::fprintf(stderr, "step %ld threw: %s\n", rec.index,
                         e.what());
            rec.threw = true;
        }
        rec.ms = secondsSince(t0) * 1e3;
        const double after = cal.run();
        rec.scale = Calibrator::scale(before, after);
        before = after;
        rec.stats = s.exec->stats();
        if (profile) {
            rec.fwd_ms.resize(n);
            rec.bwd_ms.resize(n);
            for (size_t id = 0; id < n; ++id) {
                rec.fwd_ms[id] = static_cast<float>(
                    s.exec->lastFwdSeconds(static_cast<NodeId>(id)) * 1e3);
                rec.bwd_ms[id] = static_cast<float>(
                    s.exec->lastBwdSeconds(static_cast<NodeId>(id)) * 1e3);
            }
        }
        out.push_back(std::move(rec));
        if (out.back().threw)
            break;
        if (count >= 0 && Clock::now() > deadline)
            break;
    }
}

/**
 * Build graph, init params, build the schedule, construct and configure
 * the executor and training loop, and warm up @p warmup_steps steps
 * (whose records land in @p warmup).
 */
std::unique_ptr<Session>
setupSession(const Workload &w, const GistConfig &cfg, int threads,
             bool recompute_as_keep, std::uint64_t seed,
             const SyntheticDataset &data, Calibrator &cal, bool profile,
             int warmup_steps, std::vector<StepRecord> &warmup)
{
    auto s = std::make_unique<Session>();
    const double cal_before = cal.run();
    const double cal_spent = cal.spentMs();
    const auto t0 = Clock::now();
    {
        GIST_TRACE_SCOPE("bench", "setup");
        {
            GIST_TRACE_SCOPE("bench", "graph build + param init");
            s->graph =
                std::make_unique<Graph>(findModel(w.model).build(kBatch));
            Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
            s->graph->initParams(rng);
        }
        {
            GIST_TRACE_SCOPE("bench", "buildSchedule");
            const auto t = Clock::now();
            s->schedule = buildSchedule(*s->graph, cfg);
            if (recompute_as_keep)
                for (ScheduleDecision &d : s->schedule.decisions)
                    if (d.repr == StashPlan::Repr::Recompute)
                        d.repr = StashPlan::Repr::Dense;
            s->schedule_s = secondsSince(t);
        }
        {
            GIST_TRACE_SCOPE("bench", "executor setup");
            const auto t = Clock::now();
            s->exec = std::make_unique<Executor>(*s->graph);
            applyToExecutor(s->schedule, *s->exec);
            s->exec->setProfile(profile);
            s->exec->setCollectSparsity(profile);
            s->trainer = std::make_unique<Trainer>(*s->exec);
            TrainConfig tc;
            tc.batch_size = kBatch;
            tc.epochs = 1 << 30;
            tc.learning_rate = kLearningRate;
            tc.clip_grad_norm = kClipGradNorm;
            tc.num_threads = threads;
            s->loop = std::make_unique<TrainLoop>(*s->trainer, data, tc);
            s->exec_s = secondsSince(t);
        }
        {
            GIST_TRACE_SCOPE("bench", "warm-up");
            runSteps(*s, warmup_steps, Clock::time_point::max(), cal,
                     profile, warmup);
        }
    }
    // The warm-up steps calibrate too; that time is not setup.
    s->raw_total_s = secondsSince(t0) - (cal.spentMs() - cal_spent) * 1e-3;
    const double scale = Calibrator::scale(cal_before, cal.run());
    s->total_s = s->raw_total_s * scale;
    s->schedule_s *= scale;
    s->exec_s *= scale;
    return s;
}

// ---------------------------------------------------------------- stats

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Median over steps of a per-step quantity. */
double
perStepMedian(const std::vector<StepRecord> &steps,
              const std::function<double(const StepRecord &)> &f)
{
    std::vector<double> v;
    v.reserve(steps.size());
    for (const StepRecord &r : steps)
        v.push_back(f(r));
    return median(std::move(v));
}

// -------------------------------------------------------- verification

/** Per-step verdicts against the oracle and the memory invariants. */
struct Verifier
{
    std::vector<float> reference; ///< oracle losses of steps 0..
    bool hybrid = false;
    std::uint64_t planned_peak = 0;
    bool tiered = false;
    long attempted = 0;
    long failed = 0;
    std::string first_failure; ///< reason of the first failed step

    void
    check(const std::vector<StepRecord> &steps)
    {
        for (const StepRecord &r : steps) {
            ++attempted;
            const char *why = failure(r);
            if (why && failed++ == 0)
                first_failure =
                    "step " + std::to_string(r.index) + ": " + why;
        }
    }

    /** Why step @p r fails, or nullptr when it passes. */
    const char *
    failure(const StepRecord &r) const
    {
        if (r.threw)
            return "threw";
        if (!std::isfinite(r.stats.loss))
            return "non-finite loss";
        const auto i = static_cast<size_t>(r.index);
        if (i < reference.size() &&
            std::bit_cast<std::uint32_t>(r.stats.loss) !=
                std::bit_cast<std::uint32_t>(reference[i]))
            return "loss differs from the oracle";
        if (hybrid && r.stats.peak_pool_bytes > planned_peak)
            return "measured peak above the planned peak";
        if (!tiered && (r.stats.tier_evictions != 0 ||
                        r.stats.tier_bytes_out != 0 ||
                        r.stats.tier_bytes_in != 0))
            return "tier traffic on an uncapped workload";
        return nullptr;
    }
};

/** The oracle's losses for the first kReferenceSteps steps. */
std::vector<float>
referenceLosses(const Workload &w, std::uint64_t seed,
                const SyntheticDataset &data, Calibrator &cal)
{
    std::vector<StepRecord> steps;
    auto s = setupSession(w, w.reference, w.reference_threads,
                          w.reference_recompute_as_keep, seed, data, cal,
                          false, kReferenceSteps, steps);
    std::vector<float> out;
    for (const StepRecord &r : steps) {
        if (r.threw)
            throw std::runtime_error("reference run failed");
        out.push_back(r.stats.loss);
    }
    return out;
}

// ------------------------------------------------------- kernel replay

/** Per-family totals of one replay of a step's kernels. */
struct ReplayTotals
{
    double gemm_ms = 0.0, im2col_ms = 0.0, col2im_ms = 0.0;
    double gemm_flops = 0.0;
    std::uint64_t gemm_calls = 0, im2col_calls = 0;
};

/**
 * Replay one step's worth of gemm / im2col / col2im calls at the shapes
 * collectKernelShapes() reports for the workload's schedule. GEMMs run
 * untransposed at each (m, n, k); col2im runs at every im2col geometry
 * with the im2col call count. Each call gets its own span. Times are
 * scaled to reference speed.
 */
ReplayTotals
replayKernels(const std::vector<KernelShape> &shapes, Calibrator &cal,
              std::vector<float> &buf_a, std::vector<float> &buf_b,
              std::vector<float> &buf_c)
{
    ReplayTotals t;
    const double cal_before = cal.run();
    {
        GIST_TRACE_SCOPE("bench", "kernel replay");
        for (const KernelShape &ks : shapes) {
            if (ks.kernel == "gemm") {
                long long m = 0, n = 0, k = 0;
                if (std::sscanf(ks.shape.c_str(), "m=%lld,n=%lld,k=%lld", &m,
                                &n, &k) != 3)
                    throw std::runtime_error("bad gemm shape " + ks.shape);
                for (std::uint64_t c = 0; c < ks.calls; ++c) {
                    GIST_TRACE_SCOPE_F("bench", "replay gemm %lldx%lldx%lld",
                                       m, n, k);
                    const auto t0 = Clock::now();
                    gemm(false, false, m, n, k, 1.0f, buf_a.data(),
                         buf_b.data(), 0.0f, buf_c.data());
                    t.gemm_ms += secondsSince(t0) * 1e3;
                }
                t.gemm_calls += ks.calls;
                t.gemm_flops += 2.0 * static_cast<double>(m) *
                                static_cast<double>(n) *
                                static_cast<double>(k) *
                                static_cast<double>(ks.calls);
            } else if (ks.kernel == "im2col") {
                ConvGeometry g;
                long long v[9];
                if (std::sscanf(ks.shape.c_str(),
                                "c=%lld,h=%lld,w=%lld,kh=%lld,kw=%lld,"
                                "sh=%lld,sw=%lld,ph=%lld,pw=%lld",
                                &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                                &v[6], &v[7], &v[8]) != 9)
                    throw std::runtime_error("bad im2col shape " + ks.shape);
                g.in_c = v[0], g.in_h = v[1], g.in_w = v[2];
                g.kernel_h = v[3], g.kernel_w = v[4];
                g.stride_h = v[5], g.stride_w = v[6];
                g.pad_h = v[7], g.pad_w = v[8];
                for (std::uint64_t c = 0; c < ks.calls; ++c) {
                    GIST_TRACE_SCOPE_F("bench", "replay im2col c%lld %lldx%lld",
                                       v[0], v[1], v[2]);
                    const auto t0 = Clock::now();
                    im2col(g, buf_a.data(), buf_b.data());
                    t.im2col_ms += secondsSince(t0) * 1e3;
                }
                // col2im accumulates into the image: start from zero so
                // repeated replays never grow the values.
                std::fill_n(buf_c.begin(), g.in_c * g.in_h * g.in_w, 0.0f);
                for (std::uint64_t c = 0; c < ks.calls; ++c) {
                    GIST_TRACE_SCOPE_F("bench", "replay col2im c%lld %lldx%lld",
                                       v[0], v[1], v[2]);
                    const auto t0 = Clock::now();
                    col2im(g, buf_b.data(), buf_c.data());
                    t.col2im_ms += secondsSince(t0) * 1e3;
                }
                t.im2col_calls += ks.calls;
            }
        }
    }
    const double scale = Calibrator::scale(cal_before, cal.run());
    t.gemm_ms *= scale;
    t.im2col_ms *= scale;
    t.col2im_ms *= scale;
    return t;
}

/** Largest operand any replayed call touches, in floats. */
size_t
replayBufferFloats(const std::vector<KernelShape> &shapes)
{
    size_t most = 0;
    for (const KernelShape &ks : shapes)
        if (ks.kernel == "gemm" || ks.kernel == "im2col")
            most = std::max<size_t>(most, ks.work_bytes / 4);
    return most;
}

// ----------------------------------------------------------- reporting

struct Metric
{
    std::string name;
    double value;
    const char *unit;
    bool integral;
};

void
printResult(bool correct, long attempted, long failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (m.integral)
            std::printf("%s\"%s\": {\"value\": %.0f, \"unit\": \"%s\"}",
                        i ? ", " : "", m.name.c_str(), m.value, m.unit);
        else
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", m.name.c_str(), m.value, m.unit);
    }
    std::printf("}}\n");
}

void
printHeader(const Workload &w, const Session &s, std::uint64_t seed,
            int seconds, int trace, const std::string &source_id,
            int pool_threads, const std::string &cpus)
{
    char host[256] = "unknown";
    gethostname(host, sizeof host - 1);
    const GistConfig &c = s.schedule.config;
    const DevicePool *pool = s.exec->devicePool();
    int recompute_slots = 0;
    for (const ScheduleDecision &d : s.schedule.decisions)
        recompute_slots += d.repr == StashPlan::Repr::Recompute;
    std::printf("# gist perfbench: workload=%s seed=%llu seconds=%d "
                "trace=%d\n",
                w.name, static_cast<unsigned long long>(seed), seconds,
                trace);
    std::printf("# source: %s\n", source_id.c_str());
    std::printf("# host: %s hardware_threads=%u avx2=%d avx512f=%d\n", host,
                std::thread::hardware_concurrency(),
                __builtin_cpu_supports("avx2") ? 1 : 0,
                __builtin_cpu_supports("avx512f") ? 1 : 0);
    std::printf("# simd backend: %s\n",
                simd::backendName(simd::activeBackend()));
    std::printf("# threads: pool=%d (main thread included)%s "
                "codec_workers=%d cpus=%s\n",
                numThreads(),
                pool_threads != w.pool_threads ? " [pin overridden]" : "",
                s.exec->asyncCodec() ? s.exec->codecQueue().numWorkers() : 0,
                cpus.c_str());
    std::printf("# config: model=%s batch=%lld binarize=%d ssdc=%d dpr=%d "
                "dpr_format=%s inplace_relu=%d elide_decode=%d fused=%d "
                "async_codec=%d codec_threads=%d mem_budget_bytes=%llu "
                "device_pool_bytes=%llu tier=%s tier_bytes_per_s=%.17g\n",
                w.model, static_cast<long long>(kBatch), c.binarize, c.ssdc,
                c.dpr, dprFormatName(c.dpr_format), c.inplace_relu,
                c.elide_decode_buffer, c.fused_consume, s.exec->asyncCodec(),
                c.codec_threads,
                static_cast<unsigned long long>(c.mem_budget_bytes),
                static_cast<unsigned long long>(pool ? pool->cap() : 0),
                pool ? pool->tierKind() : "none",
                pool ? pool->config().tier_bytes_per_second : 0.0);
    if (s.schedule.hybrid.active)
        std::printf("# plan: hybrid budget=%llu planned_peak=%llu "
                    "feasible=%d recompute_slots=%d\n",
                    static_cast<unsigned long long>(
                        s.schedule.hybrid.budget_bytes),
                    static_cast<unsigned long long>(
                        s.schedule.hybrid.planned_peak_bytes),
                    s.schedule.hybrid.feasible, recompute_slots);
    std::printf("# train: sgd lr=%g momentum=0.9 clip_grad_norm=%g "
                "dataset=synthetic num_train=%lld warmup=%d setup_reps=%d "
                "reference_steps=%d\n",
                static_cast<double>(kLearningRate),
                static_cast<double>(kClipGradNorm),
                static_cast<long long>(kNumTrain), kWarmupSteps, kSetupReps,
                kReferenceSteps);
    std::printf("# times: scaled to reference host speed (calibration "
                "kernel %.2f ms)\n",
                kCalibrationRefMs);
}

/** Per-layer breakdown of one traced step, at reference speed. */
struct LayerSplit
{
    double conv_fwd = 0, conv_bwd = 0, fc_fwd = 0, fc_bwd = 0, bn = 0,
           relu = 0, pool = 0, other = 0;
    double nodes() const
    {
        return conv_fwd + conv_bwd + fc_fwd + fc_bwd + bn + relu + pool +
               other;
    }
};

LayerSplit
splitByKind(const Graph &g, const StepRecord &r)
{
    LayerSplit s;
    for (const Node &node : g.nodes()) {
        const auto id = static_cast<size_t>(node.id);
        const double f = r.fwd_ms[id] * r.scale, b = r.bwd_ms[id] * r.scale;
        switch (node.kind()) {
          case LayerKind::Conv: s.conv_fwd += f, s.conv_bwd += b; break;
          case LayerKind::Fc: s.fc_fwd += f, s.fc_bwd += b; break;
          case LayerKind::BatchNorm: s.bn += f + b; break;
          case LayerKind::Relu: s.relu += f + b; break;
          case LayerKind::MaxPool:
          case LayerKind::AvgPool: s.pool += f + b; break;
          default: s.other += f + b; break;
        }
    }
    return s;
}

/** Codec time inside the step: stall when async, else encode + decode +
 *  tier transfers; reference-speed ms. */
double
codecMs(const StepRecord &r, bool async)
{
    const ExecStats &st = r.stats;
    const double ms =
        async ? static_cast<double>(st.codec_stall_ns) * 1e-6
              : (st.encode_seconds + st.decode_seconds) * 1e3 +
                    static_cast<double>(st.tier_write_ns + st.tier_read_ns) *
                        1e-6;
    return ms * r.scale;
}

/** Step time not covered by node, codec, recompute or stall time. */
double
unattributedMs(const LayerSplit &split, const StepRecord &r, bool async)
{
    return r.refMs() - split.nodes() -
           r.stats.recompute_seconds * 1e3 * r.scale - codecMs(r, async);
}

void
writeStatsJson(std::FILE *f, const ExecStats &s)
{
    std::fprintf(
        f,
        "{\"loss\": %.9g, \"encode_seconds\": %.9g, \"decode_seconds\": "
        "%.9g, \"encoded_bytes\": %llu, \"dense_bytes_replaced\": %llu, "
        "\"peak_pool_bytes\": %llu, \"codec_stall_ns\": %llu, "
        "\"codec_stalls\": %llu, \"codec_queue_wait_ns\": %llu, "
        "\"codec_run_ns\": %llu, \"codec_queue_peak_depth\": %lld, "
        "\"recompute_seconds\": %.9g, \"recompute_segments\": %llu, "
        "\"recompute_nodes\": %llu, \"recompute_dropped_bytes\": %llu, "
        "\"overlap_efficiency\": %.9g, \"tier_evictions\": %llu, "
        "\"tier_fetches\": %llu, \"tier_bytes_out\": %llu, "
        "\"tier_bytes_in\": %llu, \"tier_write_ns\": %llu, "
        "\"tier_read_ns\": %llu}",
        static_cast<double>(s.loss), s.encode_seconds, s.decode_seconds,
        static_cast<unsigned long long>(s.encoded_bytes),
        static_cast<unsigned long long>(s.dense_bytes_replaced),
        static_cast<unsigned long long>(s.peak_pool_bytes),
        static_cast<unsigned long long>(s.codec_stall_ns),
        static_cast<unsigned long long>(s.codec_stalls),
        static_cast<unsigned long long>(s.codec_queue_wait_ns),
        static_cast<unsigned long long>(s.codec_run_ns),
        static_cast<long long>(s.codec_queue_peak_depth),
        s.recompute_seconds,
        static_cast<unsigned long long>(s.recompute_segments),
        static_cast<unsigned long long>(s.recompute_nodes),
        static_cast<unsigned long long>(s.recompute_dropped_bytes),
        s.overlap_efficiency,
        static_cast<unsigned long long>(s.tier_evictions),
        static_cast<unsigned long long>(s.tier_fetches),
        static_cast<unsigned long long>(s.tier_bytes_out),
        static_cast<unsigned long long>(s.tier_bytes_in),
        static_cast<unsigned long long>(s.tier_write_ns),
        static_cast<unsigned long long>(s.tier_read_ns));
}

/**
 * The traced run as one JSON object: the spans as Chrome trace events
 * (loadable in chrome://tracing or ui.perfetto.dev) and, per traced
 * step, its measured time, scale to reference speed, ExecStats and
 * per-node fwd/bwd profile.
 */
void
writeTraceJson(const std::string &path, const Workload &w,
               std::uint64_t seed, const std::string &source_id,
               const Graph &g, const std::vector<obs::TraceEventData> &events,
               const std::vector<StepRecord> &steps, double untraced_p50,
               double traced_p50)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write trace file " + path);
    std::fprintf(f,
                 "{\"kind\": \"gist-perfbench-trace\", \"version\": 2,\n"
                 "\"workload\": \"%s\", \"seed\": %llu, \"source\": \"%s\","
                 " \"simd\": \"%s\", \"pool_threads\": %d,\n"
                 "\"calibration_ref_ms\": %.17g,"
                 " \"untraced_step_ms_p50\": %.9g, \"traced_step_ms_p50\": "
                 "%.9g, \"trace_overhead\": %.9g,\n"
                 "\"displayTimeUnit\": \"ms\", \"traceEvents\": [",
                 w.name, static_cast<unsigned long long>(seed),
                 source_id.c_str(), simd::backendName(simd::activeBackend()),
                 numThreads(), kCalibrationRefMs, untraced_p50, traced_p50,
                 traced_p50 / untraced_p50 - 1.0);
    for (size_t i = 0; i < events.size(); ++i) {
        const obs::TraceEventData &e = events[i];
        std::fprintf(f,
                     "%s\n {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\","
                     " \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d}",
                     i ? "," : "", e.name.c_str(), e.cat.c_str(),
                     static_cast<double>(e.ts_ns) * 1e-3,
                     static_cast<double>(e.dur_ns) * 1e-3, e.tid);
    }
    std::fprintf(f, "],\n\"steps\": [");
    for (size_t i = 0; i < steps.size(); ++i) {
        const StepRecord &r = steps[i];
        std::fprintf(f,
                     "%s\n {\"step\": %ld, \"ms\": %.6f, \"scale\": %.6f,"
                     " \"stats\": ",
                     i ? "," : "", r.index, r.ms, r.scale);
        writeStatsJson(f, r.stats);
        std::fprintf(f, ", \"nodes\": [");
        for (const Node &node : g.nodes()) {
            const auto id = static_cast<size_t>(node.id);
            std::fprintf(f,
                         "%s{\"node\": \"%s\", \"kind\": \"%s\", \"fwd_ms\": "
                         "%.6f, \"bwd_ms\": %.6f}",
                         id ? ", " : "", node.name.c_str(),
                         layerKindName(node.kind()), r.fwd_ms[id],
                         r.bwd_ms[id]);
        }
        std::fprintf(f, "]}");
    }
    std::fprintf(f, "]}\n");
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write trace file " + path);
}

/**
 * Stop recording and move the recorded spans into @p out: all of them
 * when @p keep_library, else only the benchmark's own ("bench") spans,
 * which bounds the trace file on long runs.
 */
void
drainSpans(std::vector<obs::TraceEventData> &out, bool keep_library)
{
    obs::traceStop();
    for (obs::TraceEventData &e : obs::traceCollect())
        if (keep_library || e.cat == "bench")
            out.push_back(std::move(e));
    obs::traceReset();
}

// ---------------------------------------------------------------- main

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    int trace = 0;
    std::string trace_out;
    std::string source_id = "unknown";
    int pool_threads = 0;
    bool corrupt_reference = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: gist_perfbench --workload "
                 "<vgg16-lossless|resnet-hybrid|inception-tiered> --seed <n>"
                 " --seconds <s> --trace <0|1> [--trace-out <file>]"
                 " [--source-id <id>] [--pool-threads <n>]"
                 " [--corrupt-reference]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt-reference") {
            a.corrupt_reference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v, have_workload = true;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atoi(v);
        else if (flag == "--trace")
            a.trace = std::atoi(v);
        else if (flag == "--trace-out")
            a.trace_out = v;
        else if (flag == "--source-id")
            a.source_id = v;
        else if (flag == "--pool-threads")
            a.pool_threads = std::atoi(v);
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (a.seconds < 1 || (a.trace != 0 && a.trace != 1))
        usage("--seconds must be >= 1 and --trace 0 or 1");
    return a;
}

/**
 * Pin the process (and every thread it starts later) to the last @p n
 * CPUs it may run on, so each thread keeps its caches instead of being
 * migrated across the host. Returns the CPU list.
 */
std::string
pinToCpus(int n)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return "unpinned";
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    cpu_set_t set;
    CPU_ZERO(&set);
    std::string list;
    const size_t first = cpus.size() > static_cast<size_t>(n)
                             ? cpus.size() - static_cast<size_t>(n)
                             : 0;
    for (size_t i = first; i < cpus.size(); ++i) {
        CPU_SET(cpus[i], &set);
        list += (list.empty() ? "" : ",") + std::to_string(cpus[i]);
    }
    if (sched_setaffinity(0, sizeof set, &set) != 0)
        return "unpinned";
    return list;
}

/**
 * The library lets GIST_* environment variables override config knobs
 * (threads, fused, async, budget, pool cap, tier, SIMD, arena, trace
 * sinks). Every knob here is pinned, so an inherited override is an
 * error rather than a silent change of workload.
 */
void
rejectGistEnvironment()
{
    std::string found;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "GIST_", 5) == 0)
            found += std::string(found.empty() ? "" : ", ") +
                     std::string(*e, std::strcspn(*e, "="));
    if (!found.empty()) {
        std::fprintf(stderr,
                     "error: %s set; the benchmark pins every setting, "
                     "unset them\n",
                     found.c_str());
        std::exit(2);
    }
}

std::vector<double>
refStepMs(const std::vector<StepRecord> &steps)
{
    std::vector<double> v;
    for (const StepRecord &r : steps)
        v.push_back(r.refMs());
    return v;
}

/** Step-time figures of a run of steps, at reference speed. */
struct StepTimes
{
    double samples_per_s = 0.0;
    double p50_ms = 0.0, p90_ms = 0.0;
};

StepTimes
stepTimes(const std::vector<StepRecord> &steps)
{
    StepTimes t;
    double sum_ms = 0.0;
    for (const StepRecord &r : steps)
        sum_ms += r.refMs();
    const std::vector<double> ms = refStepMs(steps);
    t.samples_per_s =
        static_cast<double>(steps.size() * kBatch) / (sum_ms * 1e-3);
    t.p50_ms = quantile(ms, 0.5);
    t.p90_ms = quantile(ms, 0.9);
    return t;
}

/**
 * Split @p steps into kTimedBlocks runs of equal measured time and return
 * each one's StepTimes.
 */
std::vector<StepTimes>
blockStepTimes(const std::vector<StepRecord> &steps)
{
    double total_ms = 0.0;
    for (const StepRecord &r : steps)
        total_ms += r.ms;
    std::vector<std::vector<StepRecord>> blocks(kTimedBlocks);
    double at_ms = 0.0;
    for (const StepRecord &r : steps) {
        const auto b = static_cast<size_t>(at_ms / total_ms * kTimedBlocks);
        blocks[std::min(b, blocks.size() - 1)].push_back(r);
        at_ms += r.ms;
    }
    std::vector<StepTimes> out;
    for (const auto &block : blocks)
        if (!block.empty())
            out.push_back(stepTimes(block));
    return out;
}

int
run(const Args &args)
{
    const Workload *found = nullptr;
    static const std::vector<Workload> all = workloads();
    for (const Workload &w : all)
        if (args.workload == w.name)
            found = &w;
    if (!found)
        usage(("unknown workload " + args.workload).c_str());
    const Workload &w = *found;
    const int threads = args.pool_threads > 0 ? args.pool_threads
                                              : w.pool_threads;
    GistConfig cfg = w.gist;
    cfg.num_threads = threads;
    // CPUs and calibration follow the pinned configuration, so a
    // --pool-threads run is timed in the same units as the workload's.
    const int cpu_count =
        w.pool_threads + (cfg.async_codec ? cfg.codec_threads : 0);
    const std::string cpus = pinToCpus(cpu_count);

    SyntheticDataset::Spec spec;
    spec.num_train = kNumTrain;
    spec.num_eval = 0; // no eval pass inside timed steps
    spec.classes = models::kTinyClasses;
    spec.channels = models::kTinyChannels;
    spec.image = models::kTinyImage;
    spec.seed = args.seed;
    const SyntheticDataset data(spec);

    const bool async = cfg.async_codec;
    const bool traced_run = args.trace != 0;
    Calibrator cal(cpu_count);
    Verifier verify;
    verify.tiered = cfg.device_pool_bytes > 0;
    std::vector<std::vector<StepRecord>> warmups;
    std::vector<double> setup_s, raw_setup_s, schedule_ms, exec_ms;
    std::vector<obs::TraceEventData> spans;

    // Set up kSetupReps times; the last session set up before the timed
    // steps runs them. An untraced run does the rest of its setups after
    // the timed steps, so setup_s samples host speed at both ends of the
    // run. A traced run does all of them first, records their spans and
    // profiles their warm-up.
    std::unique_ptr<Session> s;
    auto setUp = [&] {
        s.reset();
        warmups.emplace_back();
        s = setupSession(w, cfg, threads, false, args.seed, data, cal,
                         traced_run, kWarmupSteps, warmups.back());
        setup_s.push_back(s->total_s);
        raw_setup_s.push_back(s->raw_total_s);
        schedule_ms.push_back(s->schedule_s * 1e3);
        exec_ms.push_back(s->exec_s * 1e3);
    };
    const int setups_first = traced_run ? kSetupReps : (kSetupReps + 1) / 2;
    if (traced_run)
        obs::traceStart("");
    for (int r = 0; r < setups_first; ++r)
        setUp();
    if (traced_run)
        drainSpans(spans, true);
    printHeader(w, *s, args.seed, args.seconds, args.trace, args.source_id,
                threads, cpus);

    const HybridPlan &plan = s->schedule.hybrid;
    bool run_ok = true;
    auto runCheck = [&run_ok](bool ok, const char *what) {
        std::printf("# check %s: %s\n", what, ok ? "ok" : "FAILED");
        run_ok = run_ok && ok;
    };
    if (w.gist.mem_budget_bytes > 0) {
        int recompute_slots = 0;
        for (const ScheduleDecision &d : s->schedule.decisions)
            recompute_slots += d.repr == StashPlan::Repr::Recompute;
        runCheck(plan.active && plan.feasible && recompute_slots > 0,
                 "hybrid plan feasible with recompute slots");
        verify.hybrid = true;
        verify.planned_peak = plan.planned_peak_bytes;
    }

    // ---- timed steps. Untraced: one block for --seconds. Traced:
    // untraced and traced blocks alternate, so both see the same mix of
    // host speed and trace_overhead compares like with like.
    std::vector<StepRecord> timed, traced;
    const auto end = Clock::now() + std::chrono::seconds(args.seconds);
    if (!traced_run) {
        runSteps(*s, -1, end, cal, false, timed);
    } else {
        bool first_traced_block = true;
        for (bool tracing = false; Clock::now() < end || traced.empty();
             tracing = !tracing) {
            // At least one traced block runs, however short --seconds.
            s->exec->setProfile(tracing);
            s->exec->setCollectSparsity(tracing);
            if (tracing)
                obs::traceStart("");
            runSteps(*s, -1, std::min(end, Clock::now() + kTraceBlock), cal,
                     tracing, tracing ? traced : timed);
            if (tracing) {
                drainSpans(spans, first_traced_block);
                first_traced_block = false;
            }
            if (!timed.empty() && timed.back().threw)
                break;
            if (!traced.empty() && traced.back().threw)
                break;
        }
    }
    const std::size_t workspace_bytes =
        WorkspaceArena::instance().reservedBytes();
    for (int r = setups_first; r < kSetupReps; ++r)
        setUp();
    std::uint64_t tier_evictions = 0;
    for (const auto *steps : { &timed, &traced })
        for (const StepRecord &r : *steps)
            tier_evictions += r.stats.tier_evictions;
    if (verify.tiered)
        runCheck(tier_evictions > 0, "capped pool evicts to the tier");

    // ---- kernel replay at the workload's shapes (traced runs only)
    ReplayTotals replay_median;
    if (traced_run) {
        const std::vector<KernelShape> shapes =
            collectKernelShapes(*s->graph, s->schedule);
        const size_t floats = replayBufferFloats(shapes);
        std::vector<float> a(floats), b(floats), c(floats);
        Rng rng(args.seed + 99);
        for (float &x : a)
            x = rng.uniform(-1.0f, 1.0f);
        for (float &x : b)
            x = rng.uniform(-1.0f, 1.0f);
        std::vector<ReplayTotals> reps;
        for (int r = 0; r < kReplayReps; ++r) {
            obs::traceStart("");
            reps.push_back(replayKernels(shapes, cal, a, b, c));
            drainSpans(spans, r == 0);
        }
        auto med = [&reps](double ReplayTotals::*field) {
            std::vector<double> v;
            for (const ReplayTotals &t : reps)
                v.push_back(t.*field);
            return median(std::move(v));
        };
        replay_median = reps.front();
        replay_median.gemm_ms = med(&ReplayTotals::gemm_ms);
        replay_median.im2col_ms = med(&ReplayTotals::im2col_ms);
        replay_median.col2im_ms = med(&ReplayTotals::col2im_ms);
    }

    // ---- oracle (after timing, so it shares no arena or cache state)
    const Graph &g = *s->graph;
    verify.reference = referenceLosses(w, args.seed, data, cal);
    if (args.corrupt_reference)
        verify.reference[0] = std::bit_cast<float>(
            std::bit_cast<std::uint32_t>(verify.reference[0]) ^ 1u);
    for (const auto &warm : warmups)
        verify.check(warm);
    verify.check(timed);
    verify.check(traced);
    std::printf("# verify: %ld steps checked, %ld failed (first %d against "
                "the oracle bit for bit)%s%s\n",
                verify.attempted, verify.failed, kReferenceSteps,
                verify.failed ? "; first failure: " : "",
                verify.first_failure.c_str());

    const std::vector<double> step_ms = refStepMs(timed);
    const double p50 = quantile(step_ms, 0.5);
    const double p90 = quantile(step_ms, 0.9);
    std::vector<Metric> metrics;
    if (!traced_run) {
        double raw_sum_s = 0.0;
        std::vector<double> raw_ms, scales;
        std::uint64_t peak_pool = 0;
        for (const StepRecord &r : timed) {
            raw_sum_s += r.ms * 1e-3;
            raw_ms.push_back(r.ms);
            scales.push_back(r.scale);
            peak_pool = std::max(peak_pool, r.stats.peak_pool_bytes);
        }
        std::printf("# measured: samples_per_s %.1f step_ms p50 %.3f p90 "
                    "%.3f setup_s %.4f; host speed scale p10 %.3f p50 %.3f "
                    "p90 %.3f\n",
                    static_cast<double>(timed.size() * kBatch) / raw_sum_s,
                    quantile(raw_ms, 0.5), quantile(raw_ms, 0.9),
                    median(raw_setup_s), quantile(scales, 0.1),
                    quantile(scales, 0.5), quantile(scales, 0.9));
        const StepTimes whole = stepTimes(timed);
        std::printf("# at reference speed: samples_per_s %.1f over %zu "
                    "timed steps; step_ms p50 %.3f p90 %.3f\n",
                    whole.samples_per_s, timed.size(), p50, p90);
        const std::vector<StepTimes> blocks = blockStepTimes(timed);
        std::vector<double> block_sps, block_p50, block_p90;
        for (size_t i = 0; i < blocks.size(); ++i) {
            block_sps.push_back(blocks[i].samples_per_s);
            block_p50.push_back(blocks[i].p50_ms);
            block_p90.push_back(blocks[i].p90_ms);
            std::printf("#   block %zu: samples_per_s %.1f step_ms p50 %.3f "
                        "p90 %.3f\n",
                        i, blocks[i].samples_per_s, blocks[i].p50_ms,
                        blocks[i].p90_ms);
        }
        const size_t per_block = timed.size() / blocks.size();
        std::printf("# reported: median of %zu blocks of ~%zu steps%s\n",
                    blocks.size(), per_block,
                    per_block < 100 ? " [block p90 has < 10 steps beyond it]"
                                    : "");
        metrics = {
            { "samples_per_s", median(block_sps), "samples/s", false },
            { "step_ms_p50", median(block_p50), "ms", false },
            { "step_ms_p90", median(block_p90), "ms", false },
            { "peak_pool_bytes", static_cast<double>(peak_pool), "bytes",
              true },
            { "workspace_bytes", static_cast<double>(workspace_bytes),
              "bytes", true },
            { "setup_s", median(setup_s), "s", false },
        };
    } else {
        std::vector<LayerSplit> splits;
        for (const StepRecord &r : traced)
            splits.push_back(splitByKind(g, r));
        auto splitMedian = [&splits](double LayerSplit::*field) {
            std::vector<double> v;
            for (const LayerSplit &sp : splits)
                v.push_back(sp.*field);
            return median(std::move(v));
        };
        std::vector<double> unattributed;
        for (size_t i = 0; i < traced.size(); ++i)
            unattributed.push_back(
                unattributedMs(splits[i], traced[i], async));
        // ReLU output sparsity of the last traced step, element-weighted.
        double zeros = 0.0, total = 0.0;
        for (const Node &node : g.nodes()) {
            const double sp = s->exec->lastSparsity(node.id);
            if (node.kind() == LayerKind::Relu && sp >= 0.0) {
                const auto numel = static_cast<double>(node.out_shape.numel());
                zeros += sp * numel;
                total += numel;
            }
        }
        std::uint64_t modeled_peak = s->schedule.hybrid.planned_peak_bytes;
        if (!s->schedule.hybrid.active)
            modeled_peak = summarize(planBuffers(g, s->schedule,
                                                 SparsityModel{}),
                                     false)
                               .pool_dynamic;
        std::uint64_t traced_peak = 0;
        for (const StepRecord &r : traced)
            traced_peak = std::max(traced_peak, r.stats.peak_pool_bytes);
        const double traced_p50 = median(refStepMs(traced));
        const double overhead = traced_p50 / p50 - 1.0;

        using S = const StepRecord &;
        auto stat = [&traced](const std::function<double(S)> &f) {
            return perStepMedian(traced, f);
        };
        auto statMs = [&traced](double ExecStats::*seconds) {
            return perStepMedian(traced, [seconds](S r) {
                return r.stats.*seconds * 1e3 * r.scale;
            });
        };
        auto statNsMs = [&traced](std::uint64_t ExecStats::*ns) {
            return perStepMedian(traced, [ns](S r) {
                return static_cast<double>(r.stats.*ns) * 1e-6 * r.scale;
            });
        };
        auto count = [&traced](std::uint64_t ExecStats::*field) {
            return perStepMedian(traced, [field](S r) {
                return static_cast<double>(r.stats.*field);
            });
        };
        const ReplayTotals &rp = replay_median;
        metrics = {
            { "core.schedule_ms", median(schedule_ms), "ms", false },
            { "graph.setup_ms", median(exec_ms), "ms", false },
            { "core.modeled_peak_bytes", static_cast<double>(modeled_peak),
              "bytes", true },
            { "core.peak_model_ratio",
              static_cast<double>(traced_peak) /
                  static_cast<double>(modeled_peak),
              "ratio", false },
            { "layers.conv_fwd_ms", splitMedian(&LayerSplit::conv_fwd),
              "ms", false },
            { "layers.conv_bwd_ms", splitMedian(&LayerSplit::conv_bwd),
              "ms", false },
            { "layers.fc_fwd_ms", splitMedian(&LayerSplit::fc_fwd), "ms",
              false },
            { "layers.fc_bwd_ms", splitMedian(&LayerSplit::fc_bwd), "ms",
              false },
            { "layers.bn_ms", splitMedian(&LayerSplit::bn), "ms", false },
            { "layers.relu_ms", splitMedian(&LayerSplit::relu), "ms",
              false },
            { "layers.pool_ms", splitMedian(&LayerSplit::pool), "ms",
              false },
            { "layers.other_ms", splitMedian(&LayerSplit::other), "ms",
              false },
            { "tensor.gemm_ms", rp.gemm_ms, "ms", false },
            { "tensor.gemm_gflops",
              rp.gemm_ms > 0 ? rp.gemm_flops / (rp.gemm_ms * 1e6) : 0.0,
              "GFLOP/s", false },
            { "tensor.im2col_ms", rp.im2col_ms, "ms", false },
            { "tensor.col2im_ms", rp.col2im_ms, "ms", false },
            { "tensor.gemm_calls", static_cast<double>(rp.gemm_calls),
              "count", true },
            { "tensor.im2col_calls", static_cast<double>(rp.im2col_calls),
              "count", true },
            { "encodings.encode_ms", statMs(&ExecStats::encode_seconds),
              "ms", false },
            { "encodings.decode_ms", statMs(&ExecStats::decode_seconds),
              "ms", false },
            { "encodings.encoded_bytes", count(&ExecStats::encoded_bytes),
              "bytes", true },
            { "encodings.compression_ratio", stat([](S r) {
                  return r.stats.encoded_bytes
                             ? static_cast<double>(
                                   r.stats.dense_bytes_replaced) /
                                   static_cast<double>(r.stats.encoded_bytes)
                             : 0.0;
              }),
              "ratio", false },
            { "encodings.relu_sparsity", total > 0 ? zeros / total : 0.0,
              "ratio", false },
            { "graph.recompute_ms", statMs(&ExecStats::recompute_seconds),
              "ms", false },
            { "graph.recompute_nodes", count(&ExecStats::recompute_nodes),
              "count", true },
            { "graph.unattributed_ms", median(unattributed), "ms", false },
            { "util.codec_stall_ms", statNsMs(&ExecStats::codec_stall_ns),
              "ms", false },
            { "util.codec_queue_wait_ms",
              statNsMs(&ExecStats::codec_queue_wait_ns), "ms", false },
            { "util.overlap_efficiency",
              stat([](S r) { return r.stats.overlap_efficiency; }), "ratio",
              false },
            { "memory.tier_evictions", count(&ExecStats::tier_evictions),
              "count", true },
            { "memory.tier_bytes_out", count(&ExecStats::tier_bytes_out),
              "bytes", true },
            { "memory.tier_bytes_in", count(&ExecStats::tier_bytes_in),
              "bytes", true },
            { "memory.tier_write_ms", statNsMs(&ExecStats::tier_write_ns),
              "ms", false },
            { "memory.tier_read_ms", statNsMs(&ExecStats::tier_read_ns),
              "ms", false },
            { "memory.arena_high_water_bytes",
              static_cast<double>(
                  WorkspaceArena::instance().highWaterBytes()),
              "bytes", true },
            { "train.trace_overhead", overhead, "ratio", false },
        };
        // Shares of the traced step (median of per-step shares).
        auto share = [&traced](const std::function<double(size_t)> &part) {
            std::vector<double> v;
            for (size_t i = 0; i < traced.size(); ++i)
                v.push_back(part(i) / traced[i].refMs());
            return median(std::move(v));
        };
        std::printf(
            "# traced step shares: conv %.3f codec %.3f recompute %.3f "
            "tier %.3f unattributed %.3f\n",
            share([&](size_t i) {
                return splits[i].conv_fwd + splits[i].conv_bwd;
            }),
            share([&](size_t i) { return codecMs(traced[i], async); }),
            share([&](size_t i) {
                return traced[i].stats.recompute_seconds * 1e3 *
                       traced[i].scale;
            }),
            share([&](size_t i) {
                return static_cast<double>(traced[i].stats.tier_write_ns +
                                           traced[i].stats.tier_read_ns) *
                       1e-6 * traced[i].scale;
            }),
            share([&](size_t i) { return unattributed[i]; }));
        if (!args.trace_out.empty()) {
            writeTraceJson(args.trace_out, w, args.seed, args.source_id, g,
                           spans, traced, p50, traced_p50);
            std::printf("# trace written to %s (%zu traced steps, %zu "
                        "spans)\n",
                        args.trace_out.c_str(), traced.size(), spans.size());
        }
        std::printf("# traced step_ms p50 %.3f (n=%zu) vs untraced %.3f "
                    "(n=%zu), alternating %lld ms blocks\n",
                    traced_p50, traced.size(), p50, timed.size(),
                    static_cast<long long>(kTraceBlock.count()));
    }

    for (const Metric &m : metrics)
        std::printf("# %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    printResult(run_ok && verify.failed == 0, verify.attempted,
                verify.failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    rejectGistEnvironment();
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
