/**
 * @file
 * Profiling a Gist training run: per-layer forward/backward times, the
 * per-step resident-memory trace (the executor-side realization of the
 * paper's Figure 2 lifetime picture), and the peak with vs without the
 * encodings. Optionally dumps the memory trace as CSV:
 *
 *   profile_training [trace.csv]
 *
 * With GIST_TRACE=<file.json> and/or GIST_METRICS=<file.jsonl> set, a
 * short training run is added so both observability artifacts cover the
 * full step/epoch loop:
 *
 *   GIST_TRACE=trace.json GIST_METRICS=metrics.jsonl ./profile_training
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/gist.hpp"
#include "models/tiny.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace gist;

namespace {

struct RunResult
{
    std::uint64_t peak = 0;
    std::vector<MemoryTracePoint> trace;
};

RunResult
profileOne(const GistConfig &cfg, Graph &g, bool print_layers)
{
    Rng rng(1);
    g.initParams(rng);
    Executor exec(g);
    applyToExecutor(buildSchedule(g, cfg), exec);
    exec.setProfile(true);

    Rng drng(2);
    Tensor batch = Tensor::uniform(g.node(0).out_shape, drng, 0.0f, 1.0f);
    std::vector<std::int32_t> labels;
    for (std::int64_t i = 0; i < batch.shape().n(); ++i)
        labels.push_back(
            static_cast<std::int32_t>(i % models::kTinyClasses));
    exec.runMinibatch(batch, labels);

    if (print_layers) {
        // Top-5 layers by fwd+bwd time.
        std::vector<NodeId> ids;
        for (const auto &node : g.nodes())
            if (node.kind() != LayerKind::Input)
                ids.push_back(node.id);
        std::sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
            return exec.lastFwdSeconds(a) + exec.lastBwdSeconds(a) >
                   exec.lastFwdSeconds(b) + exec.lastBwdSeconds(b);
        });
        Table table({ "layer", "kind", "fwd ms", "bwd ms" });
        for (size_t i = 0; i < std::min<size_t>(5, ids.size()); ++i) {
            const auto &node = g.node(ids[i]);
            char f[32];
            std::snprintf(f, sizeof(f), "%.3f",
                          exec.lastFwdSeconds(ids[i]) * 1e3);
            char b[32];
            std::snprintf(b, sizeof(b), "%.3f",
                          exec.lastBwdSeconds(ids[i]) * 1e3);
            table.addRow({ node.name, layerKindName(node.kind()), f, b });
        }
        std::printf("five slowest layers (one minibatch):\n");
        table.print();
    }
    return { exec.stats().peak_pool_bytes, exec.memoryTrace() };
}

} // namespace

int
main(int argc, char **argv)
{
    Graph g = models::tinyVgg(32);
    std::printf("profiling one tiny-VGG training minibatch (batch 32)\n\n");

    const RunResult base =
        profileOne(GistConfig::baseline(), g, /*print_layers=*/true);
    const RunResult gist =
        profileOne(GistConfig::lossy(DprFormat::Fp16), g, false);

    std::printf("\nresident fmap-pool peak: baseline %s -> gist %s "
                "(%s saved)\n",
                formatBytes(base.peak).c_str(),
                formatBytes(gist.peak).c_str(),
                formatPercent(1.0 - double(gist.peak) /
                                        double(base.peak)).c_str());

    // Condensed memory trace: resident bytes at a few schedule points.
    std::printf("\nmemory over the schedule (fwd steps then bwd steps):\n");
    const auto &trace = base.trace;
    for (size_t i = 0; i < trace.size(); i += trace.size() / 12 + 1)
        std::printf("  step %3d: baseline %10s  gist %10s\n",
                    trace[i].step,
                    formatBytes(trace[i].bytes).c_str(),
                    formatBytes(gist.trace[i].bytes).c_str());

    if (argc > 1) {
        std::ofstream csv(argv[1]);
        csv << "step,baseline_bytes,gist_bytes\n";
        for (size_t i = 0; i < trace.size(); ++i)
            csv << trace[i].step << ',' << trace[i].bytes << ','
                << gist.trace[i].bytes << '\n';
        std::printf("\nwrote %zu trace rows to %s\n", trace.size(),
                    argv[1]);
    }

    // With a tracer or metrics sink open, run a few real training steps
    // so the artifacts cover the trainer's step/epoch loop too.
    if (obs::traceEnabled() || obs::metricsEnabled()) {
        std::printf("\nshort training run for the observability "
                    "artifacts...\n");
        Graph tg = models::tinyVgg(32);
        Rng rng(3);
        tg.initParams(rng);
        Executor exec(tg);
        applyToExecutor(
            buildSchedule(tg, GistConfig::lossy(DprFormat::Fp16)), exec);
        Trainer trainer(exec);

        SyntheticDataset::Spec spec;
        spec.num_train = 96;
        spec.num_eval = 32;
        spec.classes = models::kTinyClasses;
        spec.image = models::kTinyImage;
        SyntheticDataset data(spec);

        TrainConfig tc;
        tc.epochs = 1;
        trainer.run(data, tc);

        if (obs::metricsEnabled())
            std::printf("step metrics: %s\n", obs::metricsPath().c_str());
        if (obs::traceEnabled()) {
            const std::string path = obs::tracePath();
            obs::traceStop(); // writes the Chrome trace now
            if (!path.empty())
                std::printf("trace: %s (open in chrome://tracing or "
                            "ui.perfetto.dev)\n",
                            path.c_str());
        }
    }
    return 0;
}
