/**
 * @file
 * Extension study: CDMA (the paper's reference [42]) — vDNN whose DMA
 * path compresses sparse feature maps before they cross PCIe.
 *
 * Two views:
 *  1. measured: the real tiered-memory engine on this CPU. Every stash
 *     slot of a tiny model is swapped through the DevicePool's slow
 *     tier (throttled in-memory tier = deterministic link speed) under
 *     three strategies: naive synchronous swap, vDNN-style overlapped
 *     swap with backward-order prefetch, and overlapped swap with
 *     CSR/DPR-compressed transfers (the cDMA idea). An unbounded
 *     no-swap run anchors the overheads.
 *  2. modeled: the original analytic comparison on full-scale networks
 *     with Titan-X parameters.
 *
 * Usage: ext_cdma [--steps <n>] [--tier-gbps <f>] [--model <name>]
 *                 [--json <path>]
 *   --tier-gbps  slow-link throttle for the measured arms (default 1.5)
 *   --json       write a {"bench":"ext_cdma","rows":[...]} record for
 *                the BENCH_parallel.json trajectory (regression gate)
 */

#include <cstring>
#include <string>

#include "baselines/swap_sim.hpp"
#include "bench_common.hpp"
#include "models/zoo.hpp"
#include "tiered_arms.hpp"

using namespace gist;

int
main(int argc, char **argv)
{
    bench::applyObsFlags(argc, argv);
    int steps = 5;
    double tier_gbps = 1.5;
    std::string json_path;
    std::string model_name = "ResNet";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--steps") == 0)
            steps = std::max(1, std::atoi(argv[i + 1]));
        else if (std::strcmp(argv[i], "--json") == 0)
            json_path = argv[i + 1];
        else if (std::strcmp(argv[i], "--model") == 0)
            model_name = argv[i + 1];
    }
    tier_gbps = bench::tierGbpsFlag(argc, argv, tier_gbps);

    bench::banner("Extension", "vDNN + compressed DMA (CDMA)",
                  "CDMA shrinks vDNN's transfer volume using activation "
                  "sparsity; Gist avoids PCIe entirely");

    const models::ModelEntry *entry = nullptr;
    for (const auto &e : models::tinyModels())
        if (model_name == e.name)
            entry = &e;
    if (!entry) {
        std::fprintf(stderr, "unknown --model '%s'\n",
                     model_name.c_str());
        return 2;
    }
    const std::int64_t batch = 32;

    std::printf("\n(a) measured on this CPU (%s batch %lld, slow tier "
                "throttled to %.1f GB/s):\n",
                entry->name.c_str(), static_cast<long long>(batch),
                tier_gbps);

    GistConfig raw = GistConfig::baseline();
    raw.tier_bandwidth_bytes_per_s = tier_gbps * 1e9;
    // Compressed transfers: same stash set as the raw arms (no
    // Binarize rewriting), CSR for ReluConv slots, DPR for the rest.
    GistConfig comp = raw;
    comp.ssdc = true;
    comp.dpr = true;
    comp.dpr_format = DprFormat::Fp16;

    struct ArmRow
    {
        const char *name;
        bench::TieredArm arm;
    };
    const ArmRow rows[] = {
        { "unbounded",
          bench::runTieredArm(*entry, batch, raw, false, false, steps) },
        { "naive-swap",
          bench::runTieredArm(*entry, batch, raw, true, false, steps) },
        { "vdnn-overlap",
          bench::runTieredArm(*entry, batch, raw, true, true, steps) },
        { "vdnn-cdma",
          bench::runTieredArm(*entry, batch, comp, true, true, steps) },
    };
    const double base_s = rows[0].arm.s_per_mb;

    Table measured({ "strategy", "s/mb", "overhead", "bytes out/step",
                     "transfer s", "stall s", "peak pool" });
    for (const ArmRow &r : rows) {
        char t[32];
        std::snprintf(t, sizeof t, "%.4f", r.arm.s_per_mb);
        char xs[32];
        std::snprintf(xs, sizeof xs, "%.4f", r.arm.tier_seconds);
        char ss[32];
        std::snprintf(ss, sizeof ss, "%.4f", r.arm.stall_seconds);
        measured.addRow(
            { r.name, t,
              base_s > 0.0
                  ? bench::percentOrNa(r.arm.s_per_mb / base_s - 1.0)
                  : "n/a",
              bench::mb(r.arm.bytes_out / std::max(1, steps)), xs, ss,
              bench::mb(r.arm.peak_bytes) });
    }
    measured.print();
    bench::note("naive-swap transfers inline on the main thread (its "
                "stall is the whole transfer time; codec-join stalls "
                "read zero in sync mode). vdnn arms overlap transfers "
                "on the link worker with backward-order prefetch; cdma "
                "additionally CSR/DPR-compresses each eviction, so "
                "fewer bytes cross the throttled link.");

    std::printf("\n(b) modeled on Titan-X parameters, full-scale "
                "networks:\n");
    const GpuModelParams params;
    const SparsityModel sparsity;
    Table table({ "network", "vDNN", "vDNN+CDMA", "Gist (lossy)" });
    std::vector<double> v_all;
    std::vector<double> c_all;
    std::vector<double> g_all;
    for (const auto &e : models::allModels()) {
        Graph g = e.build(64);
        const auto vdnn = simulateVdnn(g, params);
        const auto cdma = simulateVdnnCompressed(g, params, sparsity);
        const double gist = gistOverheadModel(
            g, GistConfig::lossy(DprFormat::Fp16), sparsity, params);
        v_all.push_back(vdnn.overheadFraction());
        c_all.push_back(cdma.overheadFraction());
        g_all.push_back(gist);
        table.addRow({ e.name,
                       bench::percentOrNa(vdnn.overheadFraction()),
                       bench::percentOrNa(cdma.overheadFraction()),
                       formatPercent(gist) });
    }
    table.addSeparator();
    table.addRow({ "average", bench::percentOrNa(mean(v_all)),
                   bench::percentOrNa(mean(c_all)),
                   formatPercent(mean(g_all)) });
    table.print();
    bench::note("CDMA modeled as CSR (narrow-index) compression of each "
                "swapped map at the planner's sparsity assumptions; "
                "compression never expands a transfer (dense fallback).");

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f,
                     "{\n  \"bench\": \"ext_cdma\",\n"
                     "  \"model\": \"%s\",\n  \"batch\": %lld,\n"
                     "  \"tier_gbps\": %.3f,\n  \"rows\": [\n",
                     entry->name.c_str(), static_cast<long long>(batch),
                     tier_gbps);
        for (size_t i = 0; i < 4; ++i) {
            const ArmRow &r = rows[i];
            std::fprintf(
                f,
                "    {\"arm\": \"%s\", \"s_per_mb\": %.6f, "
                "\"mb_per_s\": %.4f, \"stall_seconds\": %.6f, "
                "\"tier_seconds\": %.6f, \"bytes_out\": %llu, "
                "\"bytes_in\": %llu, \"evictions\": %llu, "
                "\"peak_pool_bytes\": %llu}%s\n",
                r.name, r.arm.s_per_mb,
                r.arm.s_per_mb > 0.0 ? 1.0 / r.arm.s_per_mb : 0.0,
                r.arm.stall_seconds, r.arm.tier_seconds,
                static_cast<unsigned long long>(r.arm.bytes_out),
                static_cast<unsigned long long>(r.arm.bytes_in),
                static_cast<unsigned long long>(r.arm.evictions),
                static_cast<unsigned long long>(r.arm.peak_bytes),
                i + 1 < 4 ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("json written to %s\n", json_path.c_str());
    }
    return 0;
}
