#!/usr/bin/env bash
# Run the thread-scaling microbenchmark (micro_parallel) and the SIMD
# backend microbenchmark (micro_simd) and record their JSON so both
# trajectories can be tracked across PRs. Each run is appended (one
# compact JSON object per line, stamped with commit and UTC date) to a
# trajectory file at the repo root (the commit reads <sha>-dirty when
# src/ or bench/ differ from it); micro_simd records carry
# "bench":"micro_simd" to distinguish them from the scaling records.
#
# Usage: scripts/run_micro_parallel.sh [build-dir] [threads] [out.json] [trajectory]
#   build-dir   defaults to build
#   threads     defaults to 0 (auto: GIST_THREADS env, then hardware)
#   out.json    defaults to <build-dir>/bench/micro_parallel.json
#   trajectory  defaults to <repo-root>/BENCH_parallel.json
set -euo pipefail
build="${1:-build}"
threads="${2:-0}"
out="${3:-$build/bench/micro_parallel.json}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
trajectory="${4:-$repo_root/BENCH_parallel.json}"

bin="$build/bench/micro_parallel"
[ -x "$bin" ] || {
    echo "error: $bin not built (cmake --build $build --target micro_parallel)" >&2
    exit 1
}

"$bin" "$threads" --json "$out"
echo "scaling record: $out"

simd_bin="$build/bench/micro_simd"
simd_out="${out%.json}_simd.json"
if [ -x "$simd_bin" ]; then
    "$simd_bin" --json "$simd_out"
    echo "simd record: $simd_out"
else
    echo "warning: $simd_bin not built, skipping SIMD record" >&2
    simd_out=""
fi

if command -v python3 >/dev/null 2>&1; then
    commit="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
    # Built from uncommitted changes: say so rather than claim HEAD.
    if [ "$commit" != unknown ] &&
        ! git -C "$repo_root" diff --quiet HEAD -- src bench 2>/dev/null; then
        commit="$commit-dirty"
    fi
    out="$out" simd_out="$simd_out" trajectory="$trajectory" \
        commit="$commit" python3 - <<'EOF'
import json, os, datetime

date = datetime.datetime.now(datetime.timezone.utc).strftime(
    "%Y-%m-%dT%H:%M:%SZ")
paths = [os.environ["out"]]
if os.environ.get("simd_out"):
    paths.append(os.environ["simd_out"])
with open(os.environ["trajectory"], "a") as f:
    for path in paths:
        record = json.load(open(path))
        record["commit"] = os.environ["commit"]
        record["date"] = date
        f.write(json.dumps(record, separators=(",", ":")) + "\n")
EOF
    echo "trajectory: $trajectory ($(wc -l < "$trajectory") runs)"
else
    echo "warning: python3 not found, trajectory file not updated" >&2
fi
