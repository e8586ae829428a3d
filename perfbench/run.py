#!/usr/bin/env python3
"""Build and run the training-step benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the repository's src/
libraries) into .bench_build/perfbench, then runs the benchmark binary.
Build output goes to stderr; the binary's stdout is passed through, so
the last line printed is its JSON result. With --trace 1 the spans and
per-step stats are written to perfbench/out/. Exits nonzero, printing no
result, when the sources are missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gist_perfbench")
RUN_TIMEOUT_S = 170


def source_id():
    """Content hash of the sources the binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:%s,commit:%s" % (digest.hexdigest()[:16],
                                         git_commit())


def git_commit():
    """The checked-out commit id, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head  # detached HEAD holds the id itself
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unborn:" + ref


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("error: repository sources (src/) not found\n")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", BUILD, "--target", "gist_perfbench",
              "-j", "4"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write("error: %s failed\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if not build():
        return 1
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args else "unknown"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        args += ["--trace-out",
                 os.path.join(out_dir, "trace-%s-seed%s.json" % (workload,
                                                                 seed))]
    cmd = [BINARY] + args + ["--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
