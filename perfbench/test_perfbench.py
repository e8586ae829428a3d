#!/usr/bin/env python3
"""Self-tests of the training-step benchmark, at a short run length.

    python3 perfbench/test_perfbench.py

Builds through run.py, then checks that every workload emits exactly the
metrics BENCHMARK.json names, with their units, and passes verification
on two seeds; that a corrupted oracle loss is reported as failed steps;
that an inherited GIST_* override is refused; that the traced run writes
its spans and per-step stats; that the source id names a commit; and
that the benchmark refuses to run without the repository sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("vgg16-lossless", "resnet-hybrid", "inception-tiered")
SECONDS = "1"


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("GIST_")}


def bench(workload, seed, trace, *extra, env=None):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)] + list(extra),
        cwd=ROOT, capture_output=True, text=True,
        env=env if env is not None else clean_env(), timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {}
        for w in WORKLOADS:
            cls.runs[(w, 0)] = result(bench(w, 1, 0))
            cls.runs[(w, 1)] = result(bench(w, 2, 1))

    def check_metrics(self, res, declared):
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in res["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         WORKLOADS)

    def test_end_to_end_metrics_emitted_with_units(self):
        for w in WORKLOADS:
            res = self.runs[(w, 0)]
            self.check_metrics(res, self.spec["end_to_end"])
            for name, metric in res["metrics"].items():
                self.assertGreater(metric["value"], 0, (w, name))

    def test_per_layer_metrics_emitted_with_units(self):
        for w in WORKLOADS:
            self.check_metrics(self.runs[(w, 1)], self.spec["per_layer"])

    def test_gemm_rate_is_gflops(self):
        units = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(units["tensor.gemm_gflops"], "GFLOP/s")
        for w in WORKLOADS:
            self.assertGreater(
                self.runs[(w, 1)]["metrics"]["tensor.gemm_gflops"]["value"],
                0.1)

    def test_two_seeds_verify_clean(self):
        for (w, trace), res in self.runs.items():
            self.assertTrue(res["correct"], (w, trace))
            self.assertEqual(res["failed"], 0, (w, trace))
            self.assertGreaterEqual(res["attempted"], 10, (w, trace))

    def test_tier_counters_only_on_tiered_workload(self):
        tier = ("memory.tier_evictions", "memory.tier_bytes_out",
                "memory.tier_bytes_in")
        for w in WORKLOADS:
            m = self.runs[(w, 1)]["metrics"]
            for name in tier:
                if w == "inception-tiered":
                    self.assertGreater(m[name]["value"], 0, name)
                else:
                    self.assertEqual(m[name]["value"], 0, (w, name))

    def test_hybrid_peak_within_model(self):
        m = self.runs[("resnet-hybrid", 1)]["metrics"]
        self.assertLessEqual(m["core.peak_model_ratio"]["value"], 1.0)
        self.assertGreater(m["graph.recompute_nodes"]["value"], 0)

    def test_trace_file_has_spans_and_steps(self):
        path = os.path.join(HERE, "out", "trace-resnet-hybrid-seed2.json")
        with open(path) as f:
            trace = json.load(f)
        events = trace["traceEvents"]
        names = {e["name"] for e in events if e["cat"] == "bench"}
        for want in ("buildSchedule", "executor setup", "step",
                     "kernel replay"):
            self.assertIn(want, names)
        self.assertTrue(any(n.startswith("replay gemm ") for n in names))
        self.assertTrue(any(n.startswith("replay col2im ") for n in names))
        # The library's own spans (fwd/bwd/gemm) are recorded too.
        self.assertTrue(any(e["cat"] == "compute" for e in events))
        self.assertTrue(all(e["ph"] == "X" for e in events))
        self.assertIn("trace_overhead", trace)
        step = trace["steps"][0]
        self.assertIn("peak_pool_bytes", step["stats"])
        self.assertGreater(step["scale"], 0)
        self.assertTrue(any(n["kind"] == "Conv" for n in step["nodes"]))

    def test_source_id_names_a_commit(self):
        sys.path.insert(0, HERE)
        import run
        root = run.ROOT
        with tempfile.TemporaryDirectory() as tmp:
            git = os.path.join(tmp, ".git")
            os.makedirs(os.path.join(git, "refs", "heads"))
            with open(os.path.join(git, "HEAD"), "w") as f:
                f.write("ref: refs/heads/main\n")
            try:
                run.ROOT = tmp
                self.assertEqual(run.git_commit(), "unborn:refs/heads/main")
                with open(os.path.join(git, "packed-refs"), "w") as f:
                    f.write("# pack-refs\nbeef01 refs/heads/main\n")
                self.assertEqual(run.git_commit(), "beef01")
                with open(os.path.join(git, "refs", "heads", "main"),
                          "w") as f:
                    f.write("cafe02\n")
                self.assertEqual(run.git_commit(), "cafe02")
            finally:
                run.ROOT = root

    def test_corrupted_reference_counts_failed_steps(self):
        res = result(bench("inception-tiered", 1, 0, "--corrupt-reference"))
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)

    def test_inherited_override_is_refused(self):
        env = clean_env()
        env["GIST_THREADS"] = "4"
        proc = bench("vgg16-lossless", 1, 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)
        self.assertIn("GIST_THREADS", proc.stderr)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "vgg16-lossless", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
