#!/usr/bin/env python3
"""Report where perfbench's host-speed calibration kernel is placed.

    python3 scripts/perfbench_layout.py <gist_perfbench> [<gist_perfbench>]
    python3 scripts/perfbench_layout.py --against <git-rev> [<gist_perfbench>]

perfbench divides every time it reports by the speed of a fixed
calibration kernel (CalibrationKernel::run in perfbench/perfbench.cpp).
That kernel's speed depends on where the linker puts it: its address
modulo 64, its *phase*, has moved scaled figures by 15-45% with no
change in the timed code. The linker places before it every linked
object's cold code (.text.unlikely), static initializers
(.text.startup) and PLT entries, so a change anywhere in src/ can move
it.

With one binary, prints the kernel's address and phase. With two (for
example a parent build and a change build), prints both and exits 1 if
their phases differ, so scaled perfbench figures from the two are not
comparable. Exits 2 if a binary or the symbol cannot be read.

--against builds the perfbench of <git-rev> (say, a pull request's base)
from a temporary checkout under .bench_build/, removed afterwards, and
compares it with <gist_perfbench>: by default the binary perfbench/run.py
builds from this tree, .bench_build/perfbench/gist_perfbench. Exits 2 if
the revision cannot be checked out or built.
"""

import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

SYMBOL = "CalibrationKernel::run()"
PHASE = 64
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_BUILD = os.path.join(ROOT, ".bench_build")
DEFAULT_BINARY = os.path.join(BENCH_BUILD, "perfbench", "gist_perfbench")


def kernel_address(binary):
    """Address of the calibration kernel in @p binary, via nm -C."""
    out = subprocess.run(["nm", "-C", binary], capture_output=True,
                         text=True, check=True).stdout
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[2].endswith(SYMBOL):
            return int(parts[0], 16)
    raise LookupError("%s: no %s symbol" % (binary, SYMBOL))


def build_revision(rev, workdir):
    """Check @p rev out into @p workdir and build its gist_perfbench
    there, as perfbench/run.py builds it; returns the binary's path."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], capture_output=True,
                         text=True, check=True).stdout.strip()
    tree = os.path.join(workdir, "tree")
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                              sha], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree)
    build = os.path.join(workdir, "build")
    configure = ["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                 build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build, "--target",
                            "gist_perfbench", "-j", "4"]):
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    print("built %s (%s)" % (rev, sha[:12]))
    return os.path.join(build, "gist_perfbench")


def compare(binaries):
    """Print each binary's placement; 1 if two phases differ."""
    phases = []
    for binary in binaries:
        try:
            addr = kernel_address(binary)
        except (OSError, subprocess.CalledProcessError, LookupError) as e:
            sys.stderr.write("error: %s\n" % e)
            return 2
        phases.append(addr % PHASE)
        print("%s: CalibrationKernel::run at 0x%x, phase %d (mod %d)"
              % (binary, addr, addr % PHASE, PHASE))
    if len(phases) == 2:
        if phases[0] != phases[1]:
            print("phases differ: %d vs %d; scaled perfbench figures of "
                  "these builds are not comparable" % tuple(phases))
            return 1
        print("same phase")
    return 0


def main(argv):
    args = argv[1:]
    if args[:1] == ["--against"] and len(args) in (2, 3):
        binary = args[2] if len(args) == 3 else DEFAULT_BINARY
        if not os.path.isfile(binary):
            sys.stderr.write("error: %s not built (python3 perfbench/run.py "
                             "builds it)\n" % binary)
            return 2
        os.makedirs(BENCH_BUILD, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="against-", dir=BENCH_BUILD)
        try:
            base = build_revision(args[1], workdir)
        except (OSError, subprocess.CalledProcessError,
                tarfile.TarError) as e:
            sys.stderr.write("error: cannot build %s: %s\n" % (args[1], e))
            return 2
        else:
            return compare([base, binary])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if len(args) not in (1, 2) or args[0].startswith("--"):
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    return compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
