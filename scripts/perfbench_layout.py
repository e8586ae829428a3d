#!/usr/bin/env python3
"""Report where perfbench's host-speed calibration kernel is placed.

    python3 scripts/perfbench_layout.py <gist_perfbench> [<gist_perfbench>]

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
"""

import subprocess
import sys

SYMBOL = "CalibrationKernel::run()"
PHASE = 64


def kernel_address(binary):
    """Address of the calibration kernel in @p binary, via nm -C."""
    out = subprocess.run(["nm", "-C", binary], capture_output=True,
                         text=True, check=True).stdout
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[2].endswith(SYMBOL):
            return int(parts[0], 16)
    raise LookupError("%s: no %s symbol" % (binary, SYMBOL))


def main(argv):
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    phases = []
    for binary in argv[1:]:
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


if __name__ == "__main__":
    sys.exit(main(sys.argv))
