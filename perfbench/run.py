#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload direct-read --seed 1 --seconds 6 --trace 0

Builds perfbench/main.exe with dune (the program's libraries come from
the same checkout), runs it with the given arguments and passes its
output through: the last line of standard output is the JSON result.
Exits non-zero, without a result, when the checkout lacks the program's
sources or the build fails.
"""

import glob
import os
import shutil
import subprocess
import sys


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a full checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    run = subprocess.run([exe] + sys.argv[1:], stdout=subprocess.PIPE,
                         stderr=sys.stderr, env=env, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
