#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload engine_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library and the
benchmark binary, nothing else) into .bench_build/perfbench; later calls
only rebuild what changed.  All other arguments go to the binary, whose last
line of standard output is the JSON result.  Build output goes to standard
error.  The exit code is nonzero if the build fails or any output check
fails.

--self-test checks the output checks: a run against a copy of
perfbench/expected.txt with one digest corrupted must fail, and the same run
against the committed file must pass.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
EXPECTED = os.path.join("perfbench", "expected.txt")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def source_rev():
    """The git revision when there is one, else a digest of src/."""
    if os.path.isdir(".git"):
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            return rev.stdout.strip()
    h = hashlib.sha256()
    for base, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run(binary, args, capture=False):
    cmd = [binary] + args + ["--rev", source_rev()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              capture_output=capture)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        sys.exit(1)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    corrupt = os.path.join(".bench_build", "expected-corrupt.txt")
    with open(EXPECTED) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("engine_stream.rr "):
            key, digest = line.split()
            flipped = "%016x" % (int(digest, 16) ^ 1)
            lines[i] = key + " " + flipped
            break
    else:
        print("self-test: no engine_stream.rr digest in %s" % EXPECTED,
              file=sys.stderr)
        return 1
    with open(corrupt, "w") as f:
        f.write("\n".join(lines) + "\n")
    common = ["--workload", "engine_stream", "--seed", "1", "--seconds",
              "0.1", "--trace", "0"]
    bad = run(binary, common + ["--expected", corrupt], capture=True)
    good = run(binary, common + ["--expected", EXPECTED], capture=True)
    bad_result, good_result = last_json(bad.stdout), last_json(good.stdout)
    ok = (bad.returncode != 0 and bad_result is not None
          and bad_result["correct"] is False
          and "engine_stream.rr: expected" in bad.stderr
          and good.returncode == 0 and good_result is not None
          and good_result["correct"] is True)
    print("self-test: corrupted digest -> exit %d, committed -> exit %d: %s"
          % (bad.returncode, good.returncode, "ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    os.chdir(ROOT)
    args = sys.argv[1:]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args == ["--self-test"]:
        return self_test(binary)
    return run(binary, args).returncode


if __name__ == "__main__":
    sys.exit(main())
