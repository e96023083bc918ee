#!/usr/bin/env python3
"""Build and run the ccsql end-to-end benchmark.

    python3 perfbench/run.py --workload flow|reach|sim|serve --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the repository root.  The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later runs only rebuild what changed.  Build output
goes to stderr.  The benchmark binary's stdout is passed through: a
`# fingerprint` line, then the result as the last line, a JSON object with
the keys correct, attempted, failed and metrics.  Traced runs also write
their spans to .bench_build/trace-<workload>-<seed>.jsonl.

Exit status: the binary's (0 when every correctness gate held), or 1 when
the benchmark cannot be built or run.
"""

import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{' '.join(cmd)}: {e}")
        return False
    if proc.returncode != 0:
        log(f"{' '.join(cmd)} exited {proc.returncode}")
        return False
    return True


def build(jobs):
    """Configures once, then builds incrementally.  Returns the binary path."""
    if not (os.path.isdir("src")
            and os.path.isfile("perfbench/CMakeLists.txt")):
        log("run from the repository root (src/ and perfbench/ not found)")
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_checked(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           BUILD_TIMEOUT_S):
            return None
    if not run_checked(["cmake", "--build", BUILD_DIR, "-j", str(jobs)],
                       BUILD_TIMEOUT_S):
        return None
    binary = os.path.join(BUILD_DIR, "perfbench")
    return binary if os.path.isfile(binary) else None


def source_digest():
    """sha256 over the program and benchmark sources, for the fingerprint."""
    h = hashlib.sha256()
    for root in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv):
    jobs = min(os.cpu_count() or 1, 4)
    binary = build(jobs)
    if binary is None:
        log("build failed")
        return 1
    cmd = [binary] + argv
    if "--self-test" not in argv:
        cmd += ["--git-sha", git_sha(), "--source-digest", source_digest()]
    def arg(flag):
        i = argv.index(flag) if flag in argv else len(argv)
        return argv[i + 1] if i + 1 < len(argv) else None

    if arg("--trace") == "1":
        workload, seed = arg("--workload"), arg("--seed")
        cmd += ["--trace-out",
                os.path.join(".bench_build", f"trace-{workload}-{seed}.jsonl")]
    # The program's own tracer and engine toggles are configured from
    # CCSQL_* variables; the benchmark runs the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CCSQL_")}
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
