#!/usr/bin/env python3
"""AutoFJ benchmark: builds the repository from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload single-learn --seed 0 --seconds 30 --trace 0

The first run compiles the repository's main sources with the benchmark
program (sbt, offline) into perfbench/target; later runs reuse the build
while the sources are unchanged. The benchmark runs in one JVM on
local[nproc/2] with the Spark settings of `repro.jobs.JobSession`. Its last
stdout line, a JSON object, is printed as this script's last line.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
OUT = os.path.join(BENCH, "out")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "source.sha256")
WORKLOADS = ("single-learn", "multi-select")
HEAP = "2g"
BUILD_TIMEOUT_S = 850
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 890

JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of every input of the build, so a changed source rebuilds."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"), os.path.join(BENCH, "src")]
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, cwd, env, limit_s, stdout=None):
    """Runs cmd in its own process group; kills the group after limit_s."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} exceeded {limit_s:.0f} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Compiles when the sources changed; returns True if it compiled."""
    digest = source_digest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP) and open(STAMP).read() == digest:
        return False
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "writeClasspath"]
    code, _ = run_bounded(cmd, BENCH, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed (sbt exit {code})")
    with open(STAMP, "w") as fh:
        fh.write(digest)
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, exit through run_bounded's handler, which kills the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in ("build.sbt", os.path.join("src", "main", "scala"), "jobs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from the root of a checkout of the repository")

    start = time.monotonic()
    deadline = FIRST_RUN_LIMIT_S if build() else RUN_LIMIT_S

    # Spark gets half the cores. On a shared host, when neighbours slow some
    # vCPUs, the scheduler moves these threads to the idle ones; with one
    # thread per vCPU every slowed vCPU stalls a stage. In paired runs on
    # 4 vCPUs this cut the run-to-run spread of learn_s (0.26 -> 0.10 and
    # 0.28 -> 0.19 in two sets of five pairs).
    cores = max(1, len(os.sched_getaffinity(0)) // 2)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)  # measure the jobs' shipped settings
    env["SPARK_MASTER"] = f"local[{cores}]"
    env["SPARK_LOCAL_DIRS"] = tmp
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    cmd = (["java", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}", "-Dspark.driver.host=127.0.0.1",
            "-Dspark.ui.enabled=false"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in JVM_OPENS]
           + ["-cp", cp, "perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT])
    limit = min(RUN_LIMIT_S, deadline - (time.monotonic() - start))
    try:
        code, out = run_bounded(cmd, ROOT, env, limit, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if code != 0 or not lines:
        fail(f"benchmark JVM exited with {code}")
    result = json.loads(lines[-1])
    print(json.dumps(result))
    sys.exit(0 if result["attempted"] >= 1 else 2)


if __name__ == "__main__":
    main()
