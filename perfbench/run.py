#!/usr/bin/env python3
"""Run one workload of the provenance benchmark and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --heap 3g --gc ParallelGC --master 'local[4]' \
        --shuffle-partitions 2 --workload flights-relay --seed 1 --seconds 10 --trace 0

The four run-environment options have no defaults: BENCHMARK.json's
command is the one place they are set.

The first run in a checkout builds the benchmark (an sbt build in this
directory that compiles the repository's `root` project as a source
dependency) into `.bench_build/`. Each run then starts one JVM that
generates the workload's inputs from the seed, times the engines and the
Spark layer, checks every output and prints a JSON object. This script
keeps the metrics that BENCHMARK.json names for the mode (`end_to_end`
untraced, `per_layer` traced), checks that each is present with its
unit, and prints them as the last line of standard output.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17 needs java.base internals opened (as in build.sbt).
ADD_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def validate_spec(spec):
    """Check the metric lists of BENCHMARK.json; return them as
    {"end_to_end": {name: unit}, "per_layer": {name: unit}}."""
    seen = set()
    out = {}
    for kind in ("end_to_end", "per_layer"):
        out[kind] = {}
        for m in spec.get(kind, []):
            name, unit = m.get("name", ""), m.get("unit", "")
            if not NAME_RE.match(name):
                raise BenchError(f"invalid metric name {name!r}")
            if not UNIT_RE.match(unit):
                raise BenchError(f"invalid unit {unit!r} of {name}")
            if name in seen:
                raise BenchError(f"metric {name} listed twice")
            if m.get("better") not in ("lower", "higher"):
                raise BenchError(f"metric {name} needs better = lower or higher")
            seen.add(name)
            out[kind][name] = unit
    if out["end_to_end"].get("setup_s") != "s":
        raise BenchError("end_to_end must hold setup_s in s")
    for w in spec.get("workloads", []):
        if not NAME_RE.match(w.get("name", "")):
            raise BenchError(f"invalid workload name {w.get('name')!r}")
    return out


def select_result(raw, expected, end_to_end):
    """The result line: the `expected` metrics of the program's output,
    each present with its unit (and, end to end, never zero)."""
    metrics = {}
    for name, unit in expected.items():
        got = raw["metrics"].get(name)
        if got is None:
            raise BenchError(f"the run did not report {name}")
        if got["unit"] != unit:
            raise BenchError(f"{name} reported in {got['unit']}, expected {unit}")
        value = got["value"]
        if not isinstance(value, (int, float)) or value != value:
            raise BenchError(f"{name} is not a number: {value!r}")
        if end_to_end and value == 0:
            raise BenchError(f"{name} read 0")
        metrics[name] = {"value": value, "unit": unit}
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if attempted < 1:
        raise BenchError("no operation attempted")
    return {"correct": bool(raw["correct"]) and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def source_fingerprint(root):
    """Hash of every file the build reads, so a changed tree rebuilds."""
    h = hashlib.sha256()
    tops = ["build.sbt", "project", "src", os.path.relpath(HERE, root)]
    for top in tops:
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(base)
            for f in files if "target" not in os.path.relpath(d, root).split(os.sep))
        for p in paths:
            if p.endswith((".scala", ".sbt", ".properties", ".java")):
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build(root, deadline):
    """Compile the benchmark and the repository; return the classpath."""
    out_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stamp = os.path.join(out_dir, "perfbench-classpath.json")
    fp = source_fingerprint(root)
    if os.path.exists(stamp):
        with open(stamp) as f:
            cached = json.load(f)
        if cached.get("fingerprint") == fp:
            return cached["classpath"]
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    env.setdefault("SBT_OPTS", " ".join([
        "-Dsbt.override.build.repos=true",
        "-Dsbt.repository.config=" + os.path.expanduser("~/.sbt/repositories"),
        "-Dsbt.offline=true", "-Xmx2g"]))
    log("building the benchmark with sbt (first run in this checkout)")
    t0 = time.time()
    with open(os.path.join(out_dir, "build.log"), "w") as logf:
        proc = subprocess.Popen(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
             "export Runtime/fullClasspath"],
            cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=logf, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1, deadline - time.time()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("the build timed out")
        logf.write(out)
    if proc.returncode != 0:
        raise BenchError(f"the build failed, see {BUILD_DIR}/build.log")
    lines = [ln for ln in out.splitlines() if ln.strip() and not ln.startswith("[")]
    if not lines:
        raise BenchError("the build printed no classpath")
    classpath = lines[-1].strip()
    with open(stamp, "w") as f:
        json.dump({"fingerprint": fp, "classpath": classpath}, f)
    log(f"built in {time.time() - t0:.0f} s")
    return classpath


def run_jvm(root, classpath, args):
    work = os.path.join(root, BUILD_DIR, "run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    # -XX:-UsePerfData: no jvmstat file in the system temp directory.
    cmd = (["java", f"-Xms{args.heap}", f"-Xmx{args.heap}", f"-XX:+Use{args.gc}", "-XX:-UsePerfData",
            "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
            "-Dspark.driver.host=127.0.0.1"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in ADD_OPENS]
           + ["-cp", classpath, "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--work-dir", work, "--master", args.master,
              "--shuffle-partitions", str(args.shuffle_partitions)])
    # Set-up time counts from here: the build is a one-off per checkout.
    cmd += ["--launch-epoch-ms", str(int(time.time() * 1000))]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"the run took longer than {RUN_TIMEOUT_S} s")
    finally:
        keep = os.path.join(root, BUILD_DIR, "traces")
        for f in os.listdir(work) if os.path.isdir(work) else []:
            if f.startswith("trace-"):
                os.makedirs(keep, exist_ok=True)
                shutil.move(os.path.join(work, f), os.path.join(keep, f))
                log(f"spans written to {BUILD_DIR}/traces/{f}")
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"the benchmark JVM exited with {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("the benchmark JVM printed no result")
    return json.loads(lines[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The run environment, pinned by BENCHMARK.json's command.
    p.add_argument("--heap", required=True)
    p.add_argument("--gc", required=True)
    p.add_argument("--master", required=True)
    p.add_argument("--shuffle-partitions", type=int, required=True)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    try:
        spec_path = os.path.join(root, "BENCHMARK.json")
        if not os.path.exists(spec_path):
            raise BenchError("BENCHMARK.json not found; run from the root of a checkout")
        with open(spec_path) as f:
            spec = validate_spec(json.load(f))
        for need in ("build.sbt", os.path.join("src", "main", "scala")):
            if not os.path.exists(os.path.join(root, need)):
                raise BenchError(f"{need} not found: the repository sources are missing")
        classpath = build(root, deadline=time.time() + 700)
        raw = run_jvm(root, classpath, args)
        for failure in raw.get("failures", []):
            log(f"failure: {failure}")
        # The result line may hold no other keys, so the input digests,
        # which must agree between runs of one seed, go to the log.
        log(f"input digests: {json.dumps(raw['digests'], sort_keys=True)}")
        kind = "per_layer" if args.trace else "end_to_end"
        result = select_result(raw, spec[kind], end_to_end=not args.trace)
    except BenchError as e:
        log(f"error: {e}")
        return 1
    log(f"{args.workload} seed={args.seed}: attempted={result['attempted']} "
        f"failed={result['failed']} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
