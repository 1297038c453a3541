"""pacesim benchmark: four closed-loop workloads with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload market --seed 1 --seconds 27 --trace 0

One process, one thread, back-to-back passes of the workload on the
default worker count (PACESIM_THREADS is removed from the environment).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones:

    setup_s      median over fresh processes of the host-scaled time
                 from process start to ready inputs (import, scenario
                 load and validation, environment and instance
                 generation)
    wall_s       median host-scaled wall time of one timed pass
    rounds_per_s replication x rounds simulated per host-scaled second
                 of pass time
    peak_rss_mb  peak resident memory of this process after the passes
    ok_ops_frac  operations whose output passed its check, over those
                 attempted (1 - failed_ops_frac, which is 0 when all is
                 well)

The three timings are host-scaled (calibrate.py): a reference kernel
independent of pacesim is timed between every two timed operations and
every set-up sample, and each wall time is rescaled to the host speed at
which that kernel takes calibrate.REFERENCE_S, so that the shared host's
drifting speed cancels between runs.  The raw wall times and the
reference times are printed beside them.

With --trace 1 passes alternate untraced and traced; pacesim's public
functions are wrapped from outside (tracer.py) and the metrics are the
per-layer ones (layers.py), plus the tracing overhead.  The line before
the result starts with "perfbench " and carries provenance, per-pass
times, the sample count and a sha256 digest of the deterministic outputs;
the same document and, when tracing, the spans are written under
.perfbench_out/.  `python3 perfbench/selftest.py` runs the negative
controls of every output check.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 5
END_TO_END = ("setup_s", "wall_s", "rounds_per_s", "peak_rss_mb", "ok_ops_frac")


def _import_pacesim(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pacesim", "__init__.py")):
        print(f"error: no pacesim sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import pacesim

    if not os.path.abspath(pacesim.__file__).startswith(src + os.sep):
        print(f"error: imported pacesim from {pacesim.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return pacesim


def _git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: str, seed: int) -> dict:
    import numpy

    from importlib import metadata

    pkg = os.path.join(root, "src", "pacesim")
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_pacesim_lines": lines,
        "seed": seed,
    }


def sample_setup(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """(raw, host-scaled) seconds from the start of a fresh process to
    ready inputs."""
    times = []
    for _ in range(count):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
        before = calibrate.reference()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
        times.append((elapsed, calibrate.scaled(elapsed, before, calibrate.reference())))
    return times


class Raised(str):
    """The traceback of an operation that raised, in place of its output."""


class Runner:
    """Runs passes, checks their outputs, and keeps the per-op tallies."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.walls: dict[str, float] = {}
        #: Host-scaled pass times, untraced passes only.
        self.scaled: dict[str, float] = {}
        self.references: list[float] = []
        self.digests: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, pid: str, traced: bool) -> None:
        tracer = self.tracer
        tracer.pass_id = pid
        if traced:
            tracer.record = True
            tracer.install()
        outputs = {}
        if traced:
            start = time.perf_counter()
            root = tracer.open("bench.pass")
            for name, fn in self.workload.ops():
                outputs[name] = self._attempt(fn)
            tracer.close(root)
            self.walls[pid] = time.perf_counter() - start
        else:
            # Each operation is timed on its own, with the reference
            # kernel run between operations, outside the timed sections.
            if not self.references:
                self.references.append(calibrate.reference())
            wall = scaled = 0.0
            for name, fn in self.workload.ops():
                start = time.perf_counter()
                outputs[name] = self._attempt(fn)
                elapsed = time.perf_counter() - start
                self.references.append(calibrate.reference())
                wall += elapsed
                scaled += calibrate.scaled(elapsed, *self.references[-2:])
            self.walls[pid] = wall
            self.scaled[pid] = scaled
        if traced:
            tracer.uninstall()
            tracer.record = False
        tracer.pass_id = None
        self._check(pid, outputs)

    @staticmethod
    def _attempt(fn):
        try:
            return fn()
        except Exception:
            return Raised(traceback.format_exc())

    def _check(self, pid: str, outputs: dict) -> None:
        first = not self.digests
        for name, output in outputs.items():
            self.attempted += 1
            if isinstance(output, Raised):
                self.failures.append(f"{pid}/{name}: raised\n{output}")
                continue
            try:
                ok, digest = self.workload.check(name, output, deep=first)
            except Exception:
                self.failures.append(f"{pid}/{name}: check raised\n{traceback.format_exc()}")
                continue
            if first:
                self.digests[name] = digest
            elif digest != self.digests.get(name):
                self.failures.append(f"{pid}/{name}: output differs from the first pass")
                continue
            if not ok:
                self.failures.append(f"{pid}/{name}: output check failed")

    def measure(self, seconds: float, trace: bool, between=None) -> None:
        """Back-to-back passes while the next one, at the median pass
        time so far, still fits in the window; with tracing, untraced and
        traced passes alternate.

        There is no warm-up pass: pacesim keeps no state between passes
        (environments are rebuilt in each one), and the median over the
        window's passes discards a slow first one.  `between` runs after
        each pass, outside the timed section."""
        i = 0
        min_passes = 2 if trace else 1
        while True:
            traced = trace and i % 2 == 1
            self.run_pass(f"{'t' if traced else 'u'}{i}", traced)
            i += 1
            if between is not None:
                between()
            spent = sum(self.walls.values())
            if i >= min_passes and spent + statistics.median(self.walls.values()) > seconds:
                break

    def passes(self, prefix: str) -> dict:
        return {p: w for p, w in self.walls.items() if p.startswith(prefix)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    os.environ.pop("PACESIM_THREADS", None)
    _import_pacesim(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    run_dir = os.path.join(root, OUT_DIR, f"{args.workload}-{os.getpid()}")

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, run_dir)
        print("ready", flush=True)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 0

    from tracer import ROUND_COUNTERS, Tracer

    # Set-up samples are spread over the run (one before the first pass,
    # one after each pass until there are enough), so that a slow spell
    # of the machine does not land on all of them.
    setup_times = [] if args.trace else sample_setup(args.workload, args.seed, 1)

    def sample_between():
        if not args.trace and len(setup_times) < SETUP_SAMPLES:
            setup_times.extend(sample_setup(args.workload, args.seed, 1))

    tracer = Tracer(record=False)
    try:
        if args.trace:
            tracer.pass_id = "setup"
            tracer.record = True
            tracer.install()
            with tracer.span("bench.setup"):
                workload = workloads.WORKLOADS[args.workload](args.seed, run_dir, tracer.span)
            tracer.uninstall()
            tracer.record = False
            tracer.pass_id = None
        else:
            workload = workloads.WORKLOADS[args.workload](args.seed, run_dir, tracer.span)
            tracer.install(only=ROUND_COUNTERS)
        runner = Runner(workload, tracer)
        runner.measure(args.seconds, bool(args.trace), sample_between)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not args.trace:
        setup_times += sample_setup(args.workload, args.seed, SETUP_SAMPLES - len(setup_times))
    untraced = runner.passes("u")
    walls = sorted(untraced.values())
    scaled = sorted(runner.scaled.values())
    if args.trace:
        import layers

        metrics = layers.per_layer(tracer, runner.passes("t"), untraced)
    else:
        rounds = sum(
            tracer.total(name, set(untraced))
            for name in ("simulation.row_rounds", "regret.row_rounds")
        )
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "rounds_per_s": {"value": rounds / sum(scaled), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_ops_frac": {
                "value": (runner.attempted - len(runner.failures)) / runner.attempted,
                "unit": "fraction",
            },
        }

    digest = hashlib.sha256(b"".join(runner.digests[k] for k in sorted(runner.digests)))
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(root, args.seed),
        "output_sha256": digest.hexdigest(),
        "op_sha256": {k: v.hex() for k, v in sorted(runner.digests.items())},
        "pass_walls_s": runner.walls,
        "pass_scaled_s": runner.scaled,
        "wall_samples": len(walls),
        "wall_quartiles_s": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "scaled_quartiles_s": statistics.quantiles(scaled, n=4) if len(scaled) > 1 else scaled,
        "reference_s": calibrate.REFERENCE_S,
        "reference_samples_s": runner.references,
        "setup_samples_s": [raw for raw, _ in setup_times],
        "setup_scaled_s": [s for _, s in setup_times],
        "failures": runner.failures,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(info, fh, indent=1)
    if args.trace:
        with gzip.open(stem + "-spans.json.gz", "wt") as fh:
            json.dump({"spans": tracer.spans, "counts": [[p, n, v] for (p, n), v in tracer.counts.items()]}, fh)
    for failure in runner.failures:
        print(failure, file=sys.stderr)
    print(f"digest {args.workload} {digest.hexdigest()}")
    print("perfbench " + json.dumps({k: info[k] for k in info if k != "metrics"}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
