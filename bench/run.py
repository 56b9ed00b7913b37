"""revspec benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see README.md): ``spectrum-cli``, ``family-report``,
``mesh-export``.  Every process runs with OpenBLAS and OpenMP pools of one
thread, set here before any of them loads numpy.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s`` is
the median of three set-ups, each timed from the start of a fresh worker
process until it is ready for its first timed operation; the last of the
three workers then runs the timed operations.  Every time is scaled to a
reference host speed by the calibration bursts the workers run
(``calibrate.py``).  With ``--trace 1`` one traced worker gives the
per-layer metrics listed in ``BENCHMARK.json``.  The line before the
result states the seed, the thread settings, the versions and the
unscaled times; a copy of both goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectrum-cli", "family-report", "mesh-export")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)
import calibrate  # noqa: E402  (loads numpy, so after the thread settings)
SETUPS = 3
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


class Worker:
    """A worker process, timed from its start until it writes ``ready``."""

    def __init__(self, args, deadline: float, setup_only: bool):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.deadline = deadline
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)

    def wait_ready(self) -> None:
        # byte by byte and unbuffered, so that communicate() gets the rest
        fd, line = self.proc.stdout.fileno(), b""
        while not line.endswith(b"\n"):
            readable, _, _ = select.select([fd], [], [],
                                           max(0.0, self.deadline - time.monotonic()))
            byte = os.read(fd, 1) if readable else b""
            if not byte:
                break
            line += byte
        self.setup_s = time.perf_counter() - self.start
        self.ready = line == b"ready\n"

    def finish(self) -> tuple[int, bytes]:
        try:
            out, _ = self.proc.communicate(
                timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -1, b""
        return self.proc.returncode, out

    def stop(self) -> None:
        """End the worker if it still runs; it ends its own children."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "revspec" / "__init__.py").is_file():
        return _fail(f"no revspec sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    setups, setup_bursts = [], []
    n_setups = 1 if args.trace else SETUPS
    worker = None
    try:
        for i in range(n_setups):
            worker = Worker(args, deadline, setup_only=i < n_setups - 1)
            worker.wait_ready()
            if not worker.ready:
                return _fail("a worker did not finish its set-up")
            code, out = worker.finish()
            if code != 0:
                return _fail(f"worker exited with {code}")
            res = json.loads(out.decode().splitlines()[-1])
            setups.append(worker.setup_s)
            setup_bursts += res["setup_bursts_s"]
    finally:
        if worker is not None:
            worker.stop()
    # the host's speed during the set-ups and during the timed operations
    setup_scale = calibrate.host_scale(setup_bursts)
    scale = calibrate.host_scale(res["bursts_s"])

    if args.trace:
        layers = dict(res["layers"], **{"import.revspec_s": res["import_s"],
                                        "trace.op_p50_s": res["op_p50_s"] * scale})
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        missing = [m["name"] for m in spec if m["name"] not in layers]
        if missing:
            return _fail(f"the trace gave no {', '.join(missing)}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups) * setup_scale, "unit": "s"},
            "ops_per_s": {"value": res["ops_per_s"] / scale, "unit": "1/s"},
            "op_p50_s": {"value": res["op_p50_s"] * scale, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "threads": THREADS, "nproc": len(os.sched_getaffinity(0)),
           "setup_scale": setup_scale, "scale": scale,
           "burst_p50_s": statistics.median(res["bursts_s"]),
           "raw": {"setup_s": statistics.median(setups), "ops_per_s": res["ops_per_s"],
                   "op_p50_s": res["op_p50_s"]},
           "setups_s": setups, "op_times_s": res["op_times_s"],
           "setup_bursts_s": setup_bursts, "bursts_s": res["bursts_s"],
           **res["versions"]}
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"run": run, "result": result}, indent=1) + "\n")
    for key in ("op_times_s", "setup_bursts_s", "bursts_s"):
        run.pop(key)
    print(json.dumps({"run": run}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
