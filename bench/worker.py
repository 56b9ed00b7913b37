"""One benchmark process: set-up, timed operations, checks.

Started by ``run.py`` with the thread pools already pinned in its
environment.  Set-up is the import of revspec, input generation, Profile
construction and one untimed warm-up operation; the worker then writes
``ready`` on stdout and runs a few calibration bursts (``calibrate.py``).
With ``--setup-only`` it reports their times and stops.  Otherwise it runs
whole rounds of operations, closed loop, one at a time, with bursts
between them, until ``--seconds`` have passed, keeping only a digest of
each output.  After the peak memory is read, one untimed check round runs
every input again; its outputs are checked against the references and its
digests must equal the timed ones.  The worker then writes one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_revspec():
    start = time.perf_counter()
    import revspec
    elapsed = time.perf_counter() - start
    if Path(revspec.__file__).resolve().parent != ROOT / "src" / "revspec":
        raise SystemExit(f"revspec imported from {revspec.__file__}, not from "
                         f"{ROOT / 'src'}")
    return revspec, elapsed


class SpectrumCli:
    """One operation: a fresh interpreter runs the spectrum command."""

    def __init__(self, revspec, seed: int, tracing: bool):
        import workloads
        # the input passes through Profile construction like every other
        revspec.require_valid(revspec.profile_from_text(workloads.PAPER_EXAMPLE_TEXT))
        self.keys = [workloads.SPECTRUM_ARGV]
        self.tracing = tracing
        self.trace_parts = []

    def run(self, argv, op: int):
        if self.tracing:
            out_file = ROOT / ".bench_tmp" / f"op-{os.getpid()}-{op}.npz"
            out_file.parent.mkdir(exist_ok=True)
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), str(out_file), *argv]
        else:
            cmd = [sys.executable, "-m", "revspec.cli", *argv]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)
        if self.tracing:
            import numpy as np
            with np.load(out_file) as data:
                part = {k: data[k] for k in data.files}
            out_file.unlink()
            if op >= 0:
                self.trace_parts.append(part)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-300:]}")
        return proc.stdout

    def digest(self, output):
        return output

    def problems(self, outputs) -> list[str]:
        import checks
        if outputs[0] is None:
            return []
        return checks.spectrum_problems(outputs[0], checks.spectrum_reference())

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class FamilyReport:
    """One operation: ``full_report`` of every member of the family, as
    one ``revspec sweep`` does."""

    def __init__(self, revspec, seed: int, tracing: bool):
        import workloads
        self.revspec = revspec
        self.inputs = workloads.family_inputs(seed)
        self.profiles = [workloads.make_profile(revspec, inp) for inp in self.inputs]
        self.keys = [None]

    def run(self, key, op: int):
        import workloads
        return tuple(workloads.report_record(self.revspec, p) for p in self.profiles)

    def digest(self, output):
        return output

    def problems(self, outputs) -> list[str]:
        import checks
        out = []
        for inp, rec in zip(self.inputs, outputs[0] or ()):
            out += checks.report_problems(rec, inp, checks.report_reference(inp))
        return out

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class MeshExport:
    """One operation: the steps of ``revspec mesh`` on one profile."""

    def __init__(self, revspec, seed: int, tracing: bool):
        import workloads
        self.revspec = revspec
        self.inputs = workloads.mesh_inputs(seed)
        self.profiles = [workloads.make_profile(revspec, inp) for inp in self.inputs]
        self.keys = list(range(len(self.inputs)))

    def run(self, index: int, op: int):
        import workloads
        return workloads.mesh_record(self.revspec, self.profiles[index])

    def digest(self, output):
        return {k: hashlib.sha256(v).hexdigest() if isinstance(v, bytes) else v
                for k, v in output.items()}

    def problems(self, outputs) -> list[str]:
        import checks
        out = []
        for inp, rec in zip(self.inputs, outputs):
            if rec is not None:
                out += checks.mesh_problems(rec, inp, checks.mesh_reference(inp))
        return out

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {"spectrum-cli": SpectrumCli, "family-report": FamilyReport,
             "mesh-export": MeshExport}


def versions() -> dict:
    import numpy
    import scipy
    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    for mod in (numpy, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out[f"{mod.__name__}_blas"] = f"{blas['name']} {blas['version']}"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # on SIGTERM unwind, so that a running CLI child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one vCPU for this process, its CLI children and its bursts: the vCPUs
    # of a shared host change speed independently of each other, and the
    # bursts must see the speed the operations run at
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    revspec, import_s = _import_revspec()
    import calibrate
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](revspec, args.seed, bool(args.trace))
    if tracer is not None:
        tracer.end_setup()
    # one warm-up operation compiles bytecode and fills the program's caches;
    # for mesh-export the first input's is enough, as nothing cached on
    # that path depends on the input
    wl.run(wl.keys[0], -1)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    setup_bursts = [calibrate.burst() for _ in range(calibrate.SETUP_BURSTS)]
    if args.setup_only:
        sys.stdout.write(json.dumps({"setup_bursts_s": setup_bursts}) + "\n")
        return 0

    times, failures, digests, bursts = [], [], [], []
    op = 0
    start = time.perf_counter()
    while True:
        for key in wl.keys:
            bursts += calibrate.bursts_for(times[-1] if times else 0.0)
            if tracer is not None:
                tracer.begin_op(op)
            t0 = time.perf_counter()
            try:
                output = wl.run(key, op)
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append(f"operation {op}: {type(exc).__name__}: {exc}")
                output = None
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            times.append(t1 - t0)
            digests.append(None if output is None else wl.digest(output))
            output = None  # not held while the next operation runs
            op += 1
        if time.perf_counter() - start >= args.seconds:
            break
    bursts += calibrate.bursts_for(times[-1])
    peak_kb = wl.peak_rss_kb()

    # the check round against the references, every timed output against
    # the check-round output of the same input: outputs are documented
    # byte-identical across runs on one installation
    problems, checked = [], []
    for key in wl.keys:
        try:
            checked.append(wl.run(key, -1))
        except Exception as exc:
            problems.append(f"check round: {type(exc).__name__}: {exc}")
            checked.append(None)
    problems += wl.problems(checked)
    n = len(wl.keys)
    problems += [f"operation {i}: output differs from the check round"
                 for i, d in enumerate(digests)
                 if d is not None and checked[i % n] is not None
                 and d != wl.digest(checked[i % n])]
    for line in failures + problems:
        print(line, file=sys.stderr)

    ok_times = [t for t, d in zip(times, digests) if d is not None]
    result = {
        "attempted": len(times),
        "failed": len(failures),
        "correct": not problems,
        "op_times_s": times,
        "setup_bursts_s": setup_bursts,
        "bursts_s": bursts,
        "ops_per_s": len(ok_times) / sum(ok_times) if ok_times else 0.0,
        "op_p50_s": statistics.median(ok_times) if ok_times else 0.0,
        "peak_rss_mb": peak_kb / 1024.0,
        "import_s": import_s,
        "versions": versions(),
    }
    if tracer is not None:
        import numpy as np
        from tracer import layer_metrics, merge
        if isinstance(wl, SpectrumCli):
            tables = merge(wl.trace_parts)
            result["import_s"] = statistics.median(float(p["import_s"][0])
                                                   for p in wl.trace_parts)
        else:
            tables = tracer.tables()
        result["layers"] = layer_metrics(tables, len(times))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        np.savez_compressed(out_dir / f"trace-{args.workload}-seed{args.seed}.npz",
                            **tables)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
