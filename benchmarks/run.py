#!/usr/bin/env python3
"""spheredepth benchmark: four seeded workloads, end-to-end and per-layer.

Run from the repository root:

    python3 benchmarks/run.py --workload large-n --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans installed;
``--trace 1`` alternates untraced passes with passes in which spans wrap
the calls into each spheredepth module, and reports the per-layer metrics
plus the tracing overhead.  End-to-end times are calibrated against
reference kernels (see reference.py).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine, the sample counts and the quality figures of the
run.  The library is imported from ``src/`` next to this directory, and the
run fails without printing a result when it is missing.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 2  # at least two, so counts can be compared between passes
MAX_FLAT_SHARE = 0.01  # on guarded workloads, more flat starts invalidate the run
MIN_ITERATIONS_P50 = 5

# Times the import in a fresh interpreter, then the per-call reference
# kernel right after it, in the same process, to calibrate the import.
IMPORT_TIMER = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import spheredepth.cli; imported = time.perf_counter() - t; "
    "from reference import ReferenceKernel; "
    "print(imported, ReferenceKernel({'calls': 400})())"
)


class BenchmarkError(RuntimeError):
    """The benchmark itself misbehaved; no result is printed."""


def cap_blas_threads() -> int:
    """Cap the BLAS thread pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def llc_bytes() -> int | None:
    """Size of the highest cache level of CPU 0, from sysfs."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1024, "M": 1024**2, "G": 1024**3}
        scale = units.get(size[-1:], 1)
        number = size[:-1] if size[-1:] in units else size
        if number.isdigit() and level > best[0]:
            best = (level, int(number) * scale)
    return best[1]


def mem_total_bytes() -> int | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": nproc,
        "llc_bytes": llc_bytes(),
        "mem_total_bytes": mem_total_bytes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        # The LLC is large against host memory, so arrays of 4x LLC are not
        # feasible: core.sphere_loss.computed_bytes is computed, not a
        # measured bandwidth.
        "bytes_note": "computed from array sizes, not measured bandwidth",
    }


def import_seconds() -> tuple[float, float]:
    """Time ``import spheredepth.cli`` in a fresh interpreter; return the
    measured and the calibrated seconds."""
    from reference import REFERENCE_S

    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC), str(HERE)], cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    imported, kernel = (float(v) for v in proc.stdout.split())
    return imported, imported * REFERENCE_S / kernel


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def run_pass(workload, state, probes) -> "PassOutput":
    """One pass of the unit of work.

    Each segment is bracketed by the pass kernel and calibrated by the mean
    of the two kernel times; each batch of solves inside it is bracketed
    by the solve kernel in the same way (``workloads._bracketed``).
    """
    from reference import REFERENCE_S
    from workloads import PassOutput

    pass_probe, solve_probe = probes
    out = PassOutput(solve_probe=solve_probe)
    before = pass_probe()
    for segment in workload.segments(state):
        probed = out.probe_s
        start = perf_counter()
        segment(out)
        seconds = perf_counter() - start - (out.probe_s - probed)
        after = pass_probe()
        out.seconds += seconds
        out.calibrated_s += 2 * REFERENCE_S / (before + after) * seconds
        before = after
    out.calibrated_ms = [
        REFERENCE_S / kernel * ms for ms, kernel in zip(out.latencies_ms, out.solve_kernel_s)
    ]
    return out


def host_probes(workload) -> tuple:
    """The workload's two reference kernels: one mixed like a whole pass,
    one like a single solve."""
    from reference import ReferenceKernel

    pass_kernel = ReferenceKernel(workload.reference_mix)
    if workload.solve_mix == workload.reference_mix:
        return pass_kernel, pass_kernel
    return pass_kernel, ReferenceKernel(workload.solve_mix)


def run_passes(workload, state, probes, seconds: float) -> list:
    """Repeat the unit of work until ``seconds`` have passed, and at least
    MIN_PASSES times."""
    outs = []
    deadline = perf_counter() + seconds
    while len(outs) < MIN_PASSES or perf_counter() < deadline:
        outs.append(run_pass(workload, state, probes))
    return outs


def run_pass_pairs(workload, state, probes, seconds: float) -> tuple[list, list, list]:
    """Alternate untraced and traced passes for ``seconds`` (at least
    MIN_PASSES pairs), so both kinds see the same host drift.  Each traced
    pass gets its own Tracer, in which the solve probes have a span of their
    own that belongs to no layer."""
    from tracing import Tracer, tracing

    untraced, traced, tracers = [], [], []
    deadline = perf_counter() + seconds
    while len(traced) < MIN_PASSES or perf_counter() < deadline:
        untraced.append(run_pass(workload, state, probes))
        tr = Tracer()
        with tracing(tr):
            probe = tr.span("benchmark.solve_probe", probes[1])
            traced.append(run_pass(workload, state, (probes[0], probe)))
        tracers.append(tr)
    return untraced, traced, tracers


def timed_setup(workload, seed: int, workdir: str, pass_probe) -> tuple:
    """Set up once: the import in a fresh interpreter plus the workload's
    set-up.  Return the state and the measured and calibrated seconds."""
    from reference import REFERENCE_S

    imported, imported_calibrated = import_seconds()
    before = pass_probe()
    start = perf_counter()
    state = workload.setup(seed, workdir)
    seconds = perf_counter() - start
    scale = 2 * REFERENCE_S / (before + pass_probe())
    return state, imported + seconds, imported_calibrated + scale * seconds


def invalid(res) -> bool:
    """A returned solve that still failed: non-finite, outside [0, 1], or
    stopped by max_iter."""
    return not (0.0 <= res.value <= 1.0) or not res.converged


def pass_counts(out) -> tuple:
    iterations = [res.iterations for res in out.results]
    return (
        len(out.results), out.raised, sum(iterations),
        sum(it == 0 for it in iterations), sum(invalid(res) for res in out.results),
    )


def probe_core(u, z, X, params) -> dict:
    """Per-call time of the objective and its gradient at the workload's
    (n, d), and the bytes one objective evaluation touches."""
    import tracemalloc

    from spheredepth import core

    def per_call_us(fn) -> float:
        start = perf_counter()
        fn(u, z, X, params)
        reps = max(1, int(0.02 / max(perf_counter() - start, 1e-7)))
        samples = []
        for _ in range(5):
            start = perf_counter()
            for _ in range(reps):
                fn(u, z, X, params)
            samples.append((perf_counter() - start) / reps)
        return 1e6 * statistics.median(samples)

    loss_us = per_call_us(core.sphere_loss)
    grad_us = per_call_us(core.sphere_loss_gradient)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        core.sphere_loss(u, z, X, params)
        temporaries = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {
        "core.sphere_loss.us": (loss_us, "us"),
        "core.sphere_loss_gradient.us": (grad_us, "us"),
        "core.sphere_loss.ns_per_row": (1e3 * loss_us / X.n, "ns"),
        # Computed: the sample read once, each temporary written once and
        # read once, temporaries sized by tracemalloc's peak in one call.
        "core.sphere_loss.computed_bytes": (X.data.nbytes + 2 * temporaries, "B"),
    }


def quality(out, check) -> dict:
    """Accuracy figures of one pass; equal for every pass of one seed."""
    from workloads import ORACLE_GAP_LIMIT

    attempted = len(out.results) + out.raised
    failed = out.raised + sum(invalid(res) for res in out.results)
    misses = sum(gap > ORACLE_GAP_LIMIT for gap in check.gaps)
    return {
        "failed_share": ((failed + misses) / attempted, "share"),
        "oracle_gap_max": (max(check.gaps), "share"),
        "oracle_gap_p90": (percentile(check.gaps, 90), "share"),
        "auroc_sphere": (check.auroc_sphere, "share"),
        "spearman_sphere": (check.spearman_sphere, "corr"),
    }


def measure(args, nproc: int) -> tuple[dict, dict]:
    from tracing import Tracer, layer_metrics, tracing
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchmarkError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    problems: list[str] = []
    probes = host_probes(workload)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=".") as workdir:
        workdir = os.path.relpath(workdir)
        if args.trace:
            setup_tr = Tracer()
            with tracing(setup_tr):
                state = workload.setup(args.seed, workdir)
            untraced, traced, tracers = run_pass_pairs(workload, state, probes, args.seconds)
            outs = untraced + traced
            reference = tracers[0].exact_counts()
            if any(tr.exact_counts() != reference for tr in tracers[1:]):
                raise BenchmarkError("traced counts differ between passes of one seed")
        else:
            setups = [
                timed_setup(workload, args.seed, workdir, probes[0]) for _ in range(SETUP_REPEATS)
            ]
            state = setups[-1][0]
            outs = run_passes(workload, state, probes, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        counts = [pass_counts(out) for out in outs]
        if any(c != counts[0] for c in counts[1:]):
            raise BenchmarkError(f"solve counts differ between passes of one seed: {counts}")
        check = workload.check(state, outs[-1])
        problems += check.problems
        if workload.guard_flat:
            iterations = [res.iterations for res in outs[0].results]
            flat_share = sum(it == 0 for it in iterations) / max(len(iterations), 1)
            if flat_share > MAX_FLAT_SHARE:
                problems.append(f"{flat_share:.1%} of solves stop at iteration 0")
            if statistics.median(iterations) < MIN_ITERATIONS_P50:
                problems.append(f"median solve makes fewer than {MIN_ITERATIONS_P50} iterations")
        loss_inputs = workload.loss_inputs(state, outs[-1])

    per_pass = workload.units_per_pass
    accuracy = quality(outs[-1], check)
    measured = {
        "pass_seconds": [out.seconds for out in outs],
        "pass_calibrated_s": [out.calibrated_s for out in outs],
        "solve_ms_p50": percentile([ms for out in outs for ms in out.latencies_ms], 50),
        "solve_ms_p90": percentile([ms for out in outs for ms in out.latencies_ms], 90),
    }
    if args.trace:
        overhead = statistics.median(
            t.calibrated_s - u.calibrated_s for u, t in zip(untraced, traced)
        )
        metrics = layer_metrics(setup_tr, tracers)
        metrics.update(probe_core(*loss_inputs))
        metrics["trace_overhead_s"] = (overhead / per_pass, "s")
        metrics.update(accuracy)
    else:
        measured["setup_s"] = [seconds for _, seconds, _ in setups]
        calibrated_ms = [ms for out in outs for ms in out.calibrated_ms]
        metrics = {
            "setup_s": (statistics.median(calibrated for _, _, calibrated in setups), "s"),
            "wall_s": (statistics.median(out.calibrated_s for out in outs) / per_pass, "s"),
            "solves_per_s": (
                statistics.median(len(out.results) / out.calibrated_s for out in outs), "1/s"
            ),
            "solve_ms_p50": (percentile(calibrated_ms, 50), "ms"),
            "solve_ms_p90": (percentile(calibrated_ms, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "solves": sum(len(out.results) for out in outs),
        "measured": measured,
        "problems": problems,
        "quality": {name: value for name, (value, _) in accuracy.items()},
        "environment": environment(nproc),
    }
    result = {
        "correct": not problems,
        "attempted": sum(c[0] + c[1] for c in counts),
        "failed": sum(c[1] + c[4] for c in counts),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "spheredepth" / "__init__.py").is_file():
        print(f"error: no spheredepth sources under {SRC}", file=sys.stderr)
        return 2

    nproc = cap_blas_threads()  # before numpy is imported
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    try:
        detail, result = measure(args, nproc)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
