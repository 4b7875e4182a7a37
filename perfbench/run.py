"""Benchmark of the eelm package: one workload per process.

    python3 perfbench/run.py --workload sinc-protocol --seed 1 \\
        --seconds 36 --trace 0

Run from a checkout of the repository; eelm is imported from its
``src`` directory. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Exit code 0 means every output passed its checks, 1 a
failed check (named on standard error), 2 that the workload could not
run at all.
"""

import os

# One OpenBLAS thread; this must be set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from metrics import END_TO_END, per_layer_units  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import WORKLOADS, BenchmarkError  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set-up is repeated SETUP_REPS times, spread over the run, and the
# median reported: set-ups made back to back would all see the same
# moment of the machine's drifting speed (see best()).
SETUP_REPS = 15

# eelm predict rounds after the last pass even when no time is left.
MIN_FILL_ROUNDS = 3


def load_eelm():
    """Import eelm afresh from the checkout's source tree."""
    for name in [n for n in sys.modules if n.split(".")[0] == "eelm"]:
        del sys.modules[name]
    eelm = importlib.import_module("eelm")
    importlib.import_module("eelm.cli")
    if not Path(eelm.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"eelm was imported from {eelm.__file__}, "
                             f"not from {SRC}")
    return eelm


def thread_count():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class Inputs:
    """The workload's inputs, remade by each timed set-up."""

    def __init__(self, workload, size, seed, workdir):
        self.workload, self.size, self.seed = workload, size, seed
        self.workdir = workdir
        self.times = []
        self.eelm = self.instances = None

    def set_up(self) -> None:
        """Import eelm, make the inputs and write the files."""
        t0 = time.perf_counter()
        self.eelm = load_eelm()
        self.instances = self.workload.setup(
            self.eelm, self.seed, self.workdir,
            **workloads.SIZES[self.workload.name][self.size])
        self.times.append(time.perf_counter() - t0)


def timed_passes(inputs: Inputs, seconds, trace):
    """Passes until the next one would end after ``seconds``, then
    predict calls until ``seconds`` have passed (see fill_predicts),
    with the set-ups due by then made between them.

    Traced runs alternate an untraced and a traced pass on the same
    inputs. Returns (pass results, tracer).
    """
    workload = inputs.workload
    tracer = spans.Tracer() if trace else None
    per_instance = 2 if trace else 1
    results = []
    start = time.perf_counter()

    def set_ups_due():
        while (len(inputs.times) < SETUP_REPS and time.perf_counter() - start
               >= len(inputs.times) * seconds / SETUP_REPS):
            inputs.set_up()

    while True:
        set_ups_due()
        p = len(results)
        k = (p // per_instance) % len(inputs.instances)
        traced = trace and p % 2 == 1
        result = workload.run_pass(inputs.eelm, inputs.instances[k], k,
                                   inputs.workdir,
                                   tracer=tracer if traced else None)
        result.traced = traced
        # outputs are checked from the first pass on each input set;
        # later passes must reproduce them
        if any(r.instance == k for r in results):
            result.discard_outputs()
        results.append(result)
        done = len(results)
        wall = time.perf_counter() - start
        if done % per_instance == 0 and wall * (done + 1) / done > seconds:
            break
    fill_predicts(inputs, results, start + seconds, set_ups_due)
    while len(inputs.times) < SETUP_REPS:
        inputs.set_up()
    return results, tracer


def fill_predicts(inputs: Inputs, results, end, set_ups_due) -> None:
    """Until ``end``, and at least MIN_FILL_ROUNDS times, one more
    ``eelm predict`` on each model served by the last untraced pass.

    A large-fit pass takes most of a run and serves two predictions, too
    few samples of predict_rows_per_s; the time after the last pass
    adds samples spread over the rest of the run. They are timed like
    the pass's own, counted in no pass, and must write the same
    predictions as the pass.
    """
    last = next(r for r in reversed(results) if not r.traced)
    served = dict((algo, pred) for algo, error, pred in last.answer()[1]
                  if error is None)
    written = []
    rounds = 0
    while rounds < MIN_FILL_ROUNDS or time.perf_counter() < end:
        set_ups_due()
        written += workloads.predict_again(
            inputs.eelm, inputs.instances[last.instance], last.served,
            inputs.workdir, str(rounds))
        rounds += 1
    for algo, path in written:
        if not workloads.same_answer(workloads.read_predictions(path),
                                     served[algo]):
            raise CheckFailed(f"serving {algo}: eelm predict, repeated, "
                              f"wrote other predictions than the pass")
        path.unlink()


def check_run(workload, eelm, instances, workdir, results):
    """Check every output; returns ({algo: [test errors]}, attempted,
    failed) of the check passes."""
    errors = {"eelm": [], "elm": []}
    attempted = failed = 0
    checked = {}
    for k, inst in enumerate(instances):
        first = next((r for r in results if r.instance == k), None)
        try:
            if workload.protocol is None and first is not None:
                result = first
            else:
                capture = workloads.Capture()
                result = workload.run_pass(eelm, inst, k, workdir,
                                           capture=capture)
                attempted += result.attempted
                failed += result.failed
                if workload.protocol is not None:
                    found = workloads.check_protocol(workload, inst,
                                                     result.report, capture)
                    for algo, values in found.items():
                        errors[algo].extend(values)
            for algo, values in workloads.check_served(
                    workload, inst, result.served).items():
                errors[algo].extend(values)
        except CheckFailed as exc:
            raise CheckFailed(f"input set {k}: {exc}") from None
        checked[k] = result.answer()
    for p, r in enumerate(results):
        if not workloads.same_answer(r.answer(), checked[r.instance]):
            raise CheckFailed(f"pass {p}: outputs differ from the checked "
                              f"outputs of input set {r.instance}")
    return errors, attempted, failed


def best(values, name, fastest=min):
    """The fastest sample of the run.

    The machine's speed drifts by about 20 % in phases of seconds to
    minutes. Nearly every run catches some fast moments, so the run's
    fastest sample varies from run to run half to a third as much as
    its median does.
    """
    values = list(values)
    if not values:
        raise BenchmarkError(f"{name}: no successful operation to measure")
    return fastest(values)


def end_to_end(setup_times, results, instances, peak_rss_mb,
               errors) -> dict:
    fits = {"eelm": [], "elm": []}
    rates = []
    for r in results:
        for s in r.served:
            if s.fit_s is not None:
                fits[s.algo].append(s.fit_s)
            if s.error is None:
                rows = len(instances[r.instance].heldout_x)
                rates.extend(rows / t for t in s.predict_s)
    values = {
        "setup_s": statistics.median(setup_times),
        "protocol_s": best((r.seconds for r in results), "protocol_s"),
        "eelm_fit_s": best(fits["eelm"], "eelm_fit_s"),
        "elm_fit_s": best(fits["elm"], "elm_fit_s"),
        "predict_rows_per_s": best(rates, "predict_rows_per_s", max),
        "peak_rss_mb": peak_rss_mb,
        "eelm_test_error": _mean(errors["eelm"], "eelm_test_error"),
        "elm_test_error": _mean(errors["elm"], "elm_test_error"),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def _mean(values, name):
    if not values:
        raise BenchmarkError(f"{name}: no successful operation to measure")
    return statistics.fmean(values)


def per_layer(results, tracer) -> dict:
    traced = [r for r in results if r.traced]
    untraced = [r for r in results if not r.traced]
    n = len(traced)
    values = {}
    for span, entry in tracer.totals().items():
        values[f"{span}.self_s"] = entry["self_s"] / n
        values[f"{span}.calls"] = entry["calls"] / n
        if span in spans.WORK:
            values[f"{span}.{spans.WORK[span][0]}"] = entry["work"] / n
    values["trace_overhead_s"] = (min(r.seconds for r in traced)
                                  - min(r.seconds for r in untraced))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units().items()}


def run(workload_name, seed, seconds, trace, size):
    workload = WORKLOADS[workload_name]
    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-",
                                    dir=HERE / "work"))
    try:
        inputs = Inputs(workload, size, seed, workdir)
        inputs.set_up()
        threads = thread_count()
        if threads not in (None, 1):
            raise BenchmarkError(f"the process runs {threads} threads, "
                                 f"expected 1")
        results, tracer = timed_passes(inputs, seconds, trace)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        errors, more_attempted, more_failed = check_run(
            workload, inputs.eelm, inputs.instances, workdir, results)
        metrics = (per_layer(results, tracer) if trace else
                   end_to_end(inputs.times, results,
                              inputs.instances, peak_rss_mb, errors))
        return {"correct": True, "attempted": attempted + more_attempted,
                "failed": failed + more_failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "eelm" / "__init__.py").is_file():
        print(f"perfbench: no eelm source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.size)
    except CheckFailed as exc:
        print(f"perfbench: {args.workload}: check failed: {exc}",
              file=sys.stderr)
        return 1
    except BenchmarkError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
