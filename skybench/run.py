"""skysched benchmark: one workload, one process, whole experiment rounds.

    python3 skybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from the
checkout's `src/`; without it the command exits non-zero, names the
missing package and prints no result. A round is one `load_config` + `run_experiment` call on the
workload's config (`skybench/workloads/NAME.yaml`, with `seeds: [N]`), the
path `skysched run` takes. Rounds repeat while the measured time plus one more
round fits in S seconds (at least one round). Every round's `metrics.csv`,
`eval.csv` and `summary.json` are checked (see `bench_checks.py`) and hashed;
all rounds of a run must give the same hash. Outputs go to a temporary
directory `.skybench_tmp_*` inside the checkout (the benchmark writes nothing
outside it), removed before exit, also when the run is stopped by SIGTERM or
SIGINT.

With `--trace 0` the last stdout line reports the end-to-end metrics:
setup_s, slots_per_s, decision_ms_p50 and peak_rss_mib. With `--trace 1` a
first untraced warm-up round gives the reference hash, then traced and
untraced rounds alternate: the traced ones give the per-layer metrics (per
round), and the two medians give the tracing overhead.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_DIR = HERE / "workloads"
WORKLOADS = sorted(p.stem for p in WORKLOAD_DIR.glob("*.yaml"))

sys.path.insert(0, str(HERE))
import bench_checks  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import skysched from this checkout's src/ (and its dependencies);
    exits non-zero naming the package when the sources are not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import scipy  # noqa: F401
        import yaml
        from skysched import experiment
    except ImportError as exc:
        sys.exit(f"skybench: cannot import package {exc.name!r} (program sources expected under {src}): {exc}")
    if not Path(experiment.__file__).resolve().is_relative_to(src):
        sys.exit(f"skybench: package 'skysched' missing from {src} (found {experiment.__file__} instead)")
    return yaml, experiment


def write_config(yaml, workload: str, seed: int, workdir: Path) -> Path:
    """The workload's config with this run's seed; output_dir is relative, so
    summary.json's config echo is the same in every temporary directory."""
    with open(WORKLOAD_DIR / f"{workload}.yaml", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["seeds"] = [seed]
    data["output_dir"] = "out"
    path = workdir / "config.yaml"
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)
    return path


def read_inference_ms(path: Path, into: dict) -> None:
    """Append each timing.csv row's inference_ms to its run_id's list."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            into.setdefault(row["run_id"], []).append(float(row["inference_ms"]))


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def decision_ms_p50(inference_ms: dict) -> float:
    """Median per-slot decision latency of each agent run, averaged over the
    runs: one median over a workload with a fast and a slow agent would sit
    in the gap between their two modes."""
    return statistics.mean(statistics.median(values) for values in inference_ms.values())


class Rounds:
    """Runs and checks experiment rounds, accumulating the run's totals."""

    def __init__(self, experiment, cfg):
        self.experiment = experiment
        self.cfg = cfg
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # make the run incorrect
        self.slot_problems: list[str] = []  # counted in `failed`
        self.hashes: set[str] = set()
        self.walls: list[float] = []
        self.inference_ms: dict[str, list[float]] = {}
        self.output_bytes = 0

    def run_one(self) -> float:
        out = self.cfg.output_dir
        start = time.perf_counter()
        result = self.experiment.run_experiment(self.cfg)
        wall = time.perf_counter() - start
        report = bench_checks.check_outputs(out)
        self.attempted += report.attempted
        self.failed += report.failed
        self.slot_problems += report.slot_problems
        self.problems += report.problems
        self.hashes.add(bench_checks.output_hash(out))
        read_inference_ms(result.timing_path, self.inference_ms)
        self.output_bytes = output_bytes(out)
        shutil.rmtree(out)
        self.walls.append(wall)
        return wall

    def run_for(self, seconds: float) -> None:
        """Whole rounds while the measured time plus one more round fits."""
        while True:
            wall = self.run_one()
            if sum(self.walls) + wall > seconds:
                return


def stop_on_sigterm(signum, _frame):
    """SIGTERM unwinds like SIGINT, so the temporary directory is removed."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    yaml, experiment = import_program()
    workdir = Path(tempfile.mkdtemp(prefix=".skybench_tmp_", dir=ROOT))
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        cfg = experiment.load_config(write_config(yaml, args.workload, args.seed, workdir).name)
        setup_s = time.perf_counter() - _START
        if args.trace:
            rounds, metrics = traced_run(experiment, cfg, args.seconds)
        else:
            rounds = Rounds(experiment, cfg)
            rounds.run_for(args.seconds)
            metrics = {
                "setup_s": (setup_s, "s"),
                # every expected slot row is one env slot stepped
                "slots_per_s": (rounds.attempted / sum(rounds.walls), "slots/s"),
                "decision_ms_p50": (decision_ms_p50(rounds.inference_ms), "ms"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    if len(rounds.hashes) != 1:
        rounds.problems.append(f"rounds gave {len(rounds.hashes)} different output hashes")
    for problem in (rounds.problems + rounds.slot_problems)[:40]:
        print(f"skybench: {problem}", file=sys.stderr)
    print(
        f"skybench: {args.workload} seed {args.seed}: {len(rounds.walls)} rounds, "
        f"round walls {[round(w, 3) for w in rounds.walls]}, output sha256 {min(rounds.hashes, default='-')}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_run(experiment, cfg, seconds: float):
    """An untraced warm-up round, then traced and untraced rounds in turn
    while one more pair fits (at least one pair). The per-layer metrics are
    per traced round; the overhead compares the median traced round with the
    median untraced round after the warm-up. Every round must hash like the
    others, and the update count must be the one the config implies."""
    import bench_trace

    rounds = Rounds(experiment, cfg)
    rounds.run_one()
    tracer = bench_trace.Tracer()
    traced, untraced = [], []
    while True:
        tracer.install()
        try:
            traced.append(rounds.run_one())
        finally:
            tracer.uninstall()
        untraced.append(rounds.run_one())
        if sum(rounds.walls) + traced[-1] + untraced[-1] > seconds:
            break
    values = tracer.metrics(len(traced))
    values["experiment.output_bytes"] = rounds.output_bytes
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    values["trace.overhead_pct"] = 100.0 * overhead
    if tracer.absent:
        print(f"skybench: absent trace targets (reported as 0): {tracer.absent}", file=sys.stderr)
    want_updates = bench_checks.expected_update_calls(cfg.resolved)
    if "agents.*.update" not in tracer.absent and values["agents.update.calls"] != want_updates:
        rounds.problems.append(f"agents.update.calls {values['agents.update.calls']} per round, config implies {want_updates}")
    total = values[f"{bench_trace.TOTAL_SPAN}.ms"]
    shares = {layer: values[f"layer.{layer}.ms"] / total for layer in bench_trace.LAYERS}
    print("skybench: layer shares " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()), file=sys.stderr)
    units = bench_trace.metric_units()
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return rounds, metrics


if __name__ == "__main__":
    sys.exit(main())
