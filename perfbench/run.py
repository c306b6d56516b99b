"""Benchmark of the squeezesim CLI: three workloads, timed end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload evolve_csv --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are setup_s, answer_s and peak_rss_mb; with ``--trace 1`` they
are the per-layer figures of perfbench/spans.py.  ``--workload all`` runs
every workload in turn and prints one such line for each, tagged with its
name.  See perfbench/README.md for the workloads and the sampling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# the CLI's default fit lattice, written out so that the oracle does not read it from src/
RATIOS = (1.5, 2.0, 3.0, 4.0, 5.0)
EPSILONS = (0.0, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.0)
FIT_LADDER_TOL = 1e-4
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3


def _evolve_check():
    ref = oracle.mode_function_R(1.0, 3.0, 0.5)
    return lambda stdout: checks.check_evolve(stdout, ref, 1e-4)


def _fit_check():
    rows = [(1.0, omegaf, eps, oracle.mode_function_R(1.0, omegaf, eps))
            for k in RATIOS for omegaf in (k, 1.0 / k) for eps in EPSILONS]
    c1, c2, pinv = oracle.fit_secant(rows)
    bounds = oracle.fit_bounds(pinv, FIT_LADDER_TOL)
    return lambda stdout: checks.check_fit(stdout, len(rows), (c1, c2), bounds)


def _sweep_check():
    ref = oracle.mode_function_R(1.0, 5.0, 0.1)
    return lambda stdout: checks.check_sweep(stdout, 0.1, ref, 1e-5)


# name -> (CLI arguments, whether it writes the trajectory CSV, oracle check builder)
WORKLOADS = {
    "evolve_csv": (["evolve", "--omegaf", "3", "--out", str(OUT / "run.csv")], True, _evolve_check),
    "fit_sweep": (["fit", "--source", "simulation"], False, _fit_check),
    "sweep_deep": (["sweep", "--omegaf", "5", "--eps", "0.1", "--tol", "1e-5", "--stride", "64"],
                   False, _sweep_check),
}


def _env() -> dict:
    env = dict(os.environ)
    # cache the package's bytecode as an installed package would have it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_scipy_s(env) -> float:
    """Cumulative import time of the scipy subtrees that importing the CLI pulls in.

    Read from ``python -X importtime``, which prints each module after its
    children with two spaces of indentation per level; a scipy module counts
    when no module above it is a scipy module.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import squeezesim.cli"],
                          capture_output=True, env=env, cwd=ROOT, text=True, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    total_us = 0
    ancestors: list[str] = []
    for depth, name, cumulative_us in reversed(entries):
        del ancestors[depth:]
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            total_us += cumulative_us
        ancestors.append(name)
    return total_us / 1e6


class Worker:
    """A fresh worker.py process, timed from its start until the CLI is imported.

    ``setup_s`` is that wall time less the worker's sampler time, scaled to
    the reference speed (see speed.py); ``setup_wall_s`` is the raw figure.
    ``quit`` returns the worker's peak RSS and waits for it to exit.
    """

    def __init__(self, env):
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)
        try:
            ready = self._receive()
        except BaseException:
            self.close()
            raise
        self.setup_wall_s = time.perf_counter() - start
        self.setup_s = (self.setup_wall_s - ready["spent"]) * ready["speed"]

    def _receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"benchmark worker exited (status {self.proc.wait()})")
        return json.loads(line)

    def request(self, obj: dict) -> dict:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        return self._receive()

    def quit(self) -> float:
        try:
            return self.request({"op": "quit"})["peak_rss_mb"]
        finally:
            self.close()

    def close(self) -> None:
        """Close its input, which ends it after a quit; kill it if it is still busy."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _median(values) -> float:
    return float(statistics.median(values))


def _answer(env, request: dict, setups: list) -> tuple[dict, float]:
    """One CLI call in a fresh worker: its set-up sample, its answer, its peak RSS."""
    worker = Worker(env)
    try:
        setups.append((worker.setup_s, worker.setup_wall_s))
        reply = worker.request(request)
    except BaseException:
        worker.close()
        raise
    return reply, worker.quit()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    argv, writes_csv, build_check = WORKLOADS[name]
    check = build_check()  # oracle values, computed before any clock starts
    OUT.mkdir(exist_ok=True)
    csv_path = str(OUT / "run.csv") if writes_csv else None
    env = _env()
    Worker(env).quit()  # writes the package's bytecode cache in a fresh checkout; not counted

    request = {"op": "answer", "argv": argv, "trace": False, "csv": csv_path}
    setups: list[tuple[float, float]] = []
    replies: list[dict] = []
    peaks: list[float] = []
    traced: list[dict] = []
    # one round: an untraced answer and, in the traced run, a traced one,
    # each in a fresh worker.  Rounds are whole, and another starts only if
    # one as long as the last still fits in the budget, so a round about as
    # long as the budget runs once.
    start = round_start = time.perf_counter()
    while True:
        reply, peak = _answer(env, request, setups)
        replies.append(reply)
        peaks.append(peak)
        if trace:
            traced.append(_answer(env, {**request, "trace": True}, [])[0])
        now = time.perf_counter()
        if 2 * now - round_start - start > seconds:
            break
        round_start = now
    while not trace and len(setups) < SETUP_SAMPLES:
        worker = Worker(env)
        setups.append((worker.setup_s, worker.setup_wall_s))
        worker.quit()

    print(f"{name}: {len(replies)} answers, raw wall median {_median(r['wall_s'] for r in replies):.4f} s "
          f"at speed {_median(r['speed'] for r in replies):.3f}"
          + (f"; raw set-up median {_median(w for _, w in setups):.4f} s" if not trace else ""),
          file=sys.stderr)
    answers = replies + traced
    ok = [r for r in answers if r["rc"] == 0]
    problems: list[str] = []
    for reply in ok:
        problems += check(reply["stdout"])
    if writes_csv and ok:
        data = Path(csv_path).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if any(r["csv_sha256"] != digest for r in ok):
            problems.append("the trajectory CSV differs between answers")
        n_records = int(checks.key_values(ok[-1]["stdout"]).get("n_records", -1))
        problems += checks.check_trajectory_csv(data.decode(), n_records)
    for reply in answers:
        if reply["rc"] != 0:
            print(f"{name}: answer failed with exit {reply['rc']}: {reply['stderr'][-500:]}",
                  file=sys.stderr)
    for problem in dict.fromkeys(problems):
        print(f"{name}: check failed: {problem}", file=sys.stderr)

    if trace:
        layer = _median_metrics([r["metrics"] for r in traced])
        layer["cli.import_scipy_s"] = _median(import_scipy_s(env) for _ in range(IMPORTTIME_SAMPLES))
        layer["trace.overhead_s"] = (_median(r["answer_s"] for r in traced)
                                     - _median(r["answer_s"] for r in replies))
        metrics = {key: {"value": layer[key], "unit": unit} for key, unit in spans.UNITS.items()}
        (OUT / f"trace-{name}.json").write_text(json.dumps({
            "workload": name, "seed": seed, "argv": argv, "wrapped": traced[0]["wrapped"],
            "answers": [{"answer_s": r["answer_s"], "spans": r["spans"]} for r in traced],
        }))
    else:
        metrics = {
            "setup_s": {"value": _median(s for s, _ in setups), "unit": "s"},
            "answer_s": {"value": _median(r["answer_s"] for r in replies), "unit": "s"},
            "peak_rss_mb": {"value": _median(peaks), "unit": "MiB"},
        }
    return {"correct": not problems, "attempted": len(answers),
            "failed": len(answers) - len(ok), "metrics": metrics}


def _median_metrics(per_answer: list[dict]) -> dict:
    """Median of each metric over traced answers; a count that repeats keeps its type."""
    out = {}
    for key in per_answer[0]:
        values = [m[key] for m in per_answer]
        out[key] = values[0] if len(set(values)) == 1 else _median(values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the trace file; the workloads have no random input")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="start another round only while one as long as the last still fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so that the worker is stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "squeezesim" / "cli.py").is_file():
        print(f"error: no squeezesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct = correct and result["correct"]
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
