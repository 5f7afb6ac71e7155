#!/usr/bin/env python3
"""Benchmark of hardysys: three workloads, checked against independent oracles.

    python3 bench/run.py --workload verify-matrix --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
items with spans around each layer and reports the per-layer metrics.  A run
repeats whole rounds of its workload until ``--seconds`` have passed.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run it from the repository root;
bench/README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import csv
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

import oracles
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
CHILD_TIMEOUT_S = 120

# The host shares its two cores, and its speed drifts by 10-20 % within
# seconds; a fixed pure-Python kernel slows down with it.  A run times the
# kernel after every REFERENCE_EVERY_S of work and scales each item's time by
# REFERENCE_S / (the median of the three kernel times nearest the item), or
# of all the run's kernel times for items run in a child process.
# REFERENCE_S is the kernel's median time on the reference machine of
# bench/README.md, so scaled times read as seconds on that machine.
REFERENCE_S = 2.0e-3
REFERENCE_EVERY_S = 0.1


def reference_kernel() -> float:
    x = 0.0
    for i in range(1, 10000):
        x += (i * 1e-3) ** 1.5 / (1.0 + i)
    return x


class Speed:
    """Kernel times sampled through a run, and the scale factors they give."""

    def __init__(self):
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)
        self.since = 0.0

    def after_work(self, seconds: float) -> None:
        """Count work done; sample the kernel once REFERENCE_EVERY_S has passed."""
        self.since += seconds
        if self.since >= REFERENCE_EVERY_S:
            self.sample()

    def nearest(self, n: int) -> float:
        """Scale factor for work done between samples n-1 and n: two samples
        before it and one after it, where the run has them."""
        return REFERENCE_S / statistics.median(self.samples[max(0, n - 2):n + 1])

    def whole_run(self, n: int) -> float:
        """Scale factor from every sample of the run, for work done anywhere in it."""
        return REFERENCE_S / statistics.median(self.samples)


class CheckError(Exception):
    """An output of the program that disagrees with the oracles."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * abs(reference)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(args, env) -> tuple[float, subprocess.CompletedProcess]:
    """Run `python <args>` to its end; return its wall time and result."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, done


def child_import_seconds(env) -> float:
    """Time to import hardysys in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); import hardysys; "
            "print(time.perf_counter() - t)")
    _, done = run_child(["-c", code], env)
    if done.returncode != 0:
        raise RuntimeError(f"importing hardysys in a child failed:\n{done.stderr}")
    return float(done.stdout)


# --- workloads -------------------------------------------------------------


class VerifyMatrix:
    """full_verification at default tolerances on the 36 acceptance-matrix cases.

    n in {3,4,5} x gamma in {0, lambda_n/2} x nu in {0,1} x mu0 in {0.5,1,2},
    alpha = beta = 2*/2.  The seed sets the order of the cases.
    """

    def __init__(self, seed: int):
        hs = importlib.import_module("hardysys")
        self.verify = importlib.import_module("hardysys.verify")
        self.coupling = importlib.import_module("hardysys.coupling")
        cases = []
        for n in (3, 4, 5):
            alpha = oracles.critical_exponent(n) / 2.0
            for gamma in (0.0, oracles.hardy_constant(n) / 2.0):
                for nu in (0.0, 1.0):
                    for mu0 in (0.5, 1.0, 2.0):
                        cases.append((hs.ProblemParams.symmetric(n, gamma, nu, alpha),
                                      mu0, oracles.matrix_constants(n, nu)))
        counted = oracles.CouplingOracle([(p.n, p.nu, p.alpha) for p, _, _ in cases])
        for i, (_, _, constants) in enumerate(cases):
            if len(counted.roots[i]) != len(constants):
                raise RuntimeError("the closed form and the root counter disagree")
        random.Random(seed).shuffle(cases)
        self.items = cases

    def call(self, case):
        params, mu0, _ = case
        return self.verify.full_verification(params, mu0)

    def check(self, case, report) -> bool:
        params, mu0, constants = case
        expect(report.overall, f"verification failed for {params}, mu0={mu0}")
        expect(report.n_families == len(constants),
               f"{report.n_families} families, closed form has {len(constants)}")
        families = self.coupling.classify(params, mu0)
        for fam, (c1, c2) in zip(families, constants):
            expect(abs(fam.c1 - c1) <= 1e-12 and abs(fam.c2 - c2) <= 1e-12,
                   f"constants ({fam.c1}, {fam.c2}) differ from ({c1}, {c2})")
        return False


# The fixed half of root-box is drawn with this seed whatever --seed is; it
# keeps the points whose roots lie outside the program's scan window.
ROOT_BOX_FIXED_SEED = 20230421
ROOT_BOX_POINTS = 1000
# the program scans [1e-8, 1e8]; roots outside it are lost (see CHANGES.md)
SCAN_WINDOW = (1e-8, 1e8)
# seeded points keep their roots a decade inside that window
SEEDED_WINDOW = (1e-6, 1e6)
# nearer to a tangential root than this, a point's root count is ill-posed
MIN_ROOT_SLOPE = 1e-3
MIN_CRITICAL_VALUE = 1e-6
# alpha this close to 2 or to 2*-2 puts roots beyond the range of a double
ALPHA_MARGIN = 0.1


def draw_box(rng, count: int, window=None):
    """``count`` well-posed (n, gamma, nu, alpha) points with their oracle.

    n in {3,4,5}, gamma uniform in [0, lambda_n), nu log-uniform in
    [1e-8, 1e3], alpha uniform in [1.05, 2*-1.05] away from 2 and 2*-2.
    With ``window``, only points whose roots all lie inside it are kept.
    """
    kept = []
    while len(kept) < count:
        batch = []
        while len(batch) < count:
            n = int(rng.choice((3, 4, 5)))
            two_star = oracles.critical_exponent(n)
            gamma = rng.uniform(0.0, oracles.hardy_constant(n))
            nu = 10.0 ** rng.uniform(-8.0, 3.0)
            alpha = rng.uniform(1.05, two_star - 1.05)
            if abs(alpha - 2.0) >= ALPHA_MARGIN and abs(alpha - (two_star - 2.0)) >= ALPHA_MARGIN:
                batch.append((n, float(gamma), float(nu), float(alpha)))
        oracle = oracles.CouplingOracle([(n, nu, alpha) for n, _, nu, alpha in batch])
        for i, point in enumerate(batch):
            roots = oracle.roots[i]
            if oracle.min_slope[i] < MIN_ROOT_SLOPE or oracle.min_crit[i] < MIN_CRITICAL_VALUE:
                continue
            if window and not np.all((roots > window[0]) & (roots < window[1])):
                continue
            kept.append((point, roots, oracle.bound[i], oracle.parity[i]))
    return kept[:count]


class RootBox:
    """classify at mu0 = 1 on drawn points, against the exponential-sum oracle.

    A round is ROOT_BOX_POINTS fixed points (drawn with ROOT_BOX_FIXED_SEED)
    and as many points drawn from --seed, in seeded order.  A fixed point on
    which the program returns fewer families than f has positive roots counts
    as failed; the seeded points keep their roots inside the scan window, so
    the share of failures is the same in every run.
    """

    def __init__(self, seed: int):
        hs = importlib.import_module("hardysys")
        self.coupling = importlib.import_module("hardysys.coupling")
        points = (draw_box(np.random.default_rng(ROOT_BOX_FIXED_SEED), ROOT_BOX_POINTS)
                  + draw_box(np.random.default_rng(abs(seed)), ROOT_BOX_POINTS, SEEDED_WINDOW))
        self.items = [(hs.ProblemParams.symmetric(n, gamma, nu, alpha), roots, bound, parity)
                      for (n, gamma, nu, alpha), roots, bound, parity in points]
        random.Random(seed).shuffle(self.items)

    def call(self, item):
        return self.coupling.classify(item[0], 1.0)

    def check(self, item, families) -> bool:
        p, roots, bound, parity = item
        found = [fam.c_tilde for fam in families]
        expect(len(found) <= min(3, bound), f"{len(found)} families exceed the bound at {p}")
        for fam in families:
            expect(any(close(fam.c_tilde, r, 1e-9) for r in roots),
                   f"root {fam.c_tilde!r} is not a root of f at {p}")
            residual = oracles.constants_residual(p.n, p.nu, p.alpha, fam.c1, fam.c2)
            expect(residual <= 1e-12, f"constants residual {residual:.3e} at {p}")
        if len(found) == len(roots):
            expect(len(found) % 2 == parity, f"root count parity broken at {p}")
            return False
        missing = [r for r in roots if not any(close(s, r, 1e-9) for s in found)]
        expect(all(r < SCAN_WINDOW[0] or r > SCAN_WINDOW[1] for r in missing),
               f"family lost inside the scan window at {p}: {missing}")
        return True


def _argv(command: str, n: int, alpha: float, *extra: str) -> tuple[str, ...]:
    return (command, "--n", str(n), "--gamma", "0", "--nu", "1", "--alpha", f"{alpha:g}",
            *extra)


SWEEP = dict(start=0.1, stop=2.0, samples=200)
CLI_COMMANDS = (
    ("classify", _argv("classify", 3, 3.0)),
    ("verify-json", _argv("verify", 4, 2.0)),
    ("verify-text", _argv("verify", 3, 3.0, "--format", "text")),
    ("verify-csv", _argv("verify", 4, 2.0, "--tol", "1e-12", "--format", "csv")),
    ("shoot", _argv("shoot", 4, 2.0)),
    ("sweep", _argv("sweep", 3, 3.0, "--param", "nu", "--start", str(SWEEP["start"]),
                    "--stop", str(SWEEP["stop"]), "--samples", str(SWEEP["samples"]))),
)


class CliSession:
    """Sequential `python -m hardysys` runs, one child at a time.

    The seed sets the order of the six commands within each round.  The
    traced run calls hardysys.cli.main in process on the same argv.
    """

    def __init__(self, seed: int):
        self.cli = importlib.import_module("hardysys.cli")
        self.env = child_env()
        self.items = list(CLI_COMMANDS)
        random.Random(seed).shuffle(self.items)
        self.classify_constants = oracles.matrix_constants(3, 1.0)
        self.classify_ratios = oracles.matrix_ratios(3, 1.0)
        self.families = {3: len(oracles.matrix_ratios(3, 1.0)), 4: len(oracles.matrix_ratios(4, 1.0))}
        c1_n4 = oracles.matrix_constants(4, 1.0)[0][0]
        self.shoot_target = oracles.shooting_target(4, 0.0, c1_n4)
        self.sweep_nu = np.linspace(SWEEP["start"], SWEEP["stop"], SWEEP["samples"])
        self.sweep_roots = oracles.CouplingOracle([(3, float(nu), 3.0) for nu in self.sweep_nu]).roots

    def call(self, item):
        _, argv = item
        _, done = run_child(["-m", "hardysys", *argv], self.env)
        return done.returncode, done.stdout

    def call_in_process(self, item):
        _, argv = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(list(argv))
        return code, out.getvalue()

    def check(self, item, output) -> bool:
        kind, argv = item
        code, text = output
        expect(code == 0, f"{' '.join(argv)} exited with {code}")
        try:
            getattr(self, "_check_" + kind.replace("-", "_"))(text)
        except (ValueError, KeyError, IndexError) as exc:
            raise CheckError(f"{kind}: unreadable output ({exc!r})") from exc
        return False

    def _check_classify(self, text):
        rows = list(csv.reader(io.StringIO(text)))
        expect(rows[0] == ["c_tilde", "c1", "c2", "f_prime"], "classify header")
        expect(len(rows) - 1 == len(self.classify_constants), "classify row count")
        for row, s, (c1, c2) in zip(rows[1:], self.classify_ratios, self.classify_constants):
            c_tilde, got1, got2 = (float(v) for v in row[:3])
            expect(close(c_tilde, s, 1e-12), f"classify ratio {c_tilde!r} != {s!r}")
            expect(abs(got1 - c1) <= 1e-12 and abs(got2 - c2) <= 1e-12, "classify constants")

    def _check_verify_json(self, text):
        report = json.loads(text)
        expect(report["overall"] is True and all(c["passed"] for c in report["checks"]),
               "verify json: a check failed")
        expect(report["families"] == self.families[4], "verify json family count")

    def _check_verify_text(self, text):
        lines = text.splitlines()
        expect(lines[-1] == "overall: pass", "verify text: overall")
        expect(f"families: {self.families[3]}" in lines, "verify text family count")
        checks = [line for line in lines if line.startswith("check: ")]
        expect(checks and all(line.endswith("pass=yes") for line in checks),
               "verify text: a check failed")

    def _check_verify_csv(self, text):
        rows = list(csv.reader(io.StringIO(text)))
        expect(rows[0] == ["name", "value", "threshold", "passed"], "verify csv header")
        expect(rows[-1] == ["overall", "", "", "true"], "verify csv: overall")
        checks = rows[1:-1]
        expect(checks and all(row[3] == "true" for row in checks), "verify csv: a check failed")
        families = {row[0].split(".")[0] for row in checks}
        expect(len(families) == self.families[4], "verify csv family count")

    def _check_shoot(self, text):
        fields = dict(line.split(": ") for line in text.splitlines())
        recovered = float(fields["recovered_amplitude"])
        expect(close(recovered, self.shoot_target, 1e-6),
               f"shoot recovered {recovered!r}, target {self.shoot_target!r}")

    def _check_sweep(self, text):
        rows = list(csv.reader(io.StringIO(text)))
        expect(rows[0] == ["index", "nu", "root_count", "roots"], "sweep header")
        expect(len(rows) - 1 == SWEEP["samples"], "sweep row count")
        for i, row in enumerate(rows[1:]):
            expect(int(row[0]) == i and float(row[1]) == self.sweep_nu[i], f"sweep row {i}")
            roots = self.sweep_roots[i]
            expect(int(row[2]) == len(roots), f"sweep root count at nu={row[1]}")
            found = [float(v) for v in row[3].split(";") if v]
            expect(len(found) == len(roots)
                   and all(close(s, r, 1e-9) for s, r in zip(found, roots)),
                   f"sweep roots at nu={row[1]}")


WORKLOADS = {"verify-matrix": VerifyMatrix, "root-box": RootBox, "cli-session": CliSession}


# --- measurement -----------------------------------------------------------


class Tally:
    """Latencies, attempts and failures over a run, with every output that
    disagreed with the oracles in ``errors``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.speed = Speed()
        # per timed item: its index, its seconds, and the kernel samples
        # taken before it ended; arrays keep peak memory flat over a long run
        self.index = array.array("l")
        self.seconds = array.array("d")
        self.samples_before = array.array("l")

    def run_round(self, workload, call, clock=time.perf_counter) -> None:
        """One pass over the workload's items."""
        for index, item in enumerate(workload.items):
            self.attempted += 1
            start = clock()
            try:
                output = call(item)
            except Exception as exc:  # an operation that fails is counted, not fatal
                output = exc
            elapsed = clock() - start
            samples_before = len(self.speed.samples)
            self.speed.after_work(elapsed)
            if isinstance(output, Exception):
                self.failed += 1
                print(f"failed: {type(output).__name__}: {output}", file=sys.stderr)
                continue
            self.index.append(index)
            self.seconds.append(elapsed)
            self.samples_before.append(samples_before)
            try:
                self.failed += workload.check(item, output)
            except CheckError as exc:
                self.errors.append(str(exc))

    def latencies(self, factor) -> dict[int, list[float]]:
        """Item index -> its times over the rounds, each multiplied by
        ``factor``(kernel samples taken before the item ended)."""
        out: dict[int, list[float]] = {}
        for index, seconds, n in zip(self.index, self.seconds, self.samples_before):
            out.setdefault(index, []).append(seconds * factor(n))
        return out


def measure_setup(factory, seed: int):
    """Median over SETUP_REPEATS of a fresh import of hardysys plus the build
    of the workload's inputs and oracles, scaled and unscaled, and the last
    workload built."""
    env = child_env()
    speed = Speed()
    times = []
    for _ in range(SETUP_REPEATS):
        import_s = child_import_seconds(env)
        start = time.perf_counter()
        workload = factory(seed)
        times.append(import_s + time.perf_counter() - start)
        speed.sample()
    scaled = [t * speed.nearest(n) for n, t in enumerate(times, start=1)]
    return statistics.median(scaled), statistics.median(times), workload


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def end_to_end(workload, seconds: float, tally: Tally) -> None:
    # A CLI run is timed by its CPU time: its wall time also counts the
    # waits for a core that the host lent to other tenants, which spread
    # 13-37 % per command where the CPU time spread 6-9 %.
    clock = children_cpu_seconds if isinstance(workload, CliSession) else time.perf_counter
    start = time.perf_counter()
    while tally.attempted == 0 or time.perf_counter() - start < seconds:
        tally.run_round(workload, workload.call, clock)


def e2e_metrics(workload, latencies: dict[int, list[float]], setup_s: float) -> dict:
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliSession) else resource.RUSAGE_SELF
    every = [t for times in latencies.values() for t in times]
    # each item's median over the rounds first: the plain median of the six
    # different CLI commands would sit on the gap between two of them
    return {
        "items_per_s": (len(every) / sum(every), "1/s"),
        "item_ms_p50": (1e3 * statistics.median(
            statistics.median(times) for times in latencies.values()), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
    }


def probe(cli_probe: bool, verify_probe: bool) -> None:
    """Reach the layers a workload never calls, for their per-call times."""
    if verify_probe:
        hs = importlib.import_module("hardysys")
        importlib.import_module("hardysys.verify").full_verification(
            hs.ProblemParams.symmetric(4, 0.0, 1.0, 2.0))
    if cli_probe:
        cli = importlib.import_module("hardysys.cli")
        for kind, argv in CLI_COMMANDS:
            if kind in ("classify", "sweep"):
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(list(argv))


class Paired:
    """Each item twice in a row, plain and traced, so that the host's drift
    cancels out of the tracing overhead.  Every other item runs traced first,
    so that the second call's warmer caches favour neither side."""

    def __init__(self, workload):
        self.workload = workload
        self.items = [(item, on) for k, item in enumerate(workload.items)
                      for on in ((False, True) if k % 2 == 0 else (True, False))]

    def check(self, pair, output) -> bool:
        return self.workload.check(pair[0], output)


def traced(workload, name: str, seconds: float, tally: Tally) -> dict:
    """Run each item plain and traced; derive per-layer metrics from the spans."""
    call = workload.call_in_process if isinstance(workload, CliSession) else workload.call
    tracer = spans.Tracer()
    paired = Paired(workload)
    rounds = []
    signature = None

    def paired_call(pair):
        item, on = pair
        tracer.active = on
        try:
            return call(item)
        finally:
            tracer.active = False

    # plain calls pass through the inactive wrappers: one test per wrapped call
    tracer.install()
    try:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            tally.run_round(paired, paired_call)
            rounds.append(tracer.take())
            if signature is None:
                signature = spans.count_signature(rounds[0])
            elif spans.count_signature(rounds[-1]) != signature:
                tally.errors.append("span counts differ between identical rounds")
    finally:
        tracer.uninstall()
    totals = [0.0, 0.0]  # plain, traced
    for index, spent, n in zip(tally.index, tally.seconds, tally.samples_before):
        totals[paired.items[index][1]] += spent * tally.speed.nearest(n)
    overhead_pct = 100.0 * (totals[1] / totals[0] - 1.0)

    every = [s for r in rounds for s in r]
    reached = {s.name for s in every}
    tracer.install()
    tracer.active = True
    try:
        probe(cli_probe="cli.cmd_sweep" not in reached,
              verify_probe="verify.full_verification" not in reached)
    finally:
        tracer.active = False
        tracer.uninstall()
    probe_spans = tracer.take()

    env = child_env()
    startup_ms = 1e3 * statistics.median(
        run_child(["-c", "import hardysys.cli"], env)[0] for _ in range(STARTUP_REPEATS))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans.write_spans(os.path.join(OUT_DIR, f"spans-{name}.json"), rounds, probe_spans)
    values = spans.layer_metrics(rounds[0], every, probe_spans, startup_ms, overhead_pct)
    return {key: (values[key], unit) for key, unit in spans.PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = os.path.join(SRC, "hardysys", "__init__.py")
    if not os.path.isfile(package):
        print(f"no hardysys sources at {package}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    hardysys = importlib.import_module("hardysys")
    if os.path.dirname(os.path.abspath(hardysys.__file__)) != os.path.dirname(package):
        print(f"imported hardysys from {hardysys.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # the program's own RuntimeWarnings (no sign change, degenerate roots) are
    # expected on the drawn points and would only slow the timed calls
    warnings.simplefilter("ignore", RuntimeWarning)

    setup_s, setup_unscaled, workload = measure_setup(WORKLOADS[args.workload], args.seed)
    tally = Tally()
    unscaled = {}
    if args.trace:
        metrics = traced(workload, args.workload, args.seconds, tally)
    else:
        end_to_end(workload, args.seconds, tally)
        # a child may run on the other core, which the samples nearest it do not see
        factor = tally.speed.whole_run if isinstance(workload, CliSession) else tally.speed.nearest
        metrics = e2e_metrics(workload, tally.latencies(factor), setup_s)
        unscaled = e2e_metrics(workload, tally.latencies(lambda n: 1.0), setup_unscaled)
    for message in tally.errors[:10]:
        print(f"check: {message}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, unscaled={k: v for k, (v, _) in unscaled.items()},
                       reference_s=tally.speed.samples), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
