"""Inputs and correctness checks of the three workloads.

Each workload makes its experiment from ``presets`` and the run's seed,
collects what one round of the command wrote, and after the timed
rounds evaluates every round against the oracles in ``oracles``.  One
evaluation returns the operations attempted, those that failed, and the
failures that no known fault explains (any of those makes the run
incorrect).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import oracles

LAWS = ("eso_model_free", "p_type")
TRACE_HEADER = "k,err_inf,err_2,u_norm,ubar_norm,obs_err_norm,diverged"
#: relative tolerance of a report's rho against the exact value
REPORT_RTOL = 1e-9
#: tolerance of the trace against the reference loop, relative to sup_err
REFERENCE_RTOL = 1e-9
#: dense ``eigvals`` scatters the defective T-fold eigenvalue of these loops
KNOWN_FAULT_REPORTS = ("eq62", "eq102")
EXPECTED_REPORTS = ("eq04", "eq17", "eq62", "eq95", "eq102")
CERTIFICATE_SAMPLES = 4


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


#: a simulated draw is admitted only if the reference loop keeps every
#: input this far below the program's divergence cap of 1e12
ADMISSION_U_PEAK = 1e11


def tail_window(iterations: int) -> int:
    """The documented tail window, max(50, K/10), capped at K."""
    return min(max(50, iterations // 10), iterations)


def admits(seed: int, horizon: int, iterations: int) -> bool:
    """Whether a draw's runs stay well inside the cap and show the paper's claim.

    At T = 100 the amplification screen of ``presets.reference_seeds``
    lets through draws whose transients pass the divergence cap, and
    draws whose ESO run has not yet settled below p_type at K = 500.
    Either would fail on some seeds only, so such draws are skipped.
    """
    g = oracles.reference_gains(horizon)
    P = oracles.true_plant(seed, horizon)
    N = oracles.cumulative_sine(iterations, horizon)
    r = oracles.target(horizon)
    runs = {law: oracles.reference_loop(P, r, N, law, g) for law in LAWS}
    w = tail_window(iterations)
    return (
        max(run["u_peak"] for run in runs.values()) <= ADMISSION_U_PEAK
        and runs["eso_model_free"]["err_inf"][-w:].max() < runs["p_type"]["err_inf"][-w:].max()
    )


def choose_seeds(spec: dict, start: int) -> list[int]:
    """The first sane reference draws from ``start`` on; simulated ones admitted."""
    from iterlearn import presets

    horizon = spec["horizon"]
    if spec["command"] != "simulate":
        return presets.reference_seeds(spec["seeds"], start=start, horizon=horizon)
    seeds = []
    candidate = start
    while len(seeds) < spec["seeds"]:
        (seed,) = presets.reference_seeds(1, start=candidate, horizon=horizon)
        if admits(seed, horizon, spec["iterations"]):
            seeds.append(seed)
        candidate = seed + 1
    return seeds


def make_experiment(spec: dict, seed: int, directory: Path) -> tuple[Path, list[int]]:
    """Write the workload's config for the draws chosen from ``seed``."""
    from iterlearn import presets

    horizon = spec["horizon"]
    seeds = choose_seeds(spec, seed)
    config = presets.write_reference_experiment(
        directory, seeds=seeds, iterations=spec.get("iterations", 500), horizon=horizon
    )
    if "eta" in spec:
        doc = _read_json(config)
        identity = np.eye(horizon)
        doc["structure"] = {
            "phi1": (spec["eta"] * identity).tolist(),
            "phi2": identity.tolist(),
        }
        with open(config, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
    return config, seeds


class SimulateCheck:
    """``simulate``: each (law, seed) run is one operation."""

    def __init__(self, spec: dict, seeds: list[int]):
        self.horizon = spec["horizon"]
        self.iterations = spec["iterations"]
        self.seeds = seeds
        self.runs = [(law, seed) for law in LAWS for seed in seeds]

    def argv(self, config: Path, out: Path) -> list[str]:
        return ["simulate", "--config", str(config), "--out", str(out), "--quiet"]

    def collect(self, out: Path):
        try:
            summary = _read_json(out / "summary.json")
            files = {r["trace_file"]: _sha256(out / r["trace_file"]) for r in summary["runs"]}
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return summary, files

    def evaluate(self, records: list, first_out: Path):
        problems: list[str] = []
        first = self._check_first_round(records[0], first_out, problems)
        failed = sum(
            not self._run_ok(i, record, first, law, seed, problems)
            for i, record in enumerate(records)
            for law, seed in self.runs
        )
        return len(records) * len(self.runs), failed, problems

    def _entry(self, record, law, seed):
        if record is None:
            return None
        summary, _ = record
        for run in summary.get("runs", []):
            if run.get("law") == law and run.get("seed") == seed:
                return run
        return None

    def _run_ok(self, i, record, first, law, seed, problems) -> bool:
        run = self._entry(record, law, seed)
        where = f"round {i} {law} seed {seed}"
        if run is None:
            problems.append(f"{where}: no run in summary.json")
            return False
        if run["rows"] != self.iterations or run["diverged"]:
            problems.append(f"{where}: rows {run['rows']}, diverged {run['diverged']}")
            return False
        if (law, seed) not in first:
            return False  # the first round's own check reported why
        if record[1].get(run["trace_file"]) != first[(law, seed)]:
            problems.append(f"{where}: trace CSV differs from the first round")
            return False
        return True

    def _check_first_round(self, record, out: Path, problems: list[str]) -> dict:
        """Check round 0 against the reference loop; digests of the good runs."""
        good = {}
        g = oracles.reference_gains(self.horizon)
        r = oracles.target(self.horizon)
        N = oracles.cumulative_sine(self.iterations, self.horizon)
        tail = tail_window(self.iterations)
        tails = {}
        for law, seed in self.runs:
            run = self._entry(record, law, seed)
            if run is None:
                continue
            where = f"round 0 {law} seed {seed}"
            path = out / run["trace_file"]
            try:
                with open(path, "r", encoding="ascii") as fh:
                    header = fh.readline().strip()
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except (OSError, ValueError) as exc:
                problems.append(f"{where}: unreadable trace CSV: {exc}")
                continue
            if header != TRACE_HEADER or data.shape != (self.iterations, 7):
                problems.append(f"{where}: trace CSV header or shape {data.shape} is wrong")
                continue
            if np.any(data[:, 0] != np.arange(self.iterations)) or np.any(data[:, 6] != 0):
                problems.append(f"{where}: iteration or diverged column is wrong")
                continue
            ref = oracles.reference_loop(oracles.true_plant(seed, self.horizon), r, N, law, g)
            err_inf, u_norm = data[:, 1], data[:, 3]
            sup_err = err_inf.max()
            dev_e = np.abs(err_inf - ref["err_inf"]).max() / sup_err
            dev_u = np.abs(u_norm - ref["u_norm"]).max() / max(u_norm.max(), 1.0)
            if not (dev_e <= REFERENCE_RTOL and dev_u <= REFERENCE_RTOL):
                problems.append(
                    f"{where}: differs from the reference loop by {dev_e:.3g} (err_inf) "
                    f"and {dev_u:.3g} (u_norm) relative"
                )
                continue
            tails[(law, seed)] = err_inf[-tail:].max()
            good[(law, seed)] = record[1][run["trace_file"]]
        for seed in self.seeds:
            eso, p = tails.get(("eso_model_free", seed)), tails.get(("p_type", seed))
            if eso is not None and p is not None and not eso < p:
                problems.append(
                    f"seed {seed}: ESO tail error {eso:.3g} is not below p_type {p:.3g}"
                )
                del good[("eso_model_free", seed)]
        return good


class CheckCheck:
    """``check``: each condition report and the certificate search is one operation."""

    def __init__(self, spec: dict, seeds: list[int]):
        self.horizon = spec["horizon"]
        self.eta = spec["eta"]
        self.seeds = seeds

    def argv(self, config: Path, out: Path) -> list[str]:
        return ["check", "--config", str(config), "--out", str(out), "--quiet"]

    def collect(self, out: Path):
        try:
            report = _read_json(out / "report.json")
        except (OSError, ValueError):
            return None
        cert = out / "certificate.json"
        return report, (_sha256(cert) if cert.is_file() else None)

    def evaluate(self, records: list, first_out: Path):
        g = oracles.reference_gains(self.horizon)
        for name in ("K", "Hbar", "S"):
            oracles.assert_lower_triangular_toeplitz(g[name], name)
        exact = {}
        for seed in self.seeds:
            P = oracles.true_plant(seed, self.horizon)
            oracles.assert_lower_triangular_toeplitz(P, f"lifted P of seed {seed}")
            for cid in EXPECTED_REPORTS:
                exact[(seed, cid)] = oracles.exact_rho(oracles.catalog_blocks(cid, P, g))
        problems: list[str] = []
        cert_digest = self._check_certificate(records[0], first_out, g, problems)

        per_round = len(self.seeds) * len(EXPECTED_REPORTS) + 1
        attempted = len(records) * per_round
        failed = 0
        flips: list[str] = []  # the known fault at its worst: a wrong verdict
        for i, record in enumerate(records):
            if record is None:
                failed += per_round
                problems.append(f"round {i}: no report.json")
                continue
            report, digest = record
            conditions = report.get("conditions", {})
            for seed in self.seeds:
                reports = {r["condition_id"]: r for r in conditions.get(str(seed), [])}
                extra = set(reports) - set(EXPECTED_REPORTS)
                if extra:
                    problems.append(f"round {i} seed {seed}: unexpected reports {sorted(extra)}")
                for cid in EXPECTED_REPORTS:
                    rep = reports.get(cid)
                    want = exact[(seed, cid)]
                    if rep is None:
                        failed += 1
                        problems.append(f"round {i} seed {seed}: no {cid} report")
                        continue
                    verdict_ok = rep["holds"] == (want < 1.0)
                    rho_ok = abs(rep["rho"] - want) <= REPORT_RTOL * want
                    if verdict_ok and rho_ok:
                        continue
                    failed += 1
                    line = (
                        f"round {i} seed {seed} {cid}: rho {rep['rho']!r}, holds "
                        f"{rep['holds']}, exact {want!r}"
                    )
                    if cid not in KNOWN_FAULT_REPORTS:
                        problems.append(line)
                    elif not verdict_ok and i == 0:
                        flips.append(line)
            lmi = report.get("lmi", {})
            if not (lmi.get("found") and lmi.get("id") == "eq101" and cert_digest is not None):
                failed += 1
                problems.append(f"round {i}: no valid eq101 certificate ({lmi})")
            elif digest != cert_digest:
                failed += 1
                problems.append(f"round {i}: certificate differs from the first round")
        for line in flips:
            print(f"perfbench: known fault flips a verdict: {line}", file=sys.stderr)
        return attempted, failed, problems

    def _check_certificate(self, record, out: Path, g: dict, problems: list[str]):
        """Digest of the first round's certificate if it passes the oracle."""
        if record is None or record[1] is None:
            return None
        cert = _read_json(out / "certificate.json")
        identity = np.eye(self.horizon)
        found = oracles.certificate_problems(
            cert, g, self.eta * identity, identity, seed=self.seeds[0],
            samples=CERTIFICATE_SAMPLES,
        )
        problems.extend(f"round 0 certificate: {p}" for p in found)
        return None if found else record[1]


CHECKS = {"simulate": SimulateCheck, "check": CheckCheck}
