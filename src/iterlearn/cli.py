"""Command-line front end: lift, simulate, check, plot.

Experiments are described by a JSON config (``format_version`` 1); runs
are deterministic per (config, seed) and emit per-run trace CSVs, a
summary JSON, condition/certificate reports, and SVG convergence plots.
Exit codes: 0 success, 2 config error, 3 numeric divergence in all runs,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import learner, plant, stability
from .learner import GainSet, LearningLaw, SimulationConfig
from .matanalysis import as_matrix, save_matrix
from .observer import ObserverGain
from .svgplot import write_convergence_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unresolvable experiment configuration."""


# Config values are type-checked, not coerced: int("2"), list("12") and int(2.5)
# would misread a value, and true/false would pass as a number.
def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def _array(value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array, got {json.dumps(value)}")
    return value


def _matrix_field(obj, name: str, base: Path) -> np.ndarray:
    """A matrix given inline as nested arrays or as a matrix-text file ref."""
    if isinstance(obj, dict) and "file" in obj:
        from .matanalysis import load_matrix

        return load_matrix(base / obj["file"])
    try:
        return as_matrix(np.asarray(obj, dtype=float), name)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid matrix for {name!r}: {exc}") from exc


def _parse_uncertainty(obj, dimension: int) -> plant.UncertaintyModel:
    if obj is None:
        return plant.UncertaintyModel.zero(dimension)
    kind = obj.get("kind")
    try:
        if kind == "zero":
            return plant.UncertaintyModel.zero(dimension)
        if kind == "constant":
            return plant.UncertaintyModel.constant(np.asarray(obj["value"], dtype=float))
        if kind == "ramp":
            return plant.UncertaintyModel.ramp(np.asarray(obj["slope"], dtype=float))
        if kind == "cumulative_sine":
            return plant.UncertaintyModel.cumulative_sine(dimension)
        if kind == "table":
            return plant.UncertaintyModel.from_table(np.asarray(obj["rows"], dtype=float))
        if kind == "seeded_bounded":
            seed = obj.get("seed")
            return plant.UncertaintyModel(
                kind="seeded_bounded",
                dimension=dimension,
                bound=_number(obj["bound"], "uncertainty.bound"),
                seed=None if seed is None else _integer(seed, "uncertainty.seed"),
            )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid uncertainty descriptor: {exc}") from exc
    raise ConfigError(f"unknown uncertainty kind {kind!r}")


class Experiment:
    """A parsed config able to materialize per-seed runs.

    Each seed's plant and gains are built once and shared by every run,
    condition report and certificate search of that seed.
    """

    def __init__(self, doc: dict, base: Path):
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        if doc.get("format_version") != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported config format_version {doc.get('format_version')!r}"
            )
        self.base = base
        try:
            self.laws: list[str] = _array(doc["laws"], "laws")
            self.iterations = _integer(doc["iterations"], "iterations")
        except KeyError as exc:
            raise ConfigError(f"config missing field {exc}") from exc
        if not self.laws:
            raise ConfigError("config must list at least one law")
        for mode in self.laws:
            if mode not in learner.LAW_MODES:
                raise ConfigError(f"unknown law {mode!r}")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        seeds = _array(doc.get("seeds", [0]), "seeds")
        self.seeds = [_integer(s, "seeds entry") for s in seeds]
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        self.output_dir = doc.get("output_dir")

        self._plant_doc = doc.get("plant")
        if not isinstance(self._plant_doc, dict):
            raise ConfigError("config field 'plant' must be an object")
        self._gains_doc = doc.get("gains") or {}
        if not isinstance(self._gains_doc, dict):
            raise ConfigError("config field 'gains' must be an object")
        self._target_doc = doc.get("target")
        self._uncertainty_doc = doc.get("uncertainty")
        self._u0_doc = doc.get("u0")
        self._ilc_base: plant.LiftedIlcSystem | None = None
        self._plants: dict[int, plant.TransferPlant] = {}
        self._gains: dict[int, GainSet] = {}
        if self._plant_doc.get("kind") == "ilc_lift":
            self._ilc_base = self._ilc_system(self._plant_doc)
            if self._plant_doc.get("role") == "uncertain_nominal":
                self._nominal_lift, _, _ = plant.lift_ilc(self._ilc_base)
            # a descriptor carried in the system file is the fallback
            if self._uncertainty_doc is None:
                self._uncertainty_doc = self._ilc_base.uncertainty_model

        self.surrogate = None
        surr = doc.get("surrogate")
        if surr is not None:
            if isinstance(surr, dict) and "banded" in surr:
                band = surr["banded"]
                from .presets import banded_surrogate

                diagonals = _array(band["diagonals"], "surrogate.banded.diagonals")
                self.surrogate = banded_surrogate(
                    _integer(band["size"], "surrogate.banded.size"),
                    tuple(_number(d, "surrogate.banded.diagonals entry") for d in diagonals),
                )
            else:
                self.surrogate = _matrix_field(surr, "surrogate", base)

        self.structure = None
        struct = doc.get("structure")
        if struct is not None:
            try:
                self.structure = plant.StructuredUncertainty(
                    phi1=_matrix_field(struct["phi1"], "phi1", base),
                    phi2=_matrix_field(struct["phi2"], "phi2", base),
                )
            except KeyError as exc:
                raise ConfigError(f"structure missing field {exc}") from exc

    # -- plant ---------------------------------------------------------
    def plant_for(self, seed: int) -> plant.TransferPlant:
        if seed not in self._plants:
            self._plants[seed] = self._build_plant(seed)
        return self._plants[seed]

    def _build_plant(self, seed: int) -> plant.TransferPlant:
        doc = self._plant_doc
        kind = doc.get("kind", "direct")
        if kind == "direct":
            nominal = _matrix_field(doc["nominal"], "plant.nominal", self.base)
            delta = (
                _matrix_field(doc["delta"], "plant.delta", self.base)
                if doc.get("delta") is not None
                else None
            )
            try:
                return plant.TransferPlant(nominal=nominal, delta=delta)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if kind == "ilc_lift":
            sys0 = self._ilc_base
            level = _number(doc.get("element_uncertainty", 0.0), "plant.element_uncertainty")
            sys_true = plant.perturb_system(sys0, level, seed) if level > 0 else sys0
            P_true, _, _ = plant.lift_ilc(sys_true)
            role = doc.get("role", "model_free")
            if role == "model_free":
                return plant.TransferPlant(nominal=np.zeros_like(P_true), delta=P_true)
            if role == "uncertain_nominal":
                P_nom = self._nominal_lift
                return plant.TransferPlant(nominal=P_nom, delta=P_true - P_nom)
            raise ConfigError(f"unknown plant role {role!r}")
        raise ConfigError(f"unknown plant kind {kind!r}")

    def _ilc_system(self, doc) -> plant.LiftedIlcSystem:
        sys_doc = doc.get("system")
        if sys_doc is None:
            raise ConfigError("ilc_lift plant requires a 'system' field")
        try:
            if isinstance(sys_doc, dict) and "file" in sys_doc:
                return plant.load_ilc_system(self.base / sys_doc["file"])
            return plant.parse_ilc_system(sys_doc)
        except ValueError as exc:
            raise ConfigError(f"invalid ILC system: {exc}") from exc

    # -- gains ----------------------------------------------------------
    def gains_for(self, seed: int) -> GainSet:
        if seed not in self._gains:
            self._gains[seed] = self._build_gains(self.plant_for(seed))
        return self._gains[seed]

    def _build_gains(self, a_plant: plant.TransferPlant) -> GainSet:
        doc = self._gains_doc
        p, m = a_plant.shape

        def directive(obj):
            return obj.get("directive") if isinstance(obj, dict) else None

        K_doc = doc.get("K")
        if K_doc is None:
            raise ConfigError("gains.K is required")
        if directive(K_doc) == "scaled_surrogate_inverse":
            if self.surrogate is None:
                raise ConfigError("K directive needs a surrogate")
            scale = _number(K_doc.get("scale", 0.5), "gains.K.scale")
            try:
                K = scale * np.linalg.inv(self.surrogate)
            except np.linalg.LinAlgError as exc:
                raise ConfigError(f"surrogate is singular: {exc}") from exc
        elif directive(K_doc):
            raise ConfigError(f"unknown K directive {directive(K_doc)!r}")
        else:
            K = _matrix_field(K_doc, "gains.K", self.base)

        H = None
        H_doc = doc.get("H")
        if H_doc is not None:
            if directive(H_doc) == "pseudo_inverse_H":
                try:
                    H = learner.synth_H_pseudo(a_plant.full())
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
            elif directive(H_doc):
                raise ConfigError(f"unknown H directive {directive(H_doc)!r}")
            else:
                H = _matrix_field(H_doc, "gains.H", self.base)

        Hbar = None
        Hbar_doc = doc.get("Hbar")
        if Hbar_doc is not None:
            d = directive(Hbar_doc)
            try:
                if d == "hbar_from_surrogate":
                    if self.surrogate is None:
                        raise ConfigError("Hbar directive needs a surrogate")
                    Hbar = learner.synth_Hbar(self.surrogate, K)
                elif d == "hbar_from_nominal":
                    Hbar = learner.synth_Hbar(a_plant.nominal, K)
                elif d:
                    raise ConfigError(f"unknown Hbar directive {d!r}")
                else:
                    Hbar = _matrix_field(Hbar_doc, "gains.Hbar", self.base)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

        observer = None
        if doc.get("L1") is not None or doc.get("L2") is not None:
            if doc.get("L1") is None or doc.get("L2") is None:
                raise ConfigError("observer gains need both L1 and L2")

            def obs_gain(obj, name):
                if isinstance(obj, dict) and "scaled_identity" in obj:
                    scale = _number(obj["scaled_identity"], f"{name}.scaled_identity")
                    return scale * np.eye(p)
                return _matrix_field(obj, name, self.base)

            observer = ObserverGain(
                L1=obs_gain(doc["L1"], "gains.L1"), L2=obs_gain(doc["L2"], "gains.L2")
            )

        try:
            return GainSet(K=K, H=H, Hbar=Hbar, observer=observer)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # -- per-run config ---------------------------------------------------
    def simulation_config(self, law_mode: str, seed: int) -> SimulationConfig:
        a_plant = self.plant_for(seed)
        p, m = a_plant.shape
        gains = self.gains_for(seed)
        if self._target_doc is None:
            raise ConfigError("config missing field 'target'")
        target = np.asarray(self._target_doc, dtype=float).reshape(-1)
        uncertainty = _parse_uncertainty(self._uncertainty_doc, p)
        law = (
            LearningLaw(mode=law_mode, surrogate=self.surrogate)
            if law_mode == "eso_model_free"
            else LearningLaw(mode=law_mode)
        )
        u0 = None if self._u0_doc is None else np.asarray(self._u0_doc, dtype=float)
        try:
            return SimulationConfig(
                plant=a_plant,
                target=target,
                uncertainty=uncertainty,
                gains=gains,
                law=law,
                iterations=self.iterations,
                u0=u0,
                seed=seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # -- condition reports -------------------------------------------------
    def condition_reports(self, seed: int) -> list[stability.ConditionReport]:
        a_plant = self.plant_for(seed)
        gains = self.gains_for(seed)
        reports = [stability.check_condition("eq04", a_plant, gains)]
        if np.any(a_plant.nominal != 0.0):
            reports.append(stability.check_condition("eq48", a_plant, gains))
        if gains.observer is not None:
            reports.append(stability.check_condition("eq17", plant=None, gains=gains))
            if gains.H is not None:
                reports.append(stability.check_condition("eq41", a_plant, gains))
            if gains.Hbar is not None:
                reports.append(stability.check_condition("eq62", a_plant, gains))
        if self.surrogate is not None:
            reports.append(
                stability.check_condition("eq95", a_plant, gains, surrogate=self.surrogate)
            )
            if gains.Hbar is not None and gains.observer is not None:
                reports.append(
                    stability.check_condition(
                        "eq102", a_plant, gains, surrogate=self.surrogate
                    )
                )
        return reports


def load_experiment(path) -> Experiment:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return Experiment(doc, base=path.parent)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _say(quiet: bool, *args) -> None:
    if not quiet:
        print(*args)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_lift(args) -> int:
    sys_obj = plant.load_ilc_system(args.input)
    P, Q, S = plant.lift_ilc(sys_obj)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / "P.txt", P)
    save_matrix(out / "Q.txt", Q)
    save_matrix(out / "S.txt", S)
    _say(args.quiet, f"lifted {args.input}: P {P.shape}, Q {Q.shape}, S {S.shape} -> {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    exp = load_experiment(args.config)
    if args.seeds is not None:
        exp.seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        if not exp.seeds:
            raise ConfigError("--seeds must list at least one seed")
    if args.iterations is not None:
        exp.iterations = args.iterations
    out = Path(args.out or exp.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)

    tail_window = min(plant.default_tail_window(exp.iterations), exp.iterations)
    runs = []
    curves = []
    for law in exp.laws:
        configs = [exp.simulation_config(law, seed) for seed in exp.seeds]
        for seed, trace in zip(exp.seeds, learner.run_batch(configs)):
            trace_file = out / f"trace_{law}_seed{seed}.csv"
            learner.write_trace_csv(trace_file, trace)
            n = len(trace)
            w = min(tail_window, n)
            runs.append(
                {
                    "law": law,
                    "seed": seed,
                    "trace_file": trace_file.name,
                    "rows": n,
                    "sup_err": float(trace.err_inf.max()),
                    "final_tail_err": float(trace.err_inf[n - w :].max()),
                    "diverged": trace.diverged,
                    "diverged_at": trace.diverged_at,
                }
            )
            curves.append((f"{law} seed {seed}", list(trace.err_inf)))
            _say(
                args.quiet,
                f"{law} seed {seed}: tail {runs[-1]['final_tail_err']:.3e}"
                + (" DIVERGED" if trace.diverged else ""),
            )
        del trace  # its views hold this law's whole batch

    summary = {
        "format_version": FORMAT_VERSION,
        "iterations": exp.iterations,
        "tail_window": tail_window,
        "runs": runs,
        "conditions": {
            str(seed): [r.to_dict() for r in exp.condition_reports(seed)]
            for seed in exp.seeds
        },
    }
    _write_json(out / "summary.json", summary)
    write_convergence_svg(out / "plot.svg", curves, title="convergence")
    _say(args.quiet, f"wrote {out / 'summary.json'} and {out / 'plot.svg'}")
    if all(r["diverged"] for r in runs):
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_check(args) -> int:
    exp = load_experiment(args.config)
    out = Path(args.out or exp.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "format_version": FORMAT_VERSION,
        "conditions": {
            str(seed): [r.to_dict() for r in exp.condition_reports(seed)]
            for seed in exp.seeds
        },
    }
    if exp.structure is not None:
        first_plant = exp.plant_for(exp.seeds[0])
        gains = exp.gains_for(exp.seeds[0])
        if exp.surrogate is not None and gains.Hbar is not None:
            lmi_id, nominal = "eq101", exp.surrogate
        elif gains.Hbar is not None:
            lmi_id, nominal = "eq65", first_plant.nominal
        elif gains.H is not None:
            lmi_id, nominal = "eq44", first_plant.nominal
        else:
            lmi_id = None
        if lmi_id is None:
            report["lmi"] = {"id": None, "found": False}
        else:
            cert = stability.lmi_search(lmi_id, nominal, exp.structure, gains)
            entry = {"id": lmi_id, "found": cert is not None}
            if cert is not None:
                cert_file = out / "certificate.json"
                stability.save_certificate(cert_file, cert)
                entry["certificate_file"] = cert_file.name
                entry["tau"] = cert.tau
            report["lmi"] = entry
    _write_json(out / "report.json", report)
    if not args.quiet:
        print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_plot(args) -> int:
    curves = []
    for path in args.traces:
        data = learner.read_trace_csv(path)
        curves.append((Path(path).stem, list(data["err_inf"])))
    out = Path(args.out or "plot.svg")
    if out.suffix != ".svg":
        out.mkdir(parents=True, exist_ok=True)
        out = out / "plot.svg"
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
    write_convergence_svg(out, curves, title="convergence")
    _say(args.quiet, f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterlearn",
        description="Iteration-domain learning: lifting, simulation, "
        "stability checks, and plots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lift = sub.add_parser("lift", help="lift a time-domain system file")
    p_lift.add_argument("input", help="ILC system JSON file")
    p_lift.add_argument("--out", help="output directory (default .)")
    p_lift.add_argument("--quiet", action="store_true")
    p_lift.set_defaults(func=cmd_lift)

    p_sim = sub.add_parser("simulate", help="run the configured experiments")
    p_sim.add_argument("--config", required=True, help="experiment config JSON")
    p_sim.add_argument("--out", help="output directory")
    p_sim.add_argument("--seeds", help="comma-separated seed override")
    p_sim.add_argument("--iterations", type=int, help="iteration-count override")
    p_sim.add_argument("--quiet", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", help="evaluate stability conditions")
    p_check.add_argument("--config", required=True, help="experiment config JSON")
    p_check.add_argument("--out", help="output directory")
    p_check.add_argument("--quiet", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_plot = sub.add_parser("plot", help="overlay trace CSVs into an SVG")
    p_plot.add_argument("traces", nargs="+", help="trace CSV files")
    p_plot.add_argument("--out", help="output SVG path or directory")
    p_plot.add_argument("--quiet", action="store_true")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
