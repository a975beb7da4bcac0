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
import math
import sys
from dataclasses import replace
from functools import cached_property
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
    # json reads NaN, Infinity and -Infinity as floats
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {json.dumps(value)}")
    return float(value)


def _array(value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array, got {json.dumps(value)}")
    return value


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {json.dumps(value)}")
    return value


def _distinct(values: list, name: str) -> list:
    """``values`` with no entry given twice."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{name} lists {json.dumps(v)} more than once")
    return values


def _directive(obj):
    """The ``directive`` of a gain given as an object, else None."""
    return obj.get("directive") if isinstance(obj, dict) else None


def _vector(value, name: str, length: int) -> np.ndarray:
    """A finite vector of ``length`` numbers, given as a flat JSON array."""
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid numbers for {name!r}: {exc}") from exc
    if v.shape != (length,):
        raise ConfigError(f"{name} must be an array of {length} numbers, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{name} contains non-finite entries")
    return v


def _file(obj: dict, name: str, base: Path) -> Path:
    """The path of a ``{"file": ...}`` reference, relative to the config."""
    if not isinstance(obj["file"], str):
        raise ConfigError(f"{name}.file must be a string, got {json.dumps(obj['file'])}")
    return base / obj["file"]


def _matrix_field(obj, name: str, base: Path) -> np.ndarray:
    """A matrix given inline as nested arrays or as a matrix-text file ref."""
    if isinstance(obj, dict) and "file" in obj:
        from .matanalysis import load_matrix

        return load_matrix(_file(obj, name, base))
    try:
        return as_matrix(np.asarray(obj, dtype=float), name)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid matrix for {name!r}: {exc}") from exc


def _parse_uncertainty(obj, dimension: int) -> plant.UncertaintyModel:
    if obj is None:
        return plant.UncertaintyModel.zero(dimension)
    kind = _object(obj, "uncertainty").get("kind")
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
            rows = np.asarray(obj["rows"], dtype=float)
            if rows.ndim != 2:
                raise ValueError(f"table rows must be a 2-D array, got shape {rows.shape}")
            return plant.UncertaintyModel.from_table(rows)
        if kind == "seeded_bounded":
            seed = obj.get("seed")
            return plant.UncertaintyModel(
                kind="seeded_bounded",
                dimension=dimension,
                bound=_number(obj["bound"], "uncertainty.bound"),
                seed=None if seed is None else _integer(seed, "uncertainty.seed"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid uncertainty descriptor: {exc}") from exc
    raise ConfigError(f"unknown uncertainty kind {kind!r}")


class Experiment:
    """A parsed config able to materialize per-seed runs.

    Whatever does not depend on the seed (a direct plant, the target, ``u0``
    and the uncertainty) is parsed and checked at load.  Each seed's plant is
    built once and shared by every run, condition report and certificate
    search of that seed.  Every seed shares one nominal map, ``nominal`` (a
    zero or a lifted nominal for a lifted plant), each law and one gain set,
    ``gains``, built on first use; ``hbar_from_nominal`` reads ``nominal``.
    Only a ``pseudo_inverse_H`` reads the seed's plant, so ``gains_for``
    gives each seed the shared set with its own ``H``, built once per seed.
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
        _distinct(self.laws, "laws")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        seeds = _array(doc.get("seeds", [0]), "seeds")
        self.seeds = _distinct([_integer(s, "seeds entry") for s in seeds], "seeds")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        self.output_dir = doc.get("output_dir")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {json.dumps(self.output_dir)}")

        self._gains_doc = _object(doc.get("gains") or {}, "gains")
        self._ilc_base: plant.LiftedIlcSystem | None = None
        self._plants: dict[int, plant.TransferPlant] = {}
        self._seed_gains: dict[int, GainSet] = {}
        self._laws: dict[str, LearningLaw] = {}
        p, m = self._parse_plant(_object(doc.get("plant"), "plant"))
        if doc.get("target") is None:
            raise ConfigError("config missing field 'target'")
        self.target = _vector(doc["target"], "target", p)
        self.u0 = None if doc.get("u0") is None else _vector(doc["u0"], "u0", m)
        self.uncertainty = _parse_uncertainty(doc.get("uncertainty"), p)
        if self.uncertainty.dimension != p:
            raise ConfigError(
                f"uncertainty dimension must be {p}, got {self.uncertainty.dimension}"
            )

        self.surrogate = None
        surr = doc.get("surrogate")
        if surr is not None:
            if isinstance(surr, dict) and "banded" in surr:
                band = _object(surr["banded"], "surrogate.banded")
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
            _object(struct, "structure")
            try:
                self.structure = plant.StructuredUncertainty(
                    phi1=_matrix_field(struct["phi1"], "phi1", base),
                    phi2=_matrix_field(struct["phi2"], "phi2", base),
                )
            except KeyError as exc:
                raise ConfigError(f"structure missing field {exc}") from exc

    # -- plant ---------------------------------------------------------
    def _parse_plant(self, doc: dict) -> tuple[int, int]:
        """Read what of the plant does not depend on the seed; return its shape."""
        kind = doc.get("kind", "direct")
        if kind == "direct":
            delta = doc.get("delta")
            try:
                self._direct = plant.TransferPlant(
                    nominal=_matrix_field(doc["nominal"], "plant.nominal", self.base),
                    delta=delta if delta is None else _matrix_field(delta, "plant.delta", self.base),
                )
            except KeyError as exc:
                raise ConfigError(f"plant missing field {exc}") from exc
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            self.nominal = self._direct.nominal
            return self._direct.shape
        if kind != "ilc_lift":
            raise ConfigError(f"unknown plant kind {kind!r}")
        self._ilc_base = self._ilc_system(doc)
        self._level = _number(doc.get("element_uncertainty", 0.0), "plant.element_uncertainty")
        if self._level < 0:
            raise ConfigError(f"plant.element_uncertainty must be nonnegative, got {self._level}")
        role = doc.get("role", "model_free")
        horizon = self._ilc_base.horizon
        shape = horizon * self._ilc_base.n_outputs, horizon * self._ilc_base.n_inputs
        if role == "uncertain_nominal":
            self.nominal, _, _ = plant.lift_ilc(self._ilc_base)
        elif role == "model_free":
            self.nominal = np.zeros(shape)
        else:
            raise ConfigError(f"unknown plant role {role!r}")
        return shape

    def plant_for(self, seed: int) -> plant.TransferPlant:
        if self._ilc_base is None:
            return self._direct
        if seed not in self._plants:
            sys0 = self._ilc_base
            sys_true = plant.perturb_system(sys0, self._level, seed) if self._level > 0 else sys0
            P_true, _, _ = plant.lift_ilc(sys_true)
            self._plants[seed] = plant.TransferPlant(
                nominal=self.nominal, delta=P_true - self.nominal
            )
        return self._plants[seed]

    def _ilc_system(self, doc) -> plant.LiftedIlcSystem:
        sys_doc = doc.get("system")
        if sys_doc is None:
            raise ConfigError("ilc_lift plant requires a 'system' field")
        _object(sys_doc, "plant.system")
        try:
            if "file" in sys_doc:
                return plant.load_ilc_system(_file(sys_doc, "plant.system", self.base))
            return plant.parse_ilc_system(sys_doc)
        except ValueError as exc:
            raise ConfigError(f"invalid ILC system: {exc}") from exc

    # -- gains ----------------------------------------------------------
    def gains_for(self, seed: int) -> GainSet:
        """The seed's gains: ``gains``, with the seed's own ``pseudo_inverse_H``,
        built once per seed like its plant."""
        try:
            if _directive(self._gains_doc.get("H")) != "pseudo_inverse_H":
                return self.gains
            if seed not in self._seed_gains:
                H = learner.synth_H_pseudo(self.plant_for(seed).full())
                self._seed_gains[seed] = replace(self.gains, H=H)
            return self._seed_gains[seed]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @cached_property
    def gains(self) -> GainSet:
        """The gain set every seed shares, without a ``pseudo_inverse_H``.  An
        invalid gain raises ``ValueError``, which ``gains_for`` makes a ``ConfigError``."""
        doc = self._gains_doc
        K_doc = doc.get("K")
        if K_doc is None:
            raise ConfigError("gains.K is required")
        if _directive(K_doc) == "scaled_surrogate_inverse":
            if self.surrogate is None:
                raise ConfigError("K directive needs a surrogate")
            scale = _number(K_doc.get("scale", 0.5), "gains.K.scale")
            try:
                K = scale * np.linalg.inv(self.surrogate)
            except np.linalg.LinAlgError as exc:
                raise ConfigError(f"surrogate is singular: {exc}") from exc
        elif _directive(K_doc):
            raise ConfigError(f"unknown K directive {_directive(K_doc)!r}")
        else:
            K = _matrix_field(K_doc, "gains.K", self.base)

        H, H_doc, d = None, doc.get("H"), _directive(doc.get("H"))
        if d and d != "pseudo_inverse_H":  # that one is each seed's, from gains_for
            raise ConfigError(f"unknown H directive {d!r}")
        if H_doc is not None and not d:
            H = _matrix_field(H_doc, "gains.H", self.base)

        Hbar = None
        Hbar_doc = doc.get("Hbar")
        if Hbar_doc is not None:
            d = _directive(Hbar_doc)
            if d == "hbar_from_surrogate":
                if self.surrogate is None:
                    raise ConfigError("Hbar directive needs a surrogate")
                Hbar = learner.synth_Hbar(self.surrogate, K)
            elif d == "hbar_from_nominal":
                Hbar = learner.synth_Hbar(self.nominal, K)
            elif d:
                raise ConfigError(f"unknown Hbar directive {d!r}")
            else:
                Hbar = _matrix_field(Hbar_doc, "gains.Hbar", self.base)

        observer = None
        if doc.get("L1") is not None or doc.get("L2") is not None:
            if doc.get("L1") is None or doc.get("L2") is None:
                raise ConfigError("observer gains need both L1 and L2")

            def obs_gain(obj, name):
                if isinstance(obj, dict) and "scaled_identity" in obj:
                    scale = _number(obj["scaled_identity"], f"{name}.scaled_identity")
                    return scale * np.eye(len(self.target))
                return _matrix_field(obj, name, self.base)

            observer = ObserverGain(*(obs_gain(doc[n], f"gains.{n}") for n in ("L1", "L2")))
        return GainSet(K=K, H=H, Hbar=Hbar, observer=observer)

    # -- per-run config ---------------------------------------------------
    def simulation_config(self, law_mode: str, seed: int) -> SimulationConfig:
        if law_mode not in self._laws:
            surrogate = self.surrogate if law_mode == "eso_model_free" else None
            self._laws[law_mode] = LearningLaw(mode=law_mode, surrogate=surrogate)
        try:
            return SimulationConfig(
                plant=self.plant_for(seed),
                target=self.target,
                uncertainty=self.uncertainty,
                gains=self.gains_for(seed),
                law=self._laws[law_mode],
                iterations=self.iterations,
                u0=self.u0,
                seed=seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # -- condition reports -------------------------------------------------
    def condition_map(self) -> dict[str, list[dict]]:
        """Each seed's condition reports, as written to summary.json and
        report.json.  The seeds share one dict of forms, released after this
        pass, before ``check`` searches for a certificate."""
        forms: dict = {}
        return {
            str(seed): [r.to_dict() for r in self.condition_reports(seed, forms)]
            for seed in self.seeds
        }

    def condition_reports(self, seed: int, forms=None) -> list[stability.ConditionReport]:
        """The seed's reports of its conditions (``stability.applicable_conditions``).
        ``forms`` maps ``(id, gain set)`` to the gain set, the condition's
        form and its report if no model error enters it, so seeds sharing
        the dict and a gain set add only their model error and radius."""
        a_plant, gains = self.plant_for(seed), self.gains_for(seed)
        forms = {} if forms is None else forms

        def report(cid, form):
            return stability.check_condition(cid, a_plant, gains, self.surrogate, form)

        reports = []
        for cid in stability.applicable_conditions(gains, self.nominal, self.surrogate):
            key = (cid, id(gains))  # the value keeps the gain set, and so its id, alive
            if key not in forms:
                form = stability.condition_form(cid, a_plant, gains, self.surrogate)
                error_free = cid in stability.ERROR_FREE_IDS
                forms[key] = gains, form, report(cid, form) if error_free else None
            _, form, shared = forms[key]
            reports.append(shared or report(cid, form))
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
        try:  # each entry a JSON integer, as in the config's seeds
            seeds = json.loads(f"[{args.seeds}]")
        except ValueError:
            raise ConfigError(f"--seeds must list integers, got {args.seeds!r}") from None
        exp.seeds = _distinct([_integer(s, "--seeds entry") for s in seeds], "--seeds")
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
        for seed, trace in zip(exp.seeds, learner.run_batch(configs, states=False)):
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
                    "diverged_component": trace.diverged_component,
                }
            )
            curves.append((f"{law} seed {seed}", trace.err_inf))
            _say(
                args.quiet,
                f"{law} seed {seed}: tail {runs[-1]['final_tail_err']:.3e}"
                + (" DIVERGED" if trace.diverged else ""),
            )

    summary = {
        "format_version": FORMAT_VERSION,
        "iterations": exp.iterations,
        "tail_window": tail_window,
        "runs": runs,
        "conditions": exp.condition_map(),
    }
    _write_json(out / "summary.json", summary)
    write_convergence_svg(out / "plot.svg", curves, title="convergence")
    _say(args.quiet, f"wrote {out / 'summary.json'} and {out / 'plot.svg'}")
    if all(r["diverged"] for r in runs):
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_check(args) -> int:
    exp = load_experiment(args.config)
    for law in exp.laws:  # rejects what simulate rejects
        exp.simulation_config(law, exp.seeds[0])
    out = Path(args.out or exp.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    report = {"format_version": FORMAT_VERSION, "conditions": exp.condition_map()}
    if exp.structure is not None:
        seed = exp.seeds[0]
        ids = [r["condition_id"] for r in report["conditions"][str(seed)]]
        lmi_id, nominal = stability.certified_inequality(ids, exp.nominal, exp.surrogate)
        cert = lmi_id and stability.lmi_search(lmi_id, nominal, exp.structure, exp.gains_for(seed))
        report["lmi"] = {"id": lmi_id, "found": cert is not None}
        if cert is not None:
            cert_file = out / "certificate.json"
            stability.save_certificate(cert_file, cert)
            report["lmi"].update(certificate_file=cert_file.name, tau=cert.tau)
    _write_json(out / "report.json", report)
    if not args.quiet:
        print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_plot(args) -> int:
    curves = []
    for path in args.traces:
        data = learner.read_trace_csv(path)
        curves.append((Path(path).stem, data["err_inf"]))
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
