"""Command-line front end: lift, simulate, check, plot.

Experiments are described by a JSON config (``format_version`` 1); runs
are deterministic per (config, seed) and emit per-run trace CSVs, a
summary JSON, condition/certificate reports, and SVG convergence plots.
Exit codes: 0 success, 2 config error, 3 numeric divergence in all runs,
4 I/O failure.  A float that is not finite is written to JSON as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import learner, plant, stability
from .learner import GainSet, LearningLaw, SimulationConfig
from .matanalysis import as_matrix, save_matrix
from .observer import ObserverGain
from .svgplot import render_convergence_svg, write_convergence_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unresolvable experiment configuration."""


# Config values are type-checked, not coerced: int("2"), list("12") and int(2.5)
# would misread a value, and true/false would pass as a number.  Arrays of
# numbers are checked entry by entry by plant.json_floats.
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


def _seeds(values, name: str) -> list[int]:
    """The distinct nonnegative integer seeds of the array ``values``, at
    least one."""
    seeds = _distinct([_integer(s, f"{name} entry") for s in _array(values, name)], name)
    if not seeds:
        raise ConfigError(f"{name} must list at least one seed")
    if min(seeds) < 0:
        raise ConfigError(f"{name} entry must be nonnegative, got {min(seeds)}")
    return seeds


def _directive(obj):
    """The ``directive`` of a gain given as an object, else None."""
    return obj.get("directive") if isinstance(obj, dict) else None


def _vector(value, name: str, length: int) -> np.ndarray:
    """A finite vector of ``length`` numbers, given as a flat JSON array."""
    try:
        v = plant.json_floats(value, name)
    except ValueError as exc:
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
    path = _file(obj, name, base) if isinstance(obj, dict) and "file" in obj else None
    try:
        if path is not None:
            from .matanalysis import load_matrix

            return load_matrix(path)
        return as_matrix(plant.json_floats(obj, name), name)
    except ValueError as exc:
        raise ConfigError(f"invalid matrix for {name!r}: {exc}") from exc


def _parse_uncertainty(obj, dimension: int) -> plant.UncertaintyModel:
    if obj is None:
        return plant.UncertaintyModel.zero(dimension)
    kind = _object(obj, "uncertainty").get("kind")
    try:
        if kind == "zero":
            return plant.UncertaintyModel.zero(dimension)
        if kind == "constant":
            value = plant.json_floats(obj["value"], "uncertainty.value")
            return plant.UncertaintyModel.constant(value)
        if kind == "ramp":
            slope = plant.json_floats(obj["slope"], "uncertainty.slope")
            return plant.UncertaintyModel.ramp(slope)
        if kind == "cumulative_sine":
            return plant.UncertaintyModel.cumulative_sine(dimension)
        if kind == "table":
            rows = plant.json_floats(obj["rows"], "uncertainty.rows")
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
    """A config built whole: every seed's plant, gain set and runs.

    ``plants`` and ``seed_gains`` map each seed to its plant and gain set,
    and ``configs`` each law to its runs, one ``SimulationConfig`` per seed
    in the order of ``seeds``.  All of it is built here, so a config error
    is raised before anything is written and nothing after can fail for a
    config reason.  Every seed shares one nominal map, ``nominal`` (a zero
    or a lifted nominal for a lifted plant), one ``LearningLaw`` per law
    and one gain set, ``gains`` (``hbar_from_nominal`` reads ``nominal``).
    Only a ``pseudo_inverse_H`` reads the seed's plant, so with it each
    seed's gain set is ``gains`` with the seed's own ``H``.
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
        self.seeds = _seeds(doc.get("seeds", [0]), "seeds")
        self.output_dir = doc.get("output_dir")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {json.dumps(self.output_dir)}")

        self._gains_doc = _object(doc.get("gains") or {}, "gains")
        self.plants = self._parse_plant(_object(doc.get("plant"), "plant"))
        p, m = self.nominal.shape
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

                size = _integer(band["size"], "surrogate.banded.size")
                if size < 1:
                    raise ConfigError(f"surrogate.banded.size must be at least 1, got {size}")
                diagonals = _array(band["diagonals"], "surrogate.banded.diagonals")
                self.surrogate = banded_surrogate(
                    size,
                    tuple(_number(d, "surrogate.banded.diagonals entry") for d in diagonals),
                )
            else:
                self.surrogate = _matrix_field(surr, "surrogate", base)
            if self.surrogate.shape != (p, m):
                raise ConfigError(
                    f"surrogate must be {p}x{m} for this plant, got shape {self.surrogate.shape}"
                )

        self.structure = None
        struct = doc.get("structure")
        if struct is not None:
            _object(struct, "structure")
            try:
                self.structure = plant.StructuredUncertainty(
                    phi1=_matrix_field(struct["phi1"], "structure.phi1", base),
                    phi2=_matrix_field(struct["phi2"], "structure.phi2", base),
                )
            except KeyError as exc:
                raise ConfigError(f"structure missing field {exc}") from exc
            if self.structure.phi1.shape[0] != p or self.structure.phi2.shape[1] != m:
                raise ConfigError(
                    f"structure.phi1 must have {p} rows and structure.phi2 {m} columns"
                    " for this plant"
                )
        self.gains = self._parse_gains()
        self.seed_gains = {seed: self._gains(seed) for seed in self.seeds}
        self.configs = {law: self._runs(law) for law in self.laws}

    # -- plant ---------------------------------------------------------
    def _parse_plant(self, doc: dict) -> dict[int, plant.TransferPlant]:
        """Read the plant, set ``nominal`` and return each seed's plant."""
        kind = doc.get("kind", "direct")
        if kind == "direct":
            delta = doc.get("delta")
            try:
                direct = plant.TransferPlant(
                    nominal=_matrix_field(doc["nominal"], "plant.nominal", self.base),
                    delta=delta if delta is None else _matrix_field(delta, "plant.delta", self.base),
                )
            except KeyError as exc:
                raise ConfigError(f"plant missing field {exc}") from exc
            self.nominal = direct.nominal
            return dict.fromkeys(self.seeds, direct)
        if kind != "ilc_lift":
            raise ConfigError(f"unknown plant kind {kind!r}")
        sys0 = self._ilc_system(doc)
        level = _number(doc.get("element_uncertainty", 0.0), "plant.element_uncertainty")
        if level < 0:
            raise ConfigError(f"plant.element_uncertainty must be nonnegative, got {level}")
        role = doc.get("role", "model_free")
        if role == "uncertain_nominal":
            self.nominal, _, _ = plant.lift_ilc(sys0)
        elif role == "model_free":
            self.nominal = np.zeros((sys0.horizon * sys0.n_outputs, sys0.horizon * sys0.n_inputs))
        else:
            raise ConfigError(f"unknown plant role {role!r}")
        plants = {}
        for seed in self.seeds:
            sys_true = plant.perturb_system(sys0, level, seed) if level > 0 else sys0
            P_true, _, _ = plant.lift_ilc(sys_true)
            plants[seed] = plant.TransferPlant(nominal=self.nominal, delta=P_true - self.nominal)
        return plants

    def _ilc_system(self, doc) -> plant.LiftedIlcSystem:
        sys_doc = doc.get("system")
        if sys_doc is None:
            raise ConfigError("ilc_lift plant requires a 'system' field")
        _object(sys_doc, "plant.system")
        path = _file(sys_doc, "plant.system", self.base) if "file" in sys_doc else None
        try:
            if path is not None:
                return plant.load_ilc_system(path)
            return plant.parse_ilc_system(sys_doc)
        except ValueError as exc:
            raise ConfigError(f"invalid ILC system: {exc}") from exc

    # -- gains ----------------------------------------------------------
    def _gains(self, seed: int) -> GainSet:
        """The seed's gains: ``gains``, with the seed's own ``pseudo_inverse_H``."""
        if _directive(self._gains_doc.get("H")) != "pseudo_inverse_H":
            return self.gains
        return replace(self.gains, H=learner.synth_H_pseudo(self.plants[seed].full()))

    def _parse_gains(self) -> GainSet:
        """The gain set every seed shares, without a ``pseudo_inverse_H``."""
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
        if d and d != "pseudo_inverse_H":  # that one is each seed's, from _gains
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

    # -- runs ------------------------------------------------------------
    def _runs(self, law_mode: str) -> list[SimulationConfig]:
        """The law's run for each seed, all with one ``LearningLaw``."""
        surrogate = self.surrogate if law_mode == "eso_model_free" else None
        shared = dict(
            target=self.target,
            uncertainty=self.uncertainty,
            law=LearningLaw(mode=law_mode, surrogate=surrogate),
            iterations=self.iterations,
            u0=self.u0,
        )
        return [
            SimulationConfig(plant=self.plants[s], gains=self.seed_gains[s], seed=s, **shared)
            for s in self.seeds
        ]

    # -- condition reports -------------------------------------------------
    def condition_map(self) -> dict[str, list[dict]]:
        """Each seed's condition reports, as written to summary.json and
        report.json: one ``stability.condition_reports`` per gain set, for
        every seed at once unless each seed has its own ``pseudo_inverse_H``."""
        shared = all(self.seed_gains[seed] is self.gains for seed in self.seeds)
        reports = {}
        for group in [self.seeds] if shared else [[seed] for seed in self.seeds]:
            batch = stability.condition_reports(
                [self.plants[seed] for seed in group], self.seed_gains[group[0]], self.surrogate
            )
            reports.update((str(seed), [r.to_dict() for r in rs]) for seed, rs in zip(group, batch))
        return reports


def load_experiment(
    path, seeds: list[int] | None = None, iterations: int | None = None
) -> Experiment:
    """The experiment of the config at ``path``, built whole (``Experiment``),
    with ``seeds`` and ``iterations``, when given, in place of the config's.
    A ``ValueError`` raised by the build is a ``ConfigError`` here, and
    nowhere else."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if isinstance(doc, dict):
        overrides = {"seeds": seeds, "iterations": iterations}
        doc.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return Experiment(doc, base=path.parent)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _strict(obj):
    """``obj`` with each float that is not finite as None: JSON has no
    literal for it, so it is written as null."""
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_strict(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(_strict(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _say(quiet: bool, *args) -> None:
    if not quiet:
        print(*args)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_lift(args) -> int:
    try:
        sys_obj = plant.load_ilc_system(args.input)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    P, Q, S = plant.lift_ilc(sys_obj)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / "P.txt", P)
    save_matrix(out / "Q.txt", Q)
    save_matrix(out / "S.txt", S)
    _say(args.quiet, f"lifted {args.input}: P {P.shape}, Q {Q.shape}, S {S.shape} -> {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    seeds = None
    if args.seeds is not None:
        try:  # each entry a JSON integer, as in the config's seeds
            seeds = json.loads(f"[{args.seeds}]")
        except ValueError:
            raise ConfigError(f"--seeds must list integers, got {args.seeds!r}") from None
        seeds = _seeds(seeds, "--seeds")
    exp = load_experiment(args.config, seeds, args.iterations)
    out = Path(args.out or exp.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)

    tail_window = min(plant.default_tail_window(exp.iterations), exp.iterations)
    runs = []
    curves = []
    for law in exp.laws:
        for seed, trace in zip(exp.seeds, learner.run_batch(exp.configs[law], states=False)):
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
            # a diverged run is drawn up to its first error that is not finite
            finite = np.isfinite(trace.err_inf)
            n_finite = n if finite.all() else int(np.argmin(finite))
            if n_finite:
                curves.append((f"{law} seed {seed}", trace.err_inf[:n_finite]))
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
    written = [out / "summary.json"]
    if curves:
        write_convergence_svg(out / "plot.svg", curves, title="convergence")
        written.append(out / "plot.svg")
    else:  # no run has a finite error to draw; no plot of another run stays
        (out / "plot.svg").unlink(missing_ok=True)
    _say(args.quiet, "wrote " + " and ".join(map(str, written)))
    if all(r["diverged"] for r in runs):
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_check(args) -> int:
    exp = load_experiment(args.config)
    out = Path(args.out or exp.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    report = {"format_version": FORMAT_VERSION, "conditions": exp.condition_map()}
    if exp.structure is not None:
        gains = exp.seed_gains[exp.seeds[0]]
        lmi_id, nominal = stability.certified_inequality(gains, exp.nominal, exp.surrogate)
        cert = lmi_id and stability.lmi_search(lmi_id, nominal, exp.structure, gains)
        report["lmi"] = {"id": lmi_id, "found": cert is not None}
        if cert is not None:
            cert_file = out / "certificate.json"
            stability.save_certificate(cert_file, cert)
            report["lmi"].update(certificate_file=cert_file.name, tau=cert.tau)
    _write_json(out / "report.json", report)
    if not args.quiet:
        print(json.dumps(_strict(report), indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


def cmd_plot(args) -> int:
    try:
        curves = [(Path(path).stem, learner.read_trace_csv(path)["err_inf"]) for path in args.traces]
        svg = render_convergence_svg(curves, title="convergence")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out or "plot.svg")
    if out.suffix != ".svg":
        out.mkdir(parents=True, exist_ok=True)
        out = out / "plot.svg"
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(svg.encode("ascii"))
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
