"""Command-line front end: config ingestion, experiment selection, seeding,
worker control, and output routing.

Config files are flat ``section.key = value`` text (sections: limit,
counterparty, experiment, validate); ``#`` starts a comment and a later
line for a key wins. Repeatable ``--set key=value`` flags override it, in
order, and must reference known keys. Experiment keys left unset take
:class:`ExperimentSpec`'s defaults. A run's ``config_echo.cfg`` is the file
plus one ``key = value`` line per ``--set``; passed back as ``--config`` it
reproduces the run. The manifest's ``config_hash`` is the hash of that text
alone, so it does not depend on ``--workers``.

Exit codes: 0 success, 2 configuration error, 3 validation failure,
4 numerical-accuracy error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable

from .errors import AccuracyError, ConfigError
from .exposure import LimitConfig
from .harness import EXPERIMENTS, ExperimentSpec, run_experiment
from .jumps import BveParams
from .simulation import CounterpartyParams, CounterpartySide

__all__ = ["main", "parse_config", "build_spec"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_ACCURACY = 4

_LIMIT_FIELDS = tuple(f.name for f in fields(LimitConfig))
_CP_SIDE_FIELDS = tuple(f.name for f in fields(CounterpartySide))


def _list_of(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser of a comma-separated list whose items ``parse`` reads."""

    return lambda raw: tuple(parse(part.strip()) for part in raw.split(",") if part.strip())


# each known key and the parser of its raw value
KNOWN_KEYS: dict[str, Callable[[str], object]] = {}
KNOWN_KEYS.update({f"limit.{f}": float for f in _LIMIT_FIELDS})
for side in ("a", "b"):
    KNOWN_KEYS.update({f"counterparty.{f}_{side}": float for f in _CP_SIDE_FIELDS})
KNOWN_KEYS.update({
    "counterparty.gamma_a": float,
    "counterparty.gamma_b": float,
    "counterparty.gamma_ab": float,
    "counterparty.gamma_a_idio": float,
    "counterparty.gamma_b_idio": float,
    "counterparty.gamma_ab_idio": float,
    "counterparty.loss_a": float,
    "counterparty.loss_b": float,
    "experiment.kind": str,
    "experiment.horizon": float,
    "experiment.n_paths": int,
    "experiment.k_values": _list_of(int),
    "experiment.n_times": int,
    "experiment.dt": float,
    "experiment.repeats": int,
    "experiment.sweep": str,
    "experiment.sweep_values": _list_of(float),
    "validate.perturb": str,
})


def parse_config(text: str) -> dict[str, str]:
    """Parse flat ``section.key = value`` lines into a raw string mapping."""

    mapping: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'section.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {ln}: unknown config key {key!r}")
        mapping[key] = value
    return mapping


def _apply_overrides(mapping: dict[str, str], pairs: list[str]) -> str:
    """Apply ``--set`` pairs in order; returns them as config lines."""

    lines = []
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set: override {pair!r} is not key=value")
        key, value = (part.strip() for part in pair.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"--set: override references unknown key {key!r}")
        mapping[key] = value
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def _convert(key: str, raw: str):
    try:
        return KNOWN_KEYS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} ({exc})") from None


def _section(mapping: dict[str, str], prefix: str) -> dict[str, object]:
    out = {}
    for key, raw in mapping.items():
        sec, _, name = key.partition(".")
        if sec == prefix:
            out[name] = _convert(key, raw)
    return out


def _build_limit(sec: dict[str, object]) -> LimitConfig:
    missing = [f for f in _LIMIT_FIELDS if f not in sec]
    if missing:
        raise ConfigError(f"limit section is missing keys: {missing}")
    return LimitConfig(**{f: sec[f] for f in _LIMIT_FIELDS})


def _build_cps(sec: dict[str, object]) -> CounterpartyParams:
    def side(tag: str) -> CounterpartySide:
        missing = [f for f in _CP_SIDE_FIELDS if f"{f}_{tag}" not in sec]
        if missing:
            raise ConfigError(f"counterparty side {tag}: missing {missing}")
        return CounterpartySide(**{f: sec[f"{f}_{tag}"] for f in _CP_SIDE_FIELDS})

    for req in ("gamma_a", "gamma_b", "gamma_ab"):
        if req not in sec:
            raise ConfigError(f"counterparty section is missing {req}")
    common = BveParams(sec["gamma_a"], sec["gamma_b"], sec["gamma_ab"])
    idio = BveParams(sec.get("gamma_a_idio", sec["gamma_a"]),
                     sec.get("gamma_b_idio", sec["gamma_b"]),
                     sec.get("gamma_ab_idio", sec["gamma_ab"]))
    return CounterpartyParams(side_a=side("a"), side_b=side("b"),
                              common_jump=common, idio_jump=idio,
                              **{k: sec[k] for k in ("loss_a", "loss_b") if k in sec})


def _parse_perturb(raw: str) -> dict[str, float]:
    out = {}
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"validate.perturb entry {part!r} is not name:offset")
        name, offset = part.split(":", 1)
        try:
            out[name.strip()] = float(offset)
        except ValueError:
            raise ConfigError(f"validate.perturb offset {offset!r} is not a number") from None
    return out


def build_spec(mapping: dict[str, str], kind: str, seed: int | None,
               workers: int, config_text: str | None) -> ExperimentSpec:
    """Resolve a raw config mapping plus CLI arguments into an ExperimentSpec."""

    declared = mapping.get("experiment.kind")
    if declared is not None and declared != kind:
        raise ConfigError(
            f"config declares experiment.kind={declared!r} but {kind!r} was requested")

    exp = _section(mapping, "experiment")
    limit_sec = _section(mapping, "limit")
    cp_sec = _section(mapping, "counterparty")
    val_sec = _section(mapping, "validate")

    exp.pop("kind", None)
    return ExperimentSpec(
        kind=kind, limit=_build_limit(limit_sec) if limit_sec else None,
        cps=_build_cps(cp_sec) if cp_sec else None, seed=seed, workers=workers,
        perturb=_parse_perturb(val_sec["perturb"]) if "perturb" in val_sec else {},
        config_text=config_text, **exp)


def _error_line(code: int, kind: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "kind": kind, "message": message}},
                     sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdspool",
        description="Large-pool CDS analytics: exposure convergence studies, "
                    "bilateral CVA sweeps, and closed-form validation.")
    parser.add_argument("--experiment", required=True,
                        help=f"one of {', '.join(EXPERIMENTS)}")
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key-value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (required for Monte-Carlo experiments)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads; never changes numerical output")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory (default: results)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="config override, repeatable")
    args = parser.parse_args(argv)

    try:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        config_text = None
        mapping: dict[str, str] = {}
        if args.config is not None:
            try:
                config_text = Path(args.config).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from None
            mapping = parse_config(config_text)
        set_lines = _apply_overrides(mapping, args.overrides)
        if set_lines:
            text = config_text or ""
            if text and not text.endswith("\n"):
                text += "\n"
            config_text = text + set_lines

        seed = args.seed
        if seed is not None and not 0 <= seed < 2**64:
            raise ConfigError("--seed must fit in an unsigned 64-bit integer")
        spec = build_spec(mapping, args.experiment, seed, args.workers, config_text)
        tables, report = run_experiment(spec, out_dir=args.out)
    except ConfigError as exc:
        _error_line(EXIT_CONFIG, "config", str(exc))
        return EXIT_CONFIG
    except AccuracyError as exc:
        _error_line(EXIT_ACCURACY, "accuracy", str(exc))
        return EXIT_ACCURACY

    if report is not None:
        sys.stdout.write(report.render())
        if not report.passed:
            _error_line(EXIT_VALIDATION, "validation",
                        f"failed checks: {', '.join(report.failures())}")
            return EXIT_VALIDATION
    print(f"wrote {len(tables)} curve file(s) and run_manifest.json to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
