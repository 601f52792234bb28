"""Run configuration: INI-style files with ``[section]`` headers.

A config resolves to an ambient space, a slab, a grid, an initial profile,
and flow thresholds.  Example::

    [space]
    preset = hyperbolic     ; euclidean | hyperbolic | spherical | custom
    lambda = -1.0
    n = 2

    [domain]
    a = 0.0
    b = 1.0

    [grid]
    m = 201

    [initial]
    expr = 1 + 0.1*cos(pi*z)
    ; or: csv = profile.csv
    ; or: cylinder = 1.0  with optional  perturb = 0.1*cos(pi*z)

    [flow]
    max_t = 10.0
    record_every = 100

Custom spaces give the six warp expressions in ``r``: ``f, df, d2f, h, dh,
d2h`` (first and second derivatives must be supplied analytically) plus an
optional ``r_max`` (a positive number or ``inf``, the default); ``lambda``
goes only with a preset, and ``r_max`` and the warps only with ``custom``.
Exactly one ``[initial]`` source must be given; an empty ``expr``, ``csv``
or ``cylinder`` counts as not given, and a non-empty ``perturb`` goes only
with ``cylinder``.  Each source only produces radii, which one check passes
through ``ProfileGrid`` and the ambient ball (r < r_max), so every
``[initial]`` problem, a CSV's included, is a ``ConfigError`` (exit 1).
``[cmc]`` needs ``mode``; ``volume`` goes with ``cylinder``, ``h_target`` and
``guess`` with ``shoot``.  An unknown section or option is a ``ConfigError``.
``validate_probe`` is ``[validate] r_probe_max`` (default 3.0, or 0.99 r_max
if smaller) extended to 5% past the initial max r, within the ball.
``summary.json`` files echo the parsed sections under the ``config`` key;
``load_config`` accepts such a JSON file directly, which reproduces the run
bit for bit.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .ambient import AmbientSpace, make_preset, space_from_expressions
from .cmc import CMCProfile, cylinder_for_volume, shoot_cmc
from .expressions import compile_expression
from .flow import FlowConfig
from .hypersurface import ProfileGrid, _check_domain, load_profile_csv

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Config file cannot be parsed or fails validation."""


_WARP = ("f", "df", "d2f", "h", "dh", "d2h")
_SOURCES = ("expr", "csv", "cylinder")
# the options of each section; [sweep] takes any section.option, which each
# member's parse checks
_OPTIONS = {
    "space": {"preset", "n", "lambda", "r_max", *_WARP},
    "domain": {"a", "b"},
    "grid": {"m"},
    "initial": {"perturb", *_SOURCES},
    "flow": {f.name for f in fields(FlowConfig)},
    "validate": {"r_probe_max"},
    "cmc": {"mode", "volume", "h_target", "guess"},
    "sweep": None,
    "output": {"dir"},
}


@dataclass
class RunConfig:
    space: AmbientSpace
    a: float
    b: float
    m: int
    initial: ProfileGrid
    flow: FlowConfig
    validate_probe: float
    outdir: Optional[str] = None
    cmc: Optional[Callable[[], CMCProfile]] = None
    sweep_items: List[Tuple[Tuple[str, str], List[str]]] = field(default_factory=list)
    echo: Dict[str, Dict[str, str]] = field(default_factory=dict)


def _get(sections, section, key, default=None, required=False):
    try:
        return sections[section][key]
    except KeyError:
        if required:
            raise ConfigError(f"[{section}] {key}: missing required option")
        return default


# (parser, name of the expected kind) pairs for ``_get_as``
_NUMBER = (float, "a number")
_INTEGER = (int, "an integer")


def _get_as(kind, sections, section, key, default=None, required=False):
    parse, name = kind
    raw = _get(sections, section, key, required=required)
    if raw is None:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected {name}, got {raw!r}")


def _refuse(sections, section, keys, owner):
    """ConfigError for the first of ``keys`` given in ``section``: it does not
    apply to ``owner``, and would otherwise be dropped without a word."""
    for key in keys:
        if key in sections.get(section, {}):
            raise ConfigError(f"[{section}] {key}: does not apply to {owner}")


def _build_space(sections) -> AmbientSpace:
    preset = _get(sections, "space", "preset", required=True).strip().lower()
    n = _get_as(_INTEGER, sections, "space", "n", default=2)
    if preset == "custom":
        _refuse(sections, "space", ("lambda",), "preset custom")
        exprs = {key: _get(sections, "space", key, required=True) for key in _WARP}
        r_max = _get_as(_NUMBER, sections, "space", "r_max", default=math.inf)
        build = partial(space_from_expressions, n, r_max=r_max, **exprs)
    elif preset in ("euclidean", "hyperbolic", "spherical"):
        _refuse(sections, "space", ("r_max", *_WARP), f"preset {preset}")
        lam = _get_as(_NUMBER, sections, "space", "lambda", required=preset != "euclidean")
        build = partial(make_preset, preset, lam, n=n)
    else:
        raise ConfigError(f"[space] preset: unknown value {preset!r}")
    try:
        return build()
    except ValueError as exc:  # ExpressionError included
        raise ConfigError(f"[space] {exc}")


def _build_initial(sections, space, a, b, m) -> ProfileGrid:
    z = np.linspace(a, b, m)
    given = [k for k in _SOURCES if _get(sections, "initial", k)]
    if len(given) != 1:
        raise ConfigError("[initial] give exactly one of: expr, csv, cylinder")
    source = given[0]
    raw = _get(sections, "initial", source)
    perturb = _get(sections, "initial", "perturb")  # empty counts as not given
    if perturb and source != "cylinder":
        raise ConfigError(f"[initial] perturb: applies only to cylinder, not to {source}")

    if source == "csv":  # parse_config has made the path absolute
        try:
            profile = load_profile_csv(raw)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"[initial] csv: {exc}")
        if profile.m != m or abs(profile.a - a) > 1e-12 or abs(profile.b - b) > 1e-12:
            raise ConfigError("[initial] csv: grid does not match [domain]/[grid]")
        a, b, r = profile.a, profile.b, profile.r
    elif source == "expr":
        try:
            r = compile_expression(raw, var="z")(z)
        except (ValueError, ArithmeticError) as exc:  # ExpressionError included
            raise ConfigError(f"[initial] expr: {exc}")
    else:
        r = np.full(m, _get_as(_NUMBER, sections, "initial", "cylinder"))
        if perturb:
            try:
                r = r + compile_expression(perturb, var="z")(z)
            except (ValueError, ArithmeticError) as exc:
                raise ConfigError(f"[initial] perturb: {exc}")

    try:
        profile = ProfileGrid(a, b, r)
        _check_domain(profile, space)
    except ValueError as exc:
        raise ConfigError(f"[initial] {exc}")
    return profile


def _build_flow(sections) -> FlowConfig:
    kwargs = {}
    for f in fields(FlowConfig):
        # int defaults are integers; the rest, None defaults included, numbers
        kind = _INTEGER if type(f.default) is int else _NUMBER
        val = _get_as(kind, sections, "flow", f.name)
        if val is not None:
            kwargs[f.name] = val
    try:
        return FlowConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[flow] {exc}")


def _build_cmc(sections, space, a, b, m) -> Callable[[], CMCProfile]:
    mode = _get(sections, "cmc", "mode", required=True)

    def number(key):
        return _get_as(_NUMBER, sections, "cmc", key, required=True)

    if mode == "cylinder":
        _refuse(sections, "cmc", ("h_target", "guess"), "mode cylinder")
        return partial(cylinder_for_volume, space, a, b, number("volume"), m=m)
    if mode == "shoot":
        _refuse(sections, "cmc", ("volume",), "mode shoot")
        return partial(shoot_cmc, space, a, b, number("h_target"), number("guess"), m=m)
    raise ConfigError(f"[cmc] mode: unknown value {mode!r}")


def _build_sweep(sections) -> List[Tuple[Tuple[str, str], List[str]]]:
    items = []
    for key, raw in sections.get("sweep", {}).items():
        if "." not in key:
            raise ConfigError(f"[sweep] {key}: keys must look like section.option")
        sect, opt = key.split(".", 1)
        values = [v.strip() for v in raw.split(",") if v.strip()]
        items.append(((sect, opt), values))
    return items


def parse_config(sections: Dict[str, Dict[str, str]], base_dir: str = ".") -> RunConfig:
    """Build a RunConfig from normalized ``{section: {key: value}}`` strings."""
    for name, kv in sections.items():
        if not isinstance(kv, dict) or not all(isinstance(v, str) for v in kv.values()):
            raise ConfigError(f"[{name}] section must map option names to strings, got {kv!r}")
    sections = {s.lower(): {k.lower(): v for k, v in kv.items()} for s, kv in sections.items()}
    for name, kv in sections.items():
        if name not in _OPTIONS:
            raise ConfigError(f"[{name}] unknown section")
        known = _OPTIONS[name]
        unknown = [] if known is None else sorted(set(kv) - known)
        if unknown:
            raise ConfigError(f"[{name}] unknown option(s): {', '.join(unknown)}")
    for required in ("space", "domain", "grid", "initial"):
        if required not in sections:
            raise ConfigError(f"[{required}] section is missing")
    # absolutize csv paths so an echoed config reproduces the run from any cwd
    csv_raw = sections["initial"].get("csv")
    if csv_raw and not os.path.isabs(csv_raw):
        sections["initial"]["csv"] = os.path.abspath(os.path.join(base_dir, csv_raw))

    space = _build_space(sections)
    a = _get_as(_NUMBER, sections, "domain", "a", required=True)
    b = _get_as(_NUMBER, sections, "domain", "b", required=True)
    if not (b > a and math.isfinite(b - a)):
        raise ConfigError("[domain] need finite a < b")
    m = _get_as(_INTEGER, sections, "grid", "m", required=True)
    if m < 11:
        raise ConfigError(f"[grid] m: need m >= 11, got {m}")

    initial = _build_initial(sections, space, a, b, m)
    flow_cfg = _build_flow(sections)

    r_max = space.r_max_domain
    probe = _get_as(_NUMBER, sections, "validate", "r_probe_max", default=min(3.0, 0.99 * r_max))
    if not 0 < probe <= r_max:
        raise ConfigError(f"[validate] r_probe_max: need 0 < r_probe_max <= {r_max:g}, "
                          f"got {probe!r}")

    return RunConfig(
        space=space, a=a, b=b, m=m, initial=initial, flow=flow_cfg,
        outdir=_get(sections, "output", "dir"),
        validate_probe=max(probe, min(1.05 * float(initial.r.max()), r_max)),
        cmc=_build_cmc(sections, space, a, b, m) if "cmc" in sections else None,
        sweep_items=_build_sweep(sections),
        echo=sections,
    )


def load_config(path: str) -> RunConfig:
    """Load an INI config, or the ``config`` echo inside a summary.json."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc))
    base_dir = os.path.dirname(os.path.abspath(path))

    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: bad JSON ({exc})")
        sections = payload.get("config", payload)
        if not isinstance(sections, dict):
            raise ConfigError(f"{path}: no config sections found")
        return parse_config(sections, base_dir)

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc))
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    return parse_config(sections, base_dir)

