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
optional ``r_max`` (a positive number or ``inf``, the default).  Exactly one
``[initial]`` source must be given; an empty ``expr``, ``csv`` or
``cylinder`` counts as not given.  Each source only produces radii, which
one check passes through ``ProfileGrid`` and the ambient ball (r < r_max), so
every ``[initial]`` problem, a CSV's included, is a ``ConfigError`` (exit 1).
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
from typing import Dict, List, Optional, Tuple

import numpy as np

from .ambient import _VALIDATE_SAMPLES, AmbientSpace, make_preset, space_from_expressions
from .expressions import compile_expression
from .flow import FlowConfig
from .hypersurface import ProfileGrid, _check_domain, load_profile_csv

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Config file cannot be parsed or fails validation."""


_FLOW_KEYS = {f.name for f in fields(FlowConfig)}


@dataclass
class RunConfig:
    space: AmbientSpace
    a: float
    b: float
    m: int
    initial: ProfileGrid
    flow: FlowConfig
    validate_probe: float
    validate_samples: int
    outdir: Optional[str] = None
    cmc: Dict[str, str] = field(default_factory=dict)
    sweep_items: List[Tuple[Tuple[str, str], List[str]]] = field(default_factory=list)
    echo: Dict[str, Dict[str, str]] = field(default_factory=dict)


def _get(sections, section, key, default=None, required=False):
    try:
        return sections[section][key]
    except KeyError:
        if required:
            raise ConfigError(f"[{section}] {key}: missing required option")
        return default


def _parse_bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("true", "yes", "on", "1"):
        return True
    if val in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


# (parser, name of the expected kind) pairs for ``_get_as``
_NUMBER = (float, "a number")
_INTEGER = (int, "an integer")
_BOOLEAN = (_parse_bool, "a boolean")


def _get_as(kind, sections, section, key, default=None, required=False):
    parse, name = kind
    raw = _get(sections, section, key, required=required)
    if raw is None:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected {name}, got {raw!r}")


def _build_space(sections) -> AmbientSpace:
    preset = _get(sections, "space", "preset", required=True).strip().lower()
    n = _get_as(_INTEGER, sections, "space", "n", default=2)
    if preset == "custom":
        exprs = {key: _get(sections, "space", key, required=True)
                 for key in ("f", "df", "d2f", "h", "dh", "d2h")}
        r_max = _get_as(_NUMBER, sections, "space", "r_max", default=math.inf)
        build = partial(space_from_expressions, n, r_max=r_max, **exprs)
    elif preset in ("euclidean", "hyperbolic", "spherical"):
        build = partial(make_preset, preset, _get_as(_NUMBER, sections, "space", "lambda"), n=n)
    else:
        raise ConfigError(f"[space] preset: unknown value {preset!r}")
    try:
        return build()
    except ValueError as exc:  # ExpressionError included
        raise ConfigError(f"[space] {exc}")


def _build_initial(sections, space, a, b, m) -> ProfileGrid:
    z = np.linspace(a, b, m)
    given = [k for k in ("expr", "csv", "cylinder") if _get(sections, "initial", k)]
    if len(given) != 1:
        raise ConfigError("[initial] give exactly one of: expr, csv, cylinder")
    source = given[0]
    raw = _get(sections, "initial", source)

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
        perturb = _get(sections, "initial", "perturb")
        if perturb:  # empty counts as not given, like an empty source
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
    if "flow" in sections:
        unknown = set(sections["flow"]) - _FLOW_KEYS
        if unknown:
            raise ConfigError(f"[flow] unknown option(s): {', '.join(sorted(unknown))}")
    kwargs = {}
    for f in fields(FlowConfig):
        # the default's type picks the parser; None defaults are numbers
        kind = {int: _INTEGER, bool: _BOOLEAN}.get(type(f.default), _NUMBER)
        val = _get_as(kind, sections, "flow", f.name)
        if val is not None:
            kwargs[f.name] = val
    try:
        return FlowConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[flow] {exc}")


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

    probe = _get_as(_NUMBER, sections, "validate", "r_probe_max")
    if probe is None:
        probe = 3.0
        if space.r_max_domain < math.inf:
            probe = min(probe, 0.99 * space.r_max_domain)
    if not 0 < probe <= space.r_max_domain:
        raise ConfigError(f"[validate] r_probe_max: need 0 < r_probe_max <= "
                          f"{space.r_max_domain:g}, got {probe!r}")
    samples = _get_as(_INTEGER, sections, "validate", "samples", default=_VALIDATE_SAMPLES)
    if samples < 2:
        raise ConfigError(f"[validate] samples: need samples >= 2, got {samples}")

    return RunConfig(
        space=space, a=a, b=b, m=m, initial=initial, flow=flow_cfg,
        outdir=_get(sections, "output", "dir"),
        validate_probe=probe, validate_samples=samples,
        cmc=dict(sections.get("cmc", {})),
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

