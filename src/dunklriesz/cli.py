"""Command-line front end: build/cache bases, evaluate kernels on point
files, and run verification suites.

Exit codes: 0 success, 1 at least one check failed, 2 configuration, I/O or
typed numerical error (e.g. a Mehler truncation too coarse for its tail, or
a Riesz kernel asked of a group other than Z2^d).
Reports are deterministic given (config, seed); see VerifyConfig.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import hermite
from .kernels import (
    DEFAULT_CONFIG,
    SEPARATION_FLOOR,
    OrbitTooClose,
    SeriesNonConvergence,
    TruncationTooCoarse,
    WrongGroup,
    dunkl_kernel,
    heat_kernel,
    riesz_kernel,
)
from .polyalg import IrrationalDunklCoefficient, NoExactCoordinates, NonzeroRemainder
from .reflection import InvalidRootSystem, root_system
from .verify import DEFAULT_VERIFY, ALL_CHECKS, HORM_RADIUS, run_checks


class ConfigError(ValueError):
    pass


_KAPPA_SCHEMA = {
    "oneOf": [
        {"type": "number", "minimum": 0},
        {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1},
    ]
}

_COUNT = {"type": "integer", "minimum": 1}


def _numbers(**bounds):
    return {"type": "array", "items": {"type": "number", **bounds}, "minItems": 1}


# The settable fields of KernelConfig and VerifyConfig, and no other, each
# with the range its reader accepts: the seed is set at the top level only.
# Only eval reads the kernel block.
_KERNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "mehler_r_cap": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    },
    "additionalProperties": False,
}

_VERIFY_SCHEMA = {
    "type": "object",
    "properties": {
        "fit_t_points": _COUNT,
        "fit_t_large_points": _COUNT,
        "fit_grid_points": _COUNT,
        "fit_ridge_points": _COUNT,
        "mehler_r_values": _numbers(exclusiveMinimum=0, exclusiveMaximum=1),
        "decay_separations": _COUNT,
        # a Hormander region keeps its nodes past 2 delta > SEPARATION_FLOOR
        # from the orbit, and is empty once 2 delta reaches HORM_RADIUS
        "horm_separations": _numbers(exclusiveMinimum=SEPARATION_FLOOR,
                                     exclusiveMaximum=HORM_RADIUS / 2),
        # the Monte Carlo standard error needs two samples
        "horm_mc_samples": {"type": "integer", "minimum": 2},
        "norm_vectors": _COUNT,
        "lp_samples": _COUNT,
    },
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        # either the flat keys (group/kappa/roots) or a root_system block
        "root_system": {
            "type": "object",
            "properties": {
                "type": {"type": "string", "enum": ["catalogue", "explicit"]},
                "name": {"type": "string"},
                "dim": {"type": "integer", "minimum": 1},
                "roots": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "multiplicity": _KAPPA_SCHEMA,
            },
            "required": ["type"],
            "additionalProperties": False,
        },
        "group": {"type": "string"},
        "dim": {"type": "integer", "minimum": 1},
        "kappa": _KAPPA_SCHEMA,
        "roots": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "degree": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "checks": {"type": "array", "items": {"type": "string", "enum": sorted(ALL_CHECKS)}},
        "arithmetic": {"type": "string", "enum": ["auto", "exact", "float"]},
        "out": {"type": "string"},
        "cache_dir": {"type": "string"},
        "kernel": _KERNEL_SCHEMA,
        "verify": _VERIFY_SCHEMA,
    },
    "additionalProperties": False,
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# JSON Schema's types as Python sees a json.load result: a bool is neither a
# number nor an integer, and an integral float is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _conform(value, schema, where="config"):
    """value checked against schema and returned with its integers as int.

    Reads exactly the JSON Schema keywords CONFIG_SCHEMA uses, as draft
    2020-12 defines them; raises ConfigError at the first violation.
    """
    if "oneOf" in schema:
        fits = []
        for sub in schema["oneOf"]:
            try:
                fits.append(_conform(value, sub, where))
            except ConfigError:
                pass
        if len(fits) != 1:
            raise ConfigError(
                f"{where}: {value!r} is valid under {len(fits)} of its {len(schema['oneOf'])}"
                " schemas, not exactly one"
            )
        value = fits[0]
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        raise ConfigError(f"{where}: {value!r} is not of type {kind!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{where}: {value!r} is not one of {schema['enum']}")
    if kind == "integer":
        value = int(value)
    if "minimum" in schema and _is_number(value) and value < schema["minimum"]:
        raise ConfigError(f"{where}: {value!r} is less than the minimum of {schema['minimum']}")
    if "exclusiveMinimum" in schema and _is_number(value) and value <= schema["exclusiveMinimum"]:
        raise ConfigError(f"{where}: {value!r} is not greater than {schema['exclusiveMinimum']}")
    if "exclusiveMaximum" in schema and _is_number(value) and value >= schema["exclusiveMaximum"]:
        raise ConfigError(f"{where}: {value!r} is not less than {schema['exclusiveMaximum']}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ConfigError(f"{where}: {value!r} has fewer than {schema['minItems']} items")
        if "items" in schema:
            value = [_conform(v, schema["items"], f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(f"{where}: {key!r} is a required property")
        props = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            for key in value:
                if key not in props:
                    raise ConfigError(f"{where}: unexpected key {key!r}")
        value = {
            k: _conform(v, props[k], f"{where}.{k}") if k in props else v
            for k, v in value.items()
        }
    return value


DEFAULTS = {
    "group": "z2",
    "kappa": 0.5,
    "degree": 8,
    "seed": DEFAULT_VERIFY.seed,
    "arithmetic": "auto",
    "checks": sorted(ALL_CHECKS),
}


def load_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config validation failed: the config file must hold a JSON object")
        cfg.update(user)
    for key in ("group", "degree", "seed", "out"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "kappa", None) is not None:
        try:
            parts = [float(s) for s in str(args.kappa).split(",")]
        except ValueError as exc:
            raise ConfigError(f"config validation failed: --kappa {args.kappa!r}: {exc}") from exc
        cfg["kappa"] = parts[0] if len(parts) == 1 else parts
    if getattr(args, "checks", None) is not None:
        cfg["checks"] = [s for s in args.checks.split(",") if s]
    try:
        return _conform(cfg, CONFIG_SCHEMA)
    except ConfigError as exc:
        raise ConfigError(f"config validation failed: {exc}") from exc


def _build_root_system(cfg):
    block = cfg.get("root_system")
    try:
        if block is not None:
            mult = block.get("multiplicity", cfg.get("kappa", 0.0))
            if block["type"] == "explicit":
                if "roots" not in block:
                    raise ConfigError("explicit root_system needs a 'roots' list")
                return root_system(roots=block["roots"], multiplicity=mult)
            if "name" not in block:
                raise ConfigError("catalogue root_system needs a 'name'")
            return root_system(block["name"], dim=block.get("dim"), multiplicity=mult)
        kappa = cfg.get("kappa", 0.0)
        if "roots" in cfg:
            return root_system(roots=cfg["roots"], multiplicity=kappa)
        return root_system(cfg["group"], dim=cfg.get("dim"), multiplicity=kappa)
    except InvalidRootSystem as exc:
        raise ConfigError(str(exc)) from exc


def _cache_key(cfg) -> str:
    blob = json.dumps(
        {
            k: cfg.get(k)
            for k in ("root_system", "group", "dim", "kappa", "roots", "degree", "arithmetic")
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _get_basis(cfg, basis_file=None):
    if basis_file:
        return hermite.load_basis(basis_file)
    rs = _build_root_system(cfg)
    exact = {"auto": rs.exact_capable, "exact": True, "float": False}[cfg.get("arithmetic", "auto")]
    # a basis file holds float coefficients only, so only float builds are cached
    cache_dir = None if exact else cfg.get("cache_dir")
    if cache_dir:
        path = os.path.join(cache_dir, f"basis-{_cache_key(cfg)}.json")
        if os.path.exists(path):
            return hermite.load_basis(path)
    basis = hermite.build_basis(rs, cfg["degree"], exact=exact)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        hermite.save_basis(basis, path)
    return basis


def _sub_config(default, overrides: dict):
    """default with the fields set by a config block the schema has passed."""
    if not overrides:
        return default
    return replace(default, **{k: tuple(v) if isinstance(v, list) else v
                               for k, v in overrides.items()})


def cmd_basis(args) -> int:
    cfg = load_config(args)
    basis = _get_basis(cfg)
    out = cfg.get("out") or f"basis-{_cache_key(cfg)}.json"
    hermite.save_basis(basis, out)
    print(f"group={basis.rs.name} dim={basis.rs.dim} kappa={basis.rs.multiplicity.tolist()}")
    print(f"degree={basis.N} basis_size={basis.size} arithmetic={'exact' if basis.exact else 'float'}")
    print(f"c_kappa={basis.c_kappa!r} m_kappa={basis.m_kappa!r} gamma={basis.gamma!r}")
    print(f"written: {out}")
    return 0


def _read_points(path, expected_cols):
    try:
        with open(path) as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read points file: {exc}") from exc
    if rows and not _is_float(rows[0][0]):
        rows = rows[1:]  # header
    out = []
    for r in rows:
        try:
            vals = [float(v) for v in r if v.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"points row {r}: {exc}") from exc
        if len(vals) != expected_cols:
            raise ConfigError(f"points row {vals}: {len(vals)} columns, expected {expected_cols}")
        if not np.isfinite(vals).all():
            raise ConfigError(f"points row {vals}: every value must be finite")
        out.append(vals)
    return out


def _is_float(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def cmd_eval(args) -> int:
    cfg = load_config(args)
    basis = _get_basis(cfg, args.basis_file)
    kernel_cfg = _sub_config(DEFAULT_CONFIG, cfg.get("kernel", {}))
    d = basis.rs.dim
    what = args.what
    if what == "dunkl-kernel":
        cols, header = 2 * d, ["x" + str(i) for i in range(d)] + ["y" + str(i) for i in range(d)]
    elif what == "heat-kernel":
        cols, header = 1 + 2 * d, ["t"] + ["x" + str(i) for i in range(d)] + ["y" + str(i) for i in range(d)]
    else:
        cols, header = 1 + 2 * d, ["j"] + ["x" + str(i) for i in range(d)] + ["y" + str(i) for i in range(d)]
    points = _read_points(args.points, cols)
    for row in points:
        if what == "heat-kernel" and not row[0] > 0:
            raise ConfigError(f"points row {row}: heat time t must be > 0")
        if what == "riesz-kernel" and not (row[0].is_integer() and 1 <= row[0] <= d):
            raise ConfigError(f"points row {row}: Riesz axis j must be one of 1..{d}")
    # every row is evaluated before the output is opened, so a typed error
    # leaves no partial file
    rows = []
    for row in points:
        try:
            if what == "dunkl-kernel":
                x, y = np.array(row[:d]), np.array(row[d:])
                val = dunkl_kernel(basis, x, y, kernel_cfg)
            elif what == "heat-kernel":
                t, x, y = row[0], np.array(row[1 : 1 + d]), np.array(row[1 + d :])
                val = heat_kernel(basis, t, x, y, kernel_cfg)
            else:
                j, x, y = int(row[0]), np.array(row[1 : 1 + d]), np.array(row[1 + d :])
                val = riesz_kernel(basis, j, x, y)
            rows.append(row + [repr(float(val)), "ok"])
        except OrbitTooClose:
            rows.append(row + ["", "orbit-too-close"])
    out_path = cfg.get("out") or "eval.csv"
    with open(out_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header + ["value", "status"])
        wr.writerows(rows)
    print(f"written: {out_path}")
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args)
    basis = _get_basis(cfg, args.basis_file)
    vcfg = _sub_config(DEFAULT_VERIFY, cfg.get("verify", {}))
    vcfg = replace(vcfg, seed=cfg["seed"])
    names = cfg.get("checks") or []
    report = run_checks(basis, names, vcfg)
    out = cfg.get("out") or "report"
    with open(out + ".json", "w") as fh:
        fh.write(report.to_json())
    with open(out + ".csv", "w") as fh:
        fh.write(report.constants_csv())
    for c in report.checks:
        print(f"{c.name:26s} {c.status.upper():5s} ({c.runtime_ms:8.1f} ms)")
    print(f"written: {out}.json, {out}.csv")
    return 0 if report.all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dunklriesz",
        description="Dunkl-Hermite spectral systems, heat kernels, and Riesz "
        "transform verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--group", help="catalogue name: z2, z2^d, a2, b2, i2(m)")
        p.add_argument("--kappa", help="multiplicity (scalar or comma list per orbit)")
        p.add_argument("--degree", type=int, help="basis truncation degree")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path (or prefix for verify)")

    p = sub.add_parser("basis", help="build and serialize a Hermite basis")
    common(p)

    p = sub.add_parser("eval", help="evaluate kernels on a CSV of points")
    common(p)
    p.add_argument("--what", required=True, choices=["dunkl-kernel", "heat-kernel", "riesz-kernel"])
    p.add_argument("--points", required=True, help="CSV of point tuples")
    p.add_argument("--basis-file", help="use a serialized basis instead of building")

    p = sub.add_parser("verify", help="run verification checks and write reports")
    common(p)
    p.add_argument("--checks", help="comma-separated check names (default: all)")
    p.add_argument("--basis-file", help="use a serialized basis instead of building")
    return ap


# built once: argparse objects reference each other, so a parser per call
# would leave cyclic garbage behind every in-process main()
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # looked up on each call, so a wrapper bound over a cmd_* name takes effect
    command = {"basis": cmd_basis, "eval": cmd_eval, "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except (
        ConfigError,
        InvalidRootSystem,
        hermite.BasisChecksum,
        # a numerical route the configuration asked for cannot deliver
        NoExactCoordinates,
        NonzeroRemainder,
        IrrationalDunklCoefficient,
        TruncationTooCoarse,
        hermite.QuadratureNonConvergence,
        hermite.GramSingular,
        SeriesNonConvergence,
        WrongGroup,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
