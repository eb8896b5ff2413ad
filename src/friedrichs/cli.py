"""Command-line front end.

Subcommands: threshold, eigenvalue, classify, expansion, oracle, sweep.
Exit codes: 0 success, 1 usage/config error, 2 model-validity error
(degenerate or non-unique band maximum at the requested p) or a sweep in
which no row succeeded.  FRIEDRICHS_THREADS caps sweep parallelism.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .critical import find_maximizer
from .errors import ConfigError, FriedrichsError, ModelValidityError
from .models import DispersionModel, ModelConfig
from .oracle import (
    check_lattice_size,
    dense_spectrum,
    report_from_roots,
    secular_root,
)
from .quadrature import OmegaEvaluator, QuadratureSpec
from .solver import (
    analyze,
    classify_threshold,
    coupling_threshold,
    eigenvalue_error_estimate,
    expansion_fit,
    solve_eigenvalue,
)
from .torus import grid_axis

DEFAULT_CONFIG = {"family": "two_particle", "hopping": [1.0, 1.0, 1.0],
                  "phi": {"constant": 1.0}}
# each sweep output and its sweep.csv columns, in column order; the
# coupling mu follows the threshold columns
SWEEP_OUTPUTS = {"threshold": ("M", "m", "mu_threshold"), "eigenvalue": ("E",),
                 "classify": ("classification",),
                 "expansion": ("tau0_fit", "tau0_closed"),
                 "oracle": ("oracle_root",)}


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _parse_point(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("expected 3 comma-separated components: %r" % text)
    try:
        return np.array([float(v) for v in parts])
    except ValueError:
        raise ConfigError("cannot parse torus point: %r" % text)


def _parse_list(text, kind, what):
    """Comma list of numbers of one kind; empty items are skipped."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("cannot parse %s: %r" % (what, text))


def _parse_path(text):
    stops = [s for s in text.split(":") if s.strip()]
    if not stops:
        raise ConfigError("empty p-path")
    return [_parse_point(s) for s in stops]


def _parse_mu_spec(text):
    """'x1.5' = 1.5 * mu(p); a plain float is an absolute coupling.  Either
    must be positive and finite (mu(p) is), checked before any fibre is
    built."""
    text = text.strip()
    kind = "multiple" if text.startswith("x") else "absolute"
    try:
        value = float(text[1:] if kind == "multiple" else text)
    except ValueError:
        raise ConfigError("cannot parse mu spec: %r" % text)
    if not 0.0 < value < float("inf"):
        raise ConfigError("mu = %r%s is not positive and finite"
                          % (value, " mu(p)" if kind == "multiple" else ""))
    return kind, value


def _resolve_mu(mu_spec, mu_threshold):
    kind, value = mu_spec
    return value * mu_threshold if kind == "multiple" else value


def _load(args):
    """(config, model, quadrature spec) of one command."""
    cfg = (ModelConfig.load(args.config) if args.config
           else ModelConfig.from_dict(DEFAULT_CONFIG))
    kw = {name: value for name, value in (
        ("n_grid", args.grid), ("rel_tol", args.tol)) if value is not None}
    return cfg, DispersionModel(cfg), QuadratureSpec(**kw)


def _fiber(model, spec, p):
    """(critical point, evaluator, mu(p)) of the fibre at p."""
    cp = find_maximizer(model, p)
    ev = OmegaEvaluator(model, p, cp, spec)
    return cp, ev, coupling_threshold(model, p, cp, evaluator=ev)


def _metadata(cfg, spec):
    d = cfg.to_dict()
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return {
        "config": d,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "quadrature": dataclasses.asdict(spec),
        "version": __version__,
    }


def _non_finite(value, name=""):
    """The name of the first number in value, in key order, that is not
    finite (a.b[2] for value["a"]["b"][2]), else None."""
    if isinstance(value, dict):
        items = (("%s.%s" % (name, k) if name else k, value[k])
                 for k in sorted(value))
    elif isinstance(value, (list, tuple, np.ndarray)) and np.ndim(value):
        items = (("%s[%d]" % (name, i), v) for i, v in enumerate(value))
    else:
        number = isinstance(value, (float, np.floating, np.ndarray))
        return name if number and not math.isfinite(value) else None
    return next(filter(None, (_non_finite(v, n) for n, v in items)), None)


def _check_finite(payload):
    """JSON has no NaN or Infinity: a FriedrichsError naming the first
    number of payload that is not finite."""
    bad = _non_finite(payload)
    if bad is not None:
        raise FriedrichsError(
            "%s is not finite, and a JSON artifact holds finite numbers "
            "only" % bad)


def _json(payload):
    """Every JSON artifact: sorted keys, arrays as lists, enums as values,
    and finite numbers only (_check_finite), checked before anything is
    written."""
    _check_finite(payload)
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                      default=np.ndarray.tolist)


def _write_csv(path, columns, rows):
    """Every CSV artifact: numbers at %.17g, None as an empty cell and text
    as is, quoted by csv where it holds a comma, quote or newline."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([v if v is None or isinstance(v, str) else "%.17g" % v
                          for v in row] for row in rows)


def _emit(payload, args, filename):
    text = _json(payload)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, filename), "w") as fh:
            fh.write(text + "\n")


# -- point subcommands ----------------------------------------------------
#
# Each takes (args, model, spec, p), checks its own arguments before it
# builds the fibre, and returns its JSON payload; main adds the metadata.


def cmd_threshold(args, model, spec, p):
    cp, _, mu_p = _fiber(model, spec, p)
    return {"p": p, "q0": cp.q0, "M": cp.M, "m": cp.m, "mu_threshold": mu_p}


def cmd_eigenvalue(args, model, spec, p):
    mu_spec = _parse_mu_spec(args.mu)
    cp, ev, mu_p = _fiber(model, spec, p)
    report = analyze(model, p, cp, _resolve_mu(mu_spec, mu_p), evaluator=ev)
    return dict(dataclasses.asdict(report), p=p, q0=cp.q0, M=cp.M, m=cp.m)


def cmd_classify(args, model, spec, p):
    mu_spec = _parse_mu_spec(args.mu)
    cp, ev, mu_p = _fiber(model, spec, p)
    mu = _resolve_mu(mu_spec, mu_p)
    result = classify_threshold(model, p, cp, mu, evaluator=ev)
    return {"p": p, "mu": mu, "mu_threshold": mu_p,
            "classification": result.label, "phi_at_q0": result.phi_at_q0,
            "l2_growth_rate": result.l2_growth_rate}


def cmd_expansion(args, model, spec, p):
    cp, ev, _ = _fiber(model, spec, p)
    fit = expansion_fit(model, p, cp, evaluator=ev)
    return dict(dataclasses.asdict(fit), p=p)


def cmd_oracle(args, model, spec, p):
    n_list = _parse_list(args.N, int, "N list")
    if not n_list:
        raise ConfigError("empty N list")
    for n in n_list:
        check_lattice_size(n)
    if args.dense:
        check_lattice_size(args.dense, dense=True)
    mu_spec = _parse_mu_spec(args.mu)
    cp, ev, mu_p = _fiber(model, spec, p)
    mu = _resolve_mu(mu_spec, mu_p)
    roots = [(n, secular_root(model, p, mu, n)) for n in n_list]
    energy = solve_eigenvalue(model, p, cp, mu, evaluator=ev)
    payload = {"p": p, "mu": mu, "mu_threshold": mu_p, "E_continuum": energy,
               "roots": [{"N": n, "root": root} for n, root in roots]}
    if energy is not None and all(root is not None for _, root in roots):
        floor = eigenvalue_error_estimate(model, p, cp, mu, energy,
                                          evaluator=ev)
        rep = report_from_roots(mu, roots, energy, floor=floor)
        payload["convergence"] = [dict(zip(rep.columns, row))
                                  for row in rep.rows]
        payload["trend_ok"] = rep.trend_ok
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _write_csv(os.path.join(args.out, "oracle_convergence.csv"),
                       rep.columns, rep.rows)
    if args.dense:
        dense = dataclasses.asdict(dense_spectrum(model, p, mu, args.dense))
        payload["dense"] = {**dense.pop("spectrum_summary"), **dense}
    return payload


# -- sweep ---------------------------------------------------------------


def _sweep_columns(outputs):
    cols = ["p1", "p2", "p3"]
    for output, names in SWEEP_OUTPUTS.items():
        cols += names if output in outputs else ()
        cols += ("mu",) if output == "threshold" else ()
    return cols + ["error"]


def _sweep_point(model, spec, p, mu_specs, outputs, oracle_n):
    """Rows for a single p (mu-minor order). Failures land in the error
    column; only a failure at the critical-point stage blanks every mu row."""
    try:
        cp, ev, mu_p = _fiber(model, spec, p)
    except FriedrichsError as exc:
        base = {"p1": p[0], "p2": p[1], "p3": p[2], "error": str(exc)}
        return [dict(base, mu=_resolve_mu(ms, float("nan"))
                     if ms[0] == "absolute" else None) for ms in mu_specs]
    rows, fit = [], None  # the expansion fit, or its error, once per p
    for mu_spec in mu_specs:
        mu = _resolve_mu(mu_spec, mu_p)
        row = {"p1": p[0], "p2": p[1], "p3": p[2], "mu": mu, "error": ""}
        if "threshold" in outputs:
            row.update(M=cp.M, m=cp.m, mu_threshold=mu_p)
        try:
            if "eigenvalue" in outputs:
                row["E"] = solve_eigenvalue(model, p, cp, mu, evaluator=ev)
            if "classify" in outputs:
                row["classification"] = classify_threshold(
                    model, p, cp, mu, evaluator=ev).label
            if "expansion" in outputs:
                if fit is None:
                    try:
                        fit = expansion_fit(model, p, cp, evaluator=ev)
                    except FriedrichsError as exc:
                        fit = exc
                if isinstance(fit, FriedrichsError):
                    raise fit
                row.update(tau0_fit=fit.tau0_fit, tau0_closed=fit.tau0_closed)
            if "oracle" in outputs:
                row["oracle_root"] = secular_root(model, p, mu, oracle_n)
        except FriedrichsError as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def _sample_path(waypoints, samples):
    """samples points per segment, endpoints included once (p-major order)."""
    pts = [np.asarray(waypoints[0], dtype=float)]
    for a, b in zip(waypoints, waypoints[1:]):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        for t in np.linspace(0.0, 1.0, samples)[1:]:
            pts.append(a + t * (b - a))
    return pts


def _threads():
    """Sweep worker count: FRIEDRICHS_THREADS, else 4, capped at the CPU
    count, beyond which CPU-bound fibres add memory but no throughput."""
    text = os.environ.get("FRIEDRICHS_THREADS")
    if text and (not text.strip().isdecimal() or int(text) < 1):
        raise ConfigError("FRIEDRICHS_THREADS must be an integer >= 1, got %r"
                          % text)
    return min(int(text) if text else 4, os.cpu_count() or 1)


def cmd_sweep(args, model, spec, metadata):
    if not args.out:
        raise ConfigError("sweep requires --out DIR")
    outputs = [o.strip() for o in args.outputs.split(",") if o.strip()]
    if not outputs:
        raise ConfigError("at least one output must be requested")
    for o in outputs:
        if o not in SWEEP_OUTPUTS:
            raise ConfigError("unknown output %r (choose from %s)"
                              % (o, ", ".join(SWEEP_OUTPUTS)))
    if "oracle" in outputs:
        check_lattice_size(args.oracle_n)
    mu_specs = [_parse_mu_spec(s) for s in args.mu.split(",") if s.strip()]
    if not mu_specs:
        raise ConfigError("at least one mu value must be requested")

    if args.p_grid:
        if args.p_grid < 1:
            raise ConfigError("p-grid size must be >= 1, got %d" % args.p_grid)
        ax = grid_axis(args.p_grid)
        points = [np.array([a, b, c]) for a in ax for b in ax for c in ax]
        path_desc = {"p_grid": args.p_grid}
    else:
        if not args.path:
            raise ConfigError("sweep requires --path or --p-grid")
        waypoints = _parse_path(args.path)
        least = 2 if len(waypoints) > 1 else 1  # a segment has two ends
        if args.samples < least:
            raise ConfigError("a path of %d waypoint(s) needs --samples >= %d"
                              % (len(waypoints), least))
        points = _sample_path(waypoints, args.samples)
        path_desc = {"path": waypoints, "samples": args.samples}
    _check_finite(path_desc)  # the manifest records it: refused before a fibre

    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        groups = list(pool.map(
            lambda p: _sweep_point(model, spec, p, mu_specs, outputs,
                                   args.oracle_n), points))

    columns = _sweep_columns(outputs)
    rows = [row for group in groups for row in group]
    n_ok = sum(not row["error"] for row in rows)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    _write_csv(csv_path, columns, ([row.get(c) for c in columns]
                                   for row in rows))
    manifest = {
        "csv": "sweep.csv",
        "columns": columns,
        "outputs": outputs,
        "mu_specs": [("x" if k == "multiple" else "") + "%.17g" % v
                     for k, v in mu_specs],
        "rows": len(rows),
        "rows_succeeded": n_ok,
        **path_desc,
        **metadata,
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        fh.write(_json(manifest) + "\n")
    print(_json({"csv": csv_path, "rows": len(rows), "rows_succeeded": n_ok}))
    return 0 if n_ok >= 1 else 2


# -- entry point ----------------------------------------------------------


def build_parser():
    parser = _Parser(prog="friedrichs",
                     description="Band-edge thresholds, bound states and "
                                 "threshold classification on the 3-torus.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="model config JSON path "
                        "(default: builtin two_particle, phi = 1)")
    common.add_argument("--out", help="output directory for artifacts")
    common.add_argument("--grid", type=int,
                        help="far-field torus grid per axis of the split "
                        "quadrature (default 64; unused by two_particle "
                        "fibres, which take the exact route)")
    common.add_argument("--tol", type=float,
                        help="relative tolerance that bounds the error of "
                        "Omega")
    point = argparse.ArgumentParser(add_help=False, parents=[common])
    point.add_argument("--p", default="0,0,0")

    sp = subs.add_parser("threshold", parents=[point],
                         help="q0, band edges and mu(p)")
    sp.set_defaults(func=cmd_threshold)

    sp = subs.add_parser("eigenvalue", parents=[point],
                         help="bound-state report at (mu, p)")
    sp.add_argument("--mu", default="x2",
                    help="coupling: absolute value or xR for R*mu(p)")
    sp.set_defaults(func=cmd_eigenvalue)

    sp = subs.add_parser("classify", parents=[point],
                         help="threshold classification")
    sp.add_argument("--mu", default="x1",
                    help="default x1 means exactly the computed mu(p)")
    sp.set_defaults(func=cmd_classify)

    sp = subs.add_parser("expansion", parents=[point],
                         help="square-root edge expansion fit")
    sp.set_defaults(func=cmd_expansion)

    sp = subs.add_parser("oracle", parents=[point],
                         help="finite-lattice cross-checks")
    sp.add_argument("--mu", default="x2")
    sp.add_argument("--N", default="16,32,64")
    sp.add_argument("--dense", type=int, default=0,
                    help="also run the dense eigensolver at this N (<= 12)")
    sp.set_defaults(func=cmd_oracle)

    sp = subs.add_parser("sweep", parents=[common],
                         help="(p, mu) sweep to CSV + manifest")
    sp.add_argument("--path", default="",
                    help="waypoints 'x,y,z:x,y,z[:...]'")
    sp.add_argument("--samples", type=int, default=9,
                    help="samples per path segment")
    sp.add_argument("--p-grid", dest="p_grid", type=int, default=0,
                    help="alternative: uniform p-grid size per axis")
    sp.add_argument("--mu", default="x0.5,x1,x2",
                    help="comma list of couplings (absolute or multiples)")
    sp.add_argument("--outputs", default="threshold,eigenvalue,classify")
    sp.add_argument("--oracle-n", dest="oracle_n", type=int, default=64)
    sp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        cfg, model, spec = _load(args)
        metadata = _metadata(cfg, spec)
        if args.func is cmd_sweep:
            return cmd_sweep(args, model, spec, metadata)
        payload = args.func(args, model, spec, _parse_point(args.p))
        _emit(dict(payload, metadata=metadata), args,
              args.command + ".json")
        return 0
    except ModelValidityError as exc:
        print("friedrichs: %s" % exc, file=sys.stderr)
        return 2
    except (FriedrichsError, OSError) as exc:
        print("friedrichs: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
