"""Command-line front end: subcommands, config files, JSON and CSV reports.

Every JSON report embeds the tool version, the sha256 of the input
polynomial, the fully resolved configuration and the wall time.  With fixed
config and seeds, reruns are byte-identical except for the wall_time_s
field.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import __version__

_FLAG_EXIT = 1
_USAGE_EXIT = 2


def _jsonable(obj, flags):
    """obj as JSON data; adds every ``flags`` list in it to the set flags."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj), flags)
    if isinstance(obj, dict):
        flags.update(obj.get("flags", ()))
        return {str(k): _jsonable(v, flags) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, flags) for v in obj]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if type(obj).__module__ == "numpy":     # an array or a scalar
        return _jsonable(obj.tolist(), flags)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def _load_poly(path):
    from .poly import load_polynomial
    try:
        return load_polynomial(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read polynomial: {exc}") from None


def _emit(args, command, poly, config, result, t0):
    """Write the report of ``result``; exit code 1 when it raised a flag."""
    config = {k: v for k, v in config.items()
              if k not in ("func", "output")}
    flags = set()
    report = {
        "tool": "circlekit",
        "version": __version__,
        "command": command,
        "poly_sha256": poly.sha256() if poly is not None else None,
        "config": _jsonable(config, set()),
        "result": _jsonable(result, flags),
        "flags": sorted(flags),
        "wall_time_s": round(time.monotonic() - t0, 6),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return _FLAG_EXIT if flags else 0


def _spec_from(args):
    from .arch import QuadratureSpec
    return QuadratureSpec(box_points=args.box_points, eta_L=args.eta_L,
                          eps=args.eps, seed=args.seed)


# -- subcommand handlers ----------------------------------------------------
# each imports the modules it runs, so a job loads nothing else

def _cmd_predict(args, t0):
    from .count import predict
    b = _load_poly(args.poly)
    rep = predict(b, args.N, prime_bound=args.prime_bound, t_max=args.tmax,
                  spec=_spec_from(args), ground_truth=args.ground_truth,
                  strategy=args.strategy, split=args.split)
    return _emit(args, "predict", b, vars(args), rep, t0)


def _cmd_count(args, t0):
    from .count import MangoldtTable, count_direct, count_mitm, mangoldt_table
    b = _load_poly(args.poly)
    count = (partial(count_mitm, split=args.split)
             if args.strategy == "mitm" else count_direct)
    table = mangoldt_table(args.N)
    out = res = count(b, args.N, table)
    if args.primes_only:
        # the same count with the higher prime powers weighing 0
        first = [p == k for k, p in enumerate(table.base)]
        only = count(b, args.N, MangoldtTable(
            args.N, [v if f else 0.0 for v, f in zip(table.values, first)],
            [p if f else 0 for p, f in zip(table.base, first)]))
        out = {"full": res, "primes_only_value": only.value,
               "primes_only_solutions": only.solution_count,
               "note": "primes-only restricts the standard weighted count "
                       "to first powers"}
    return _emit(args, "count", b, vars(args), out, t0)


def _cmd_local(args, t0):
    from .local import mu_p
    b = _load_poly(args.poly)
    factor = mu_p(b, args.p, t_max=args.tmax)
    return _emit(args, "local", b, vars(args), factor, t0)


def _cmd_series(args, t0):
    from .local import singular_series
    b = _load_poly(args.poly)
    series, factors = singular_series(b, args.prime_bound, t_max=args.tmax)
    return _emit(args, "series", b, vars(args),
                 {"series": series, "factors": factors}, t0)


def _cmd_sigma_inf(args, t0):
    from .arch import sigma_infinity
    b = _load_poly(args.poly)
    mu, meas = sigma_infinity(b.top_degree_part(), _spec_from(args))
    return _emit(args, "sigma-inf", b, vars(args),
                 {"quadrature": mu, "measure": meas}, t0)


def _cmd_arcs(args, t0):
    from .arcs import build_arcs
    dis = build_arcs(args.N, args.C, args.d)
    result = {"N": dis.N, "C": dis.C, "d": dis.d,
              "radius": dis.radius(),
              "total_measure": dis.total_measure,
              "centers": [{"m": f.m, "q": f.q} for f, _ in dis.arcs]}
    return _emit(args, "arcs", None, vars(args), result, t0)


def _cmd_weyl_scan(args, t0):
    from .arcs import T_scan, classify_alpha
    from .count import mangoldt_table
    b = _load_poly(args.poly)
    table = mangoldt_table(args.N)
    rows = ["alpha,re_T,im_T,abs_T,classification"]
    for k, v in enumerate(T_scan(b, args.points, args.N, table)):
        a = k / args.points
        cls = classify_alpha(a, args.N, b.degree, args.Delta)
        tag = "minor" if cls == "minor" else f"{cls[1]}/{cls[0]}"
        rows.append(f"{a},{v.real!r},{v.imag!r},{abs(v)!r},{tag}")
    text = "\n".join(rows) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_zcount(args, t0):
    from .arcs import estimate_gd, z_count
    b = _load_poly(args.poly)
    form = b.top_degree_part()
    Rs = sorted(args.R)
    if len(Rs) >= 3:
        result = estimate_gd(form, form.degree, Rs)
    else:
        result = {"R_values": Rs,
                  "z_counts": [z_count(form, form.degree, R) for R in Rs]}
    return _emit(args, "zcount", b, vars(args), result, t0)


def _cmd_hinv(args, t0):
    from .hinv import quadratic_h
    b = _load_poly(args.poly)
    data = quadratic_h(b.top_degree_part())
    return _emit(args, "hinv", b, vars(args), data, t0)


def _parse_decomposition(path, target):
    """Decomposition file: polynomial blocks separated by lines of dashes,
    in the order U_1, V_1, U_2, V_2, ..."""
    from .hinv import Decomposition
    from .poly import parse_polynomial
    blocks = [blk.strip() for blk in Path(path).read_text().split("---")
              if blk.strip()]
    if len(blocks) % 2:
        raise SystemExit("error: decomposition file needs U/V block pairs")
    polys = [parse_polynomial(blk) for blk in blocks]
    pairs = [(polys[i], polys[i + 1]) for i in range(0, len(polys), 2)]
    return Decomposition(target=target, pairs=pairs)


def _cmd_gm_split(args, t0):
    from .hinv import build_gm_fm
    b = _load_poly(args.poly)
    dec = _parse_decomposition(args.dec, b.top_degree_part())
    g_M, f_M = build_gm_fm(dec.target, dec, args.M)
    result = {"M": args.M, "g_M": g_M.to_text(), "f_M": f_M.to_text()}
    return _emit(args, "gm-split", b, vars(args), result, t0)


def _cmd_regularity(args, t0):
    from .count import regularity_exponent
    system = [_load_poly(path) for path in args.poly]
    rep = regularity_exponent(system, args.N_list)
    return _emit(args, "regularity", system[0], vars(args), rep, t0)


# -- argument plumbing ------------------------------------------------------

def _add_common(sp, poly=True):
    if poly:
        sp.add_argument("--poly", required=True, help="polynomial text file")
    sp.add_argument("--output", help="report path (default: stdout)")
    sp.add_argument("--config", help="key=value config file; flags win")


def _add_quadrature(sp):
    sp.add_argument("--box-points", dest="box_points", type=int,
                    default=1 << 20)
    sp.add_argument("--eta-L", dest="eta_L", type=float, default=16.0)
    sp.add_argument("--eps", type=float, default=0.01)
    sp.add_argument("--seed", type=int, default=7)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="circlekit",
        description="desk-scale circle-method computations")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("predict", help="main-term prediction vs ground truth")
    _add_common(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--prime-bound", dest="prime_bound", type=int, default=100)
    sp.add_argument("--tmax", type=int, default=6)
    _add_quadrature(sp)
    sp.add_argument("--ground-truth", action="store_true")
    sp.add_argument("--strategy", choices=["direct", "mitm"],
                    default="direct")
    sp.add_argument("--split", type=int)
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("count", help="exact weighted count M_b(N)")
    _add_common(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--strategy", choices=["direct", "mitm"],
                    default="direct")
    sp.add_argument("--split", type=int)
    sp.add_argument("--primes-only", action="store_true",
                    help="also report the count restricted to first "
                    "prime powers")
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("local", help="one local factor mu(p)")
    _add_common(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--tmax", type=int, default=6)
    sp.set_defaults(func=_cmd_local)

    sp = sub.add_parser("series", help="truncated singular series")
    _add_common(sp)
    sp.add_argument("--prime-bound", dest="prime_bound", type=int,
                    default=100)
    sp.add_argument("--tmax", type=int, default=6)
    sp.set_defaults(func=_cmd_series)

    sp = sub.add_parser("sigma-inf", help="singular integral estimates")
    _add_common(sp)
    _add_quadrature(sp)
    sp.set_defaults(func=_cmd_sigma_inf)

    sp = sub.add_parser("arcs", help="major-arc dissection")
    _add_common(sp, poly=False)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--C", type=float, default=1.0)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(func=_cmd_arcs)

    sp = sub.add_parser("weyl-scan",
                        help="CSV sweep of T(b; alpha) over a frequency grid")
    _add_common(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--points", type=int, default=64)
    sp.add_argument("--Delta", type=float, default=0.5)
    sp.set_defaults(func=_cmd_weyl_scan)

    sp = sub.add_parser("zcount", help="degeneracy counts z_R / fitted g_d")
    _add_common(sp)
    sp.add_argument("--R", type=int, action="append", required=True,
                    help="box radius; repeat for a growth fit")
    sp.set_defaults(func=_cmd_zcount)

    sp = sub.add_parser("hinv", help="exact h for a quadratic form")
    _add_common(sp)
    sp.set_defaults(func=_cmd_hinv)

    sp = sub.add_parser("gm-split",
                        help="echelonized g_M/f_M split of a decomposition")
    _add_common(sp)
    sp.add_argument("--dec", required=True,
                    help="file of U/V polynomial blocks separated by ---")
    sp.add_argument("--M", type=int, required=True)
    sp.set_defaults(func=_cmd_gm_split)

    sp = sub.add_parser("regularity", help="growth exponent of a system")
    _add_common(sp, poly=False)
    sp.add_argument("--poly", action="append", required=True)
    sp.add_argument("--N-list", dest="N_list", type=int, action="append",
                    required=True)
    sp.set_defaults(func=_cmd_regularity)
    return ap


def _config_argv(args):
    """Flags for the key=value lines of the config file, for the parser to
    type and check; the command line's own flags follow them and win."""
    extra = []
    for line in Path(args.config).read_text().splitlines():
        key, eq, val = (s.strip() for s in line.split("#")[0].partition("="))
        if key and not eq:
            raise SystemExit(f"error: bad config line: {line}")
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or isinstance(getattr(args, attr), list):
            continue    # blank, not an option here, or a list already given
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, attr), bool):
            extra += [flag] * (val.lower() in ("1", "true", "yes"))
        else:
            extra.append(f"{flag}={val}")
    return extra


def main(argv=None):
    t0 = time.monotonic()
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)      # --version, --help and usage errors exit
    from .poly import BudgetExceeded    # every subcommand loads poly
    try:
        if getattr(args, "config", None):
            args = ap.parse_args(argv[:1] + _config_argv(args) + argv[1:])
        return args.func(args, t0)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return _USAGE_EXIT
        raise
    except (ValueError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
