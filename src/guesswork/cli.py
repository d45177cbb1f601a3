"""guessctl: command-line reports, figure data, and exact-vs-asymptotic tables.

Subcommands: analyze (exponent report for all three sources), fig1
(guessing-difficulty gap curves over a p0 grid), fig2 (the three
-x - rate(x) curves), exact-compare (finite-k oracle vs asymptotic targets
with a shrinking-gap verdict), census (typical-set inventories).

Output is deterministic: CSV with '#' metadata comments for curves and
tables, JSON for reports. Every float guessctl prints, in a CSV cell, a '#'
line, a series label or a stderr message, is `_fmt(x)`: '%#.9g', always
9 significant digits with trailing zeros kept, positional when the rounded
value lies in [1e-4, 1e9) and with an exponent outside it; "inf", "-inf"
and "nan" are the out-of-domain sentinels. A JSON number is the float its
cell shows. Exit codes: 0 success, 1 validation failure, 2 resource-guard
refusal, 3 exact-compare trend failure or naive cross-check mismatch.

The argparse tree is built once per process, by the first `main()` call,
and reused; `build_parser()` still builds a new one on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain

import numpy as np

from .asymptotics import (
    ScgfModel,
    Source,
    SourceKind,
    _scgf_models,
    alphas_or_default,
    binary_closed_forms,
    conditioned,
    legendre_transforms,
    scgf_model,
    unconditioned,
    uniform_typical,
)
from .entropy import MAX_TYPES_DEFAULT, LetterDistribution, _checked_epsilon, shannon_entropy
from .errors import (
    DistributionError,
    EmptyTypicalSetError,
    EpsilonInadmissibleError,
    GridTooLargeError,
    GuessworkError,
    TypeSpaceTooLargeError,
    WordSpaceTooLargeError,
)
from .oracle import (
    SERIES_QUANTITIES,
    convergence_points,
    finite_k_exponents,
    naive_enumeration_crosscheck,
    nonempty_scan_limit,
    smallest_nonempty_k,
    trend_holds,
    typical_set_census,
)
from .tilting import BoundaryTypes, require_admissible_epsilon

_KIND_NAMES = tuple(kind.value for kind in SourceKind)

# Most grid points one fig2 request may ask for: a larger --x-points is a
# resource-guard refusal (exit 2), made before the grid is allocated.
MAX_X_POINTS = 1_000_000


def _fmt(x: float) -> str:
    """The CLI's one number format: '%#.9g'.

    Always 9 significant digits, trailing zeros kept (0.825 prints as
    0.825000000). Positional when the value rounded to 9 digits lies in
    [1e-4, 1e9), a trailing point kept from 1e8 up (123456789.); an
    exponent outside that range (2.5e-7 prints as 2.50000000e-07, 1e308 as
    1.00000000e+308). -0.0 prints as 0.00000000. The format is idempotent:
    _fmt(float(_fmt(x))) == _fmt(x).
    """
    return "%#.9g" % (float(x) + 0.0)


def _json_value(cell: str):
    """A printed float as JSON: the number the cell shows; JSON has no inf
    or nan literal, so those stay the cell's string."""
    x = float(cell)
    return x if math.isfinite(x) else cell


def _jnum(x: float | None):
    return None if x is None else _json_value(_fmt(x))


def _jvec(values) -> list:
    return [_jnum(v) for v in values]


def _parse_probs(text: str) -> LetterDistribution:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise DistributionError(f"could not parse probabilities from {text!r}")
    if not all(map(math.isfinite, values)):
        raise DistributionError(f"probabilities must be finite, got {text!r}")
    if len(values) < 2:
        raise DistributionError("need at least two comma-separated probabilities")
    total = math.fsum(values)
    if abs(total - 1.0) > 1e-6:
        raise DistributionError(
            f"probabilities sum to {total!r}; renormalization only within 1e-6 of 1"
        )
    return LetterDistribution(tuple(v / total for v in values))


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise DistributionError(f"could not parse numbers from {text!r}")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise DistributionError(f"could not parse integers from {text!r}")


def _fmt_column(values) -> list[str]:
    """CSV cells of one column: a float as `_fmt` prints it, None empty, anything else as str."""
    return ["" if v is None else _fmt(v) if isinstance(v, float) else str(v) for v in values]


def _table(args, meta, header: str, rows, *, payload=None, footer=()) -> str:
    """Render rows in the requested format.

    CSV is the '#' meta lines, the header, one line per row and the footer
    lines, every cell as `_fmt_column` prints it. The body is one '%' over
    a row template repeated once per row: a column of floats only is a
    '%#.9g' slot fed v + 0.0 (which prints -0.0 as 0, as `_fmt` does), any
    other column a '%s' slot fed its `_fmt_column` cells. JSON is `payload`
    (default {"rows": None}) with "rows" set to one object per row keyed by
    the header's names, in payload's key order.
    """
    columns = list(zip(*rows))
    if args.format == "json":
        names = header.split(",")
        values = [
            [_json_value(c) if isinstance(v, float) else v for v, c in zip(col, _fmt_column(col))]
            for col in columns
        ]
        payload = dict(payload or {"rows": None})
        payload["rows"] = [dict(zip(names, row)) for row in zip(*values)]
        return json.dumps(payload, indent=2) + "\n"
    slots, feeds = [], []
    for col in columns:
        if all(issubclass(t, float) for t in set(map(type, col))):
            slots.append("%#.9g")
            feeds.append([v + 0.0 for v in col])
        else:
            slots.append("%s")
            feeds.append(_fmt_column(col))
    text = "".join(line + "\n" for line in [*meta, header])
    if columns:
        row = ",".join(slots) + "\n"
        text += row * len(columns[0]) % tuple(chain.from_iterable(zip(*feeds)))
    return text + "".join(line + "\n" for line in footer)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _make_source(kind: str, p: LetterDistribution, epsilon: float | None) -> Source:
    if kind == SourceKind.UNCONDITIONED.value:
        return unconditioned(p)
    if epsilon is None:
        raise DistributionError(f"--epsilon is required for kind={kind}")
    return Source(SourceKind(kind), p, epsilon)


def _kind_report(model: ScgfModel) -> dict:
    exps = model.exponents()
    report = {
        "moment_rate": _jnum(exps.moment_rate),
        "mean_log_rate": _jnum(exps.mean_log_rate),
        "modal_decay": _jnum(model.modal_decay),
        "plateau_width": _jnum(model.plateau_width),
        "max_slope": _jnum(model.max_slope),
        "tail_intercept": _jnum(model.tail_intercept),
    }
    if model.source.kind is SourceKind.CONDITIONED:
        report["window_excess"] = _jnum(exps.window_excess)
        lo, hi = model.breakpoints
        report["breakpoints"] = {
            "alpha_low": _jnum(lo),
            "alpha_high": _jnum(hi),
        }
    return report


def _models(p: LetterDistribution, epsilon: float) -> dict[str, ScgfModel]:
    """The three sources' SCGF models on the law's one tilted family, keyed by _KIND_NAMES."""
    sources = (unconditioned(p), conditioned(p, epsilon), uniform_typical(p, epsilon))
    return dict(zip(_KIND_NAMES, _scgf_models(sources)))


def cmd_analyze(args) -> tuple[str, int]:
    p = _parse_probs(args.p)
    epsilon = args.epsilon
    require_admissible_epsilon(p, epsilon)
    models = _models(p, epsilon)
    # the boundary types are the conditioned model's clamp window, read as types
    cond = models["conditioned"]
    bnd = BoundaryTypes.of(cond.family, cond.window)
    report = {
        "p": _jvec(p.probs),
        "epsilon": _jnum(epsilon),
        "entropy": _jnum(shannon_entropy(p)),
        "boundary": {
            "l_minus": _jvec(bnd.l_minus.freqs),
            "l_plus": _jvec(bnd.l_plus.freqs),
            "exists_minus": bnd.exists_minus,
            "exists_plus": bnd.exists_plus,
            "clamped_to_log_m": bnd.clamped_to_log_m,
            "entropy_minus": _jnum(bnd.entropy_minus),
            "entropy_plus": _jnum(bnd.entropy_plus),
        },
    }
    for name, model in models.items():
        report[name] = _kind_report(model)
    if args.format == "csv":
        return _table(args, ["# analyze report"], "key,value", list(_flatten(report))), 0
    return json.dumps(report, indent=2) + "\n", 0


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}{key}." if prefix else f"{key}.")
        return
    if isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}{i}.")
        return
    yield prefix[:-1], obj


_FIG1_DEFAULT_GRID = tuple((525 + 25 * i) / 1000 for i in range(19))


def cmd_fig1(args) -> tuple[str, int]:
    epsilon = _checked_epsilon(args.epsilon)
    grid = _parse_floats(args.p0_grid) if args.p0_grid else _FIG1_DEFAULT_GRID
    rows = []
    for p0 in grid:
        try:
            rep = binary_closed_forms(p0, epsilon)
        except (EpsilonInadmissibleError, DistributionError):
            rows.append((p0, None, None, None, "epsilon_inadmissible"))
            continue
        rows.append((p0, rep.top, rep.middle, rep.bottom, ""))
    meta = [
        f"# fig1: growth-rate gaps (uniform-vs-mean-log, uniform-vs-conditioned-moment,"
        f" uniform-vs-unconditioned-moment) at epsilon={_fmt(epsilon)}",
    ]
    payload = {"epsilon": _jnum(epsilon), "rows": None}
    return _table(args, meta, "p0,top,middle,bottom,flag", rows, payload=payload), 0


def cmd_fig2(args) -> tuple[str, int]:
    if args.x_points < 0:
        raise DistributionError(f"--x-points must be non-negative, got {args.x_points}")
    if args.x_points > MAX_X_POINTS:
        raise GridTooLargeError(
            f"fig2 grid too large: {args.x_points} x-points exceeds the cap {MAX_X_POINTS}"
        )
    p = _parse_probs(args.p)
    epsilon = args.epsilon
    require_admissible_epsilon(p, epsilon)
    models = list(_models(p, epsilon).values())
    xs = np.linspace(0.0, math.log(p.m), args.x_points)
    # outside a source's domain the curve is reported as "inf"
    curves = [np.where(np.isinf(rate), math.inf, -xs - rate).tolist()
              for rate in legendre_transforms(models, xs)]
    rows = zip(xs.tolist(), *curves)
    meta = [
        f"# fig2: -x - rate(x) per source at p={args.p} epsilon={_fmt(epsilon)}",
        "# modal_decay: " + " ".join(
            f"{n}={_fmt(m.modal_decay)}" for n, m in zip(_KIND_NAMES, models)
        ),
        "# plateau_width: " + " ".join(
            f"{n}={_fmt(m.plateau_width)}" for n, m in zip(_KIND_NAMES, models)
        ),
    ]
    payload = {
        "modal_decay": {n: _jnum(m.modal_decay) for n, m in zip(_KIND_NAMES, models)},
        "plateau_width": {n: _jnum(m.plateau_width) for n, m in zip(_KIND_NAMES, models)},
        "rows": None,
    }
    return _table(args, meta, "x," + ",".join(_KIND_NAMES), rows, payload=payload), 0


def cmd_exact_compare(args) -> tuple[str, int]:
    p = _parse_probs(args.p)
    source = _make_source(args.kind, p, args.epsilon)
    ks = _parse_ints(args.k)
    if not ks:
        raise DistributionError("--k must list at least one word length")
    alphas = _parse_floats(args.alpha) if args.alpha else alphas_or_default(None)
    typical = source.kind is not SourceKind.UNCONDITIONED

    # one exact table per distinct k serves every series; None marks an empty typical set
    exps = {}
    for k in dict.fromkeys(ks):
        try:
            exps[k] = finite_k_exponents(source, k, alphas=alphas, max_types=args.max_types)
        except EmptyTypicalSetError:
            exps[k] = None
    # trends are judged over the distinct ks in first-seen order; rows list every k
    valid_ks = [k for k in exps if exps[k] is not None]
    model = scgf_model(source)

    series = [("scgf", a) for a in alphas]
    series += [(q, None) for q in SERIES_QUANTITIES[1:] if typical or q != "typical_size"]

    meta = [f"# exact-compare kind={args.kind} p={args.p}"
            + (f" epsilon={_fmt(source.epsilon)}" if typical else "")]
    rows = []
    trends: dict[str, bool] = {}
    for qty, a in series:
        label = f"scgf[alpha={_fmt(a)}]" if qty == "scgf" else qty
        points = convergence_points(
            [exps[k] for k in valid_ks], model, qty, 1.0 if a is None else a
        )
        by_k = {pt.k: pt for pt in points}
        for k in ks:
            if k in by_k:
                pt = by_k[k]
                rows.append((label, k, a, pt.value, pt.target, pt.gap, ""))
            else:
                rows.append((label, k, a, None, None, None, "empty_typical_set"))
        trends[label] = trend_holds(points)

    checks = []
    if args.max_words:
        for k in valid_ks:
            if p.m**k <= args.max_words:
                ok = naive_enumeration_crosscheck(
                    source, k, alphas=tuple(alphas),
                    max_words=args.max_words, max_types=args.max_types,
                )
                checks.append((k, ok))

    payload = {
        "rows": None,
        "trends": trends,
        "crosschecks": [{"k": k, "ok": ok} for k, ok in checks],
    }
    footer = [f"# crosscheck:k={k}:{'ok' if ok else 'MISMATCH'}" for k, ok in checks]
    footer += [f"# trend:{label}:{'pass' if ok else 'FAIL'}" for label, ok in trends.items()]
    text = _table(args, meta, "series,k,alpha,exact,target,gap,flag", rows,
                  payload=payload, footer=footer)
    verdicts = [*trends.values(), *(ok for _, ok in checks)]
    return text, 0 if all(verdicts) else 3


def cmd_census(args) -> tuple[str, int]:
    p = _parse_probs(args.p)
    epsilon = _checked_epsilon(args.epsilon)
    ks = _parse_ints(args.k)
    if not ks:
        raise DistributionError("--k must list at least one word length")
    rows = []
    any_empty = False
    for k in ks:
        census = typical_set_census(p, epsilon, k, max_types=args.max_types)
        if census.is_empty:
            any_empty = True
            rows.append((k, 0, 0, None, None, "empty"))
        else:
            rows.append((
                k, len(census.counts), census.cardinality,
                census.log_cardinality / k, census.prob_mass, "",
            ))
    meta = [f"# census p={args.p} epsilon={_fmt(epsilon)}"]
    payload = None
    if any_empty:
        first = smallest_nonempty_k(p, epsilon, max_types=args.max_types)
        if first is None:
            first_text = f"none <= {nonempty_scan_limit(p.m, args.max_types)}"
        else:
            first_text = str(first)
        meta.append(f"# smallest nonempty k: {first_text}")
        payload = {"rows": None, "smallest_nonempty_k": first}
    header = "k,num_types,cardinality,size_rate,prob_mass,flag"
    return _table(args, meta, header, rows, payload=payload), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guessctl",
        description="Guesswork asymptotics of i.i.d., conditioned, and "
        "uniform-on-typical-set word sources, with exact finite-k oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, p=True, eps_required=True, max_types=False):
        if p:
            sp.add_argument("--p", required=True,
                            help="comma-separated letter probabilities, e.g. 0.8,0.2")
        sp.add_argument("--epsilon", type=float, required=eps_required,
                        help="typical-set half width (nats)")
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        sp.add_argument("--out", default=None, help="write output to this path")
        if max_types:
            sp.add_argument("--max-types", type=int, default=MAX_TYPES_DEFAULT, dest="max_types",
                            help="cap on the k-types enumerated per word length")

    sp = sub.add_parser("analyze", help="exponent report for all three sources")
    common(sp)
    sp.set_defaults(func=cmd_analyze, default_format="json")

    sp = sub.add_parser("fig1", help="growth-rate gap curves over a p0 grid")
    common(sp, p=False)
    sp.add_argument("--p0-grid", default=None, dest="p0_grid",
                    help="comma-separated p0 values (default 0.525..0.975 step 0.025)")
    sp.set_defaults(func=cmd_fig1, default_format="csv")

    sp = sub.add_parser("fig2", help="-x - rate(x) curves for the three sources")
    common(sp)
    sp.add_argument("--x-points", type=int, default=400, dest="x_points",
                    help="number of grid points on [0, log m]")
    sp.set_defaults(func=cmd_fig2, default_format="csv")

    sp = sub.add_parser("exact-compare",
                        help="finite-k oracle values vs asymptotic targets")
    common(sp, eps_required=False, max_types=True)
    sp.add_argument("--kind", choices=_KIND_NAMES, default="conditioned")
    sp.add_argument("--k", required=True, help="comma-separated word lengths")
    sp.add_argument("--alpha", default=None,
                    help='comma-separated moment orders; use --alpha="-0.5,1" '
                    "for negative values (default -0.5,0.5,1,2)")
    sp.add_argument("--max-words", type=int, default=0, dest="max_words",
                    help="if > 0, cross-check ks with m^k <= this against the "
                    "naive word-enumeration oracle")
    sp.set_defaults(func=cmd_exact_compare, default_format="csv")

    sp = sub.add_parser("census", help="typical-set inventory at given lengths")
    common(sp, max_types=True)
    sp.add_argument("--k", required=True, help="comma-separated word lengths")
    sp.set_defaults(func=cmd_census, default_format="csv")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built by the first call, reused for the life of the process.

    parse_args leaves a parser as it found it (each call fills a new
    namespace), so one tree serves every request alike.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        text, code = args.func(args)
        _emit(args, text)
    except (TypeSpaceTooLargeError, WordSpaceTooLargeError, GridTooLargeError) as exc:
        print(f"guessctl: resource guard: {exc}", file=sys.stderr)
        return 2
    except EpsilonInadmissibleError as exc:
        lo, hi = exc.interval
        print(
            f"guessctl: error: epsilon inadmissible; admissible interval "
            f"({_fmt(lo)}, {_fmt(hi)})",
            file=sys.stderr,
        )
        return 1
    except (GuessworkError, ValueError, OSError) as exc:
        print(f"guessctl: error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
