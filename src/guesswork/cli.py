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

Import rule: this module's top imports the standard library and the
package's one numpy-free module, `entropy` (which also holds the
exception types), so building the parser, `--help` and fig1, whose
engine is `entropy.binary_closed_forms`, load no numpy. `json` is imported
only by the two branches that write JSON output (`_table`'s and
`cmd_analyze`'s), so the parser and CSV output never load it. Each
numeric module is imported where it runs: `asymptotics` by `_sources`
and `_models` (fig2, analyze) and by `cmd_fig2` and `cmd_exact_compare`,
`tilting` by `cmd_analyze`, numpy by `cmd_fig2`, and the exact finite-k
oracle by `cmd_exact_compare` and `cmd_census` alone, so fig1, fig2 and
analyze never load `oracle`. The handlers write `import
guesswork.oracle as oracle`, which after the first call is a `sys.modules`
lookup in C; `from .oracle import ...` would also run importlib's
Python-level fromlist handling on every call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .entropy import (
    MAX_TYPES_DEFAULT,
    DistributionError,
    EpsilonInadmissibleError,
    GridTooLargeError,
    GuessworkError,
    LetterDistribution,
    SourceKind,
    TypeSpaceTooLargeError,
    WordSpaceTooLargeError,
    _checked_epsilon,
    binary_closed_forms,
    require_admissible_epsilon,
)

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


def _parse_list(text: str, convert, what: str) -> tuple:
    """guessctl's one list rule: the nonempty comma-separated items of text, each converted.

    A list with no items (say "", "," or " , ") is refused.
    """
    try:
        values = tuple(convert(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise DistributionError(f"could not parse {what} from {text!r}")
    if not values:
        raise DistributionError(f"need one or more comma-separated {what}, got {text!r}")
    return values


def _parse_probs(text: str) -> LetterDistribution:
    values = _parse_list(text, float, "probabilities")
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


def _fmt_column(values) -> list[str]:
    """CSV cells of one column: a float as `_fmt` prints it, None empty, anything else as str."""
    return ["" if v is None else _fmt(v) if isinstance(v, float) else str(v) for v in values]


def _table(args, meta, header: str, columns, *, payload=None, footer=()) -> str:
    """Render columns, one per name of the header, in the requested format.

    A column is a sequence of cells or a float64 numpy array, all of one
    length. CSV is the '#' meta lines, the header, one line per row and the
    footer lines, every cell as `_fmt_column` prints it. The body is one '%'
    over a row template repeated once per row: a numpy column is a '%#.9g'
    slot fed (col + 0.0).tolist(), a column of floats only one fed v + 0.0
    (either prints -0.0 as 0, as `_fmt` does), any other column a '%s' slot
    fed its `_fmt_column` cells. JSON is `payload` (default {"rows": None})
    with "rows" set to one object per row keyed by the header's names, in
    payload's key order.
    """
    if args.format == "json":
        import json

        names = header.split(",")
        values = []
        for col in columns:
            col = col.tolist() if hasattr(col, "dtype") else col
            values.append([_json_value(c) if isinstance(v, float) else v
                           for v, c in zip(col, _fmt_column(col))])
        payload = dict(payload or {"rows": None})
        payload["rows"] = [dict(zip(names, row)) for row in zip(*values)]
        return json.dumps(payload, indent=2) + "\n"
    slots, feeds = [], []
    for col in columns:
        if hasattr(col, "dtype"):  # a float64 numpy array
            slots.append("%#.9g")
            feeds.append((col + 0.0).tolist())
        elif all(issubclass(t, float) for t in set(map(type, col))):
            slots.append("%#.9g")
            feeds.append([v + 0.0 for v in col])
        else:
            slots.append("%s")
            feeds.append(_fmt_column(col))
    text = "".join(line + "\n" for line in [*meta, header])
    if feeds:
        # the cells row by row: column j at every len(feeds)-th place from j
        cells = [None] * (len(feeds) * len(feeds[0]))
        for j, feed in enumerate(feeds):
            cells[j :: len(feeds)] = feed
        text += (",".join(slots) + "\n") * len(feeds[0]) % tuple(cells)
    return text + "".join(line + "\n" for line in footer)


def _kind_report(model) -> dict:
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


def _sources(p: LetterDistribution, epsilon: float) -> tuple:
    """The three sources in _KIND_NAMES' order, once require_admissible_epsilon(p, epsilon)
    has passed."""
    import guesswork.asymptotics as asymptotics

    require_admissible_epsilon(p, epsilon)
    return (asymptotics.unconditioned(p), asymptotics.conditioned(p, epsilon),
            asymptotics.uniform_typical(p, epsilon))


def _models(p: LetterDistribution, epsilon: float) -> dict:
    """The three sources' SCGF models, keyed by _KIND_NAMES, on one tilted family."""
    import guesswork.asymptotics as asymptotics

    return dict(zip(_KIND_NAMES, asymptotics._scgf_models(_sources(p, epsilon))))


def cmd_analyze(args) -> tuple[str, int]:
    import guesswork.tilting as tilting

    p = _parse_probs(args.p)
    models = _models(p, args.epsilon)
    # the boundary types are the conditioned model's clamp window, read as types
    cond = models["conditioned"]
    bnd = tilting.BoundaryTypes.of(cond.family, cond.window)
    report = {
        "p": list(map(_jnum, p.probs)),
        "epsilon": _jnum(args.epsilon),
        "entropy": _jnum(cond.entropy_p),
        "boundary": {
            "l_minus": list(map(_jnum, bnd.l_minus.freqs)),
            "l_plus": list(map(_jnum, bnd.l_plus.freqs)),
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
        keys, values = zip(*_flatten(report))
        return _table(args, ["# analyze report"], "key,value", [keys, values]), 0
    import json

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
    grid = (_parse_list(args.p0_grid, float, "numbers") if args.p0_grid is not None
            else _FIG1_DEFAULT_GRID)
    reps = []  # each p0's report, or the flag that says why its row is empty
    for p0 in grid:
        try:
            reps.append(binary_closed_forms(p0, epsilon))
        except EpsilonInadmissibleError:
            reps.append("epsilon_inadmissible")
        except DistributionError:  # p0 outside (1/2, 1)
            reps.append("p0_out_of_range")
    columns = [grid, *([None if isinstance(rep, str) else getattr(rep, gap) for rep in reps]
                       for gap in ("top", "middle", "bottom")),
               [rep if isinstance(rep, str) else "" for rep in reps]]
    meta = [
        f"# fig1: growth-rate gaps (uniform-vs-mean-log, uniform-vs-conditioned-moment,"
        f" uniform-vs-unconditioned-moment) at epsilon={_fmt(epsilon)}",
    ]
    payload = {"epsilon": _jnum(epsilon), "rows": None}
    return _table(args, meta, "p0,top,middle,bottom,flag", columns, payload=payload), 0


def cmd_fig2(args) -> tuple[str, int]:
    import numpy as np

    import guesswork.asymptotics as asymptotics

    if args.x_points < 0:
        raise DistributionError(f"--x-points must be non-negative, got {args.x_points}")
    if args.x_points > MAX_X_POINTS:
        raise GridTooLargeError(
            f"fig2 grid too large: {args.x_points} x-points exceeds the cap {MAX_X_POINTS}"
        )
    p = _parse_probs(args.p)
    sources = _sources(p, args.epsilon)
    xs = np.linspace(0.0, math.log(p.m), args.x_points)
    # the three models and their Lambda* on the grid, from one Newton loop call
    models, rates = asymptotics._scgf_models(sources, xs)
    # outside a source's domain the curve is reported as "inf"
    columns = [xs, *(np.where(np.isinf(rate), math.inf, -xs - rate) for rate in rates)]
    meta = [
        f"# fig2: -x - rate(x) per source at p={args.p} epsilon={_fmt(args.epsilon)}",
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
    return _table(args, meta, "x," + ",".join(_KIND_NAMES), columns, payload=payload), 0


def _check_caps(args) -> None:
    """Refuse a negative --max-types or --max-words (exit 1); a cap of 0 keeps its meaning."""
    for dest in ("max_types", "max_words"):
        cap = getattr(args, dest, 0)
        if cap < 0:
            raise DistributionError(f"--{dest.replace('_', '-')} must be non-negative, got {cap}")


def cmd_exact_compare(args) -> tuple[str, int]:
    import guesswork.asymptotics as asymptotics
    import guesswork.oracle as oracle

    _check_caps(args)
    p = _parse_probs(args.p)
    typical = args.kind != SourceKind.UNCONDITIONED.value
    if typical and args.epsilon is None:
        raise DistributionError(f"--epsilon is required for kind={args.kind}")
    source = asymptotics.Source(SourceKind(args.kind), p, args.epsilon)
    ks = _parse_list(args.k, int, "integers")
    alphas = (_parse_list(args.alpha, float, "numbers") if args.alpha is not None
              else asymptotics.alphas_or_default(None))

    # one exact table per distinct k serves every series and cross-check, all
    # in one kernel pass; None marks an empty typical set
    exps, checks = oracle._finite_k_batch(source, ks, alphas, max_types=args.max_types,
                                          max_words=args.max_words)
    # trends are judged over the distinct ks in first-seen order; rows list every k
    valid_ks = [k for k in exps if exps[k] is not None]
    model = asymptotics.scgf_model(source)

    series = [("scgf", a) for a in alphas]
    series += [(q, None) for q in oracle.SERIES_QUANTITIES[1:] if typical or q != "typical_size"]

    meta = [f"# exact-compare kind={args.kind} p={args.p}"
            + (f" epsilon={_fmt(source.epsilon)}" if typical else "")]
    rows = []
    trends: dict[str, bool] = {}
    for qty, a in series:
        label = f"scgf[alpha={_fmt(a)}]" if qty == "scgf" else qty
        points = oracle.convergence_points(
            [exps[k] for k in valid_ks], model, qty, 1.0 if a is None else a
        )
        by_k = {pt.k: pt for pt in points}
        for k in ks:
            if k in by_k:
                pt = by_k[k]
                rows.append((label, k, a, pt.value, pt.target, pt.gap, ""))
            else:
                rows.append((label, k, a, None, None, None, "empty_typical_set"))
        trends[label] = oracle.trend_holds(points)

    payload = {
        "rows": None,
        "trends": trends,
        "crosschecks": [{"k": k, "ok": ok} for k, ok in checks],
    }
    footer = [f"# crosscheck:k={k}:{'ok' if ok else 'MISMATCH'}" for k, ok in checks]
    footer += [f"# trend:{label}:{'pass' if ok else 'FAIL'}" for label, ok in trends.items()]
    text = _table(args, meta, "series,k,alpha,exact,target,gap,flag", list(zip(*rows)),
                  payload=payload, footer=footer)
    verdicts = [*trends.values(), *(ok for _, ok in checks)]
    return text, 0 if all(verdicts) else 3


def cmd_census(args) -> tuple[str, int]:
    import guesswork.oracle as oracle

    _check_caps(args)
    p = _parse_probs(args.p)
    epsilon = _checked_epsilon(args.epsilon)
    ks = _parse_list(args.k, int, "integers")
    rows = []
    any_empty = False
    for k in ks:
        census = oracle.typical_set_census(p, epsilon, k, max_types=args.max_types)
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
        first = oracle.smallest_nonempty_k(p, epsilon, max_types=args.max_types)
        if first is None:
            first_text = f"none <= {oracle.nonempty_scan_limit(p.m, args.max_types)}"
        else:
            first_text = str(first)
        meta.append(f"# smallest nonempty k: {first_text}")
        payload = {"rows": None, "smallest_nonempty_k": first}
    header = "k,num_types,cardinality,size_rate,prob_mass,flag"
    return _table(args, meta, header, list(zip(*rows)), payload=payload), 0


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
        sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--out", default=None, help="write output to this path")
        if max_types:
            sp.add_argument("--max-types", type=int, default=MAX_TYPES_DEFAULT, dest="max_types",
                            help="cap on the k-types enumerated per word length")

    sp = sub.add_parser("analyze", help="exponent report for all three sources")
    common(sp)
    sp.set_defaults(func=cmd_analyze, format="json")

    sp = sub.add_parser("fig1", help="growth-rate gap curves over a p0 grid")
    common(sp, p=False)
    sp.add_argument("--p0-grid", default=None, dest="p0_grid",
                    help="comma-separated p0 values (default 0.525..0.975 step 0.025)")
    sp.set_defaults(func=cmd_fig1, format="csv")

    sp = sub.add_parser("fig2", help="-x - rate(x) curves for the three sources")
    common(sp)
    sp.add_argument("--x-points", type=int, default=400, dest="x_points",
                    help="number of grid points on [0, log m]")
    sp.set_defaults(func=cmd_fig2, format="csv")

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
    sp.set_defaults(func=cmd_exact_compare, format="csv")

    sp = sub.add_parser("census", help="typical-set inventory at given lengths")
    common(sp, max_types=True)
    sp.add_argument("--k", required=True, help="comma-separated word lengths")
    sp.set_defaults(func=cmd_census, format="csv")

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
    try:
        text, code = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (TypeSpaceTooLargeError, WordSpaceTooLargeError, GridTooLargeError) as exc:
        print(f"guessctl: resource guard: {exc}", file=sys.stderr)
        return 2
    except EpsilonInadmissibleError as exc:
        lo, hi = exc.interval
        span = f"({_fmt(lo)}, {_fmt(hi)})" if lo < hi else "is empty"
        print(f"guessctl: error: epsilon inadmissible; admissible interval {span}",
              file=sys.stderr)
        return 1
    except (GuessworkError, ValueError, OSError) as exc:
        print(f"guessctl: error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
