"""The three benchmark workloads: seeded requests, one call each, output checks.

A workload hands out requests in cycles. Each cycle is a fixed mix of
request shapes (subcommand, kind, alphabet size, size range); the letter
laws, epsilons and word lengths inside it are drawn from continua by the
quasi-random `Draws`, so no two requests repeat and every seed sees the
same mix.

`execute` is the only code inside the timed region. `check` runs after it
and compares the output with an independent value from `reference`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import traceback
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from calibration import Clock

KINDS = ("unconditioned", "conditioned", "uniform")


@dataclass
class Request:
    op: str
    params: dict
    argv: list[str] | None = None
    items: int = 0  # units of work the request asks for (see spec.json)


@dataclass
class Outcome:
    seconds: float  # at reference speed (calibration.py)
    raw: float  # wall time
    error: str | None = None  # set when the call raised or exited 1 or 2
    code: int = 0
    stdout: str = ""
    summary: dict = field(default_factory=dict)  # library results, reduced


class CheckError(Exception):
    pass


def raised(exc: Exception) -> str:
    """The exception, with the function that raised it."""
    where = traceback.extract_tb(exc.__traceback__)[-1].name
    return f"{type(exc).__name__} in {where}: {exc}"


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def require_close(x: float, expected: float, tol: float, what: str) -> None:
    if not ref.close(x, expected, tol):
        raise CheckError(f"{what}: got {x!r}, reference {expected!r}")


# --------------------------------------------------------------------------
# seeded inputs


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


class Draws:
    """Quasi-random uniforms for the request slots of a workload, and the seed's choices.

    Slot s, dimension d, index c gives frac(offset + c * sqrt(prime_d)), with
    a fixed offset per (workload, slot, dimension). Over successive indices
    the draws of one slot spread evenly over [0, 1) (a Kronecker sequence),
    so no two requests repeat. A slot that holds r requests of one shape per
    cycle numbers them c * r + i, so that all of them form one sequence.

    A run sends cycles 0 .. n-1 of this design for every seed; the seed picks
    the cycle it starts at (going round), the request order within each
    cycle and the letter order of each law. So every run of a given length
    sends the same letter laws, epsilons and sizes, up to letter order. The
    known oracle defects of exact_compare depend on the law, epsilon and k
    of a request, and this keeps the number of requests that reach them,
    and the cost mix of the requests, the same in every run.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")  # start cycle, request order
        self._offsets: dict[tuple, float] = {}

    def u(self, slot, dim: int, c: int) -> float:
        key = (slot, dim)
        if key not in self._offsets:
            self._offsets[key] = random.Random(f"{self.workload}:{slot}:{dim}").random()
        return (self._offsets[key] + c * math.sqrt(_PRIMES[dim])) % 1.0

    def letter_order(self, slot, c: int, m: int) -> list[int]:
        order = list(range(m))
        random.Random(f"{self.workload}:{self.seed}:{slot}:{c}").shuffle(order)
        return order

    def vector(self, slot, c: int, n: int, first: int = 0) -> list[float]:
        return [self.u(slot, first + i, c) for i in range(n)]


def cli_law(values) -> tuple[tuple[float, ...], str]:
    """The law exactly as guessctl will parse and renormalize it, and its text."""
    text = ",".join(repr(float(v)) for v in values)
    parsed = [float(v) for v in text.split(",")]
    total = math.fsum(parsed)
    return tuple(v / total for v in parsed), text


def law_from(us: list[float], order: list[int]) -> tuple[tuple[float, ...], str]:
    """A letter law with weights 0.05 + Exp(1) quantiles of the uniforms us.

    Letter a gets the weight drawn from us[order[a]].
    """
    for attempt in range(100):
        w = [0.05 - math.log1p(-((u + attempt * math.sqrt(q)) % 1.0))
             for u, q in zip(us, _PRIMES)]
        s = math.fsum(w)
        p, text = cli_law([w[j] / s for j in order])
        if ref.admissible_epsilon_max(p) > 0.02:
            return p, text
    raise ValueError("no admissible law near these draws")


def binary_law(u_hi: float, order: list[int]) -> tuple[tuple[float, ...], str]:
    hi = 0.55 + 0.4 * u_hi
    pair = (hi, 1.0 - hi)
    return cli_law([pair[j] for j in order])


def lattice_k(m: int, size: float) -> int:
    """Smallest word length whose type lattice on m letters holds >= size types."""
    k = 1
    while math.comb(k + m - 1, m - 1) < size:
        k += 1
    return k


def nonempty_epsilon(p, k: int, frac: float) -> float | None:
    """frac of the admissible epsilon range, widened to keep one typical k-type."""
    hi = ref.admissible_epsilon_max(p)
    counts = [math.floor(k * q) for q in p]
    for a in sorted(range(len(p)), key=lambda a: k * p[a] - counts[a], reverse=True)[
        : k - sum(counts)
    ]:
        counts[a] += 1
    cost = -math.fsum(c / k * math.log(q) for c, q in zip(counts, p))
    eps = max(frac * hi, 1.05 * abs(cost - ref.entropy(p)))
    return eps if eps < 0.95 * hi else None


def log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


# --------------------------------------------------------------------------
# calls into the package


def run_cli(argv: list[str]) -> Outcome:
    from guesswork import cli

    out, err = io.StringIO(), io.StringIO()
    clock = Clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with clock:
                code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            return Outcome(clock.seconds, clock.raw, f"exit {exc.code}", 2)
        except Exception as exc:  # a traceback escaping guessctl is a failure
            return Outcome(clock.seconds, clock.raw, raised(exc), -1)
    if code in (1, 2):
        return Outcome(clock.seconds, clock.raw, f"exit {code}: {err.getvalue().strip()}", code)
    return Outcome(clock.seconds, clock.raw, None, code, out.getvalue())


# --------------------------------------------------------------------------
# rate_curves: guessctl fig2 / analyze / fig1


class RateCurves:
    name = "rate_curves"
    cycle_seconds = 4.2  # one cycle at reference speed (calibration.py)
    known_failure = staticmethod(lambda req, out: False)

    def __init__(self, tiny: bool = False):
        self.x_points = (10, 20, 40) if tiny else (100, 200, 400)

    def cycle(self, d: Draws, c: int) -> list[Request]:
        reqs = []
        lo, mid, hi = self.x_points
        # 200 and 400 points twice per m, so p50 and p90 fall inside a cluster
        # of like requests rather than between two clusters
        for m, (n, r) in itertools.product((2, 3, 4, 5), ((lo, 1), (mid, 2), (hi, 2))):
            slot = ("fig2", m, n)
            for i in range(c * r, c * r + r):
                p, text = law_from(d.vector(slot, i, m), d.letter_order(slot, i, m))
                eps = (0.1 + 0.8 * d.u(slot, m, i)) * ref.admissible_epsilon_max(p)
                argv = ["fig2", "--p", text, "--epsilon", repr(eps), "--x-points", str(n)]
                reqs.append(Request("fig2", {"p": p, "eps": eps, "n": n}, argv, 3 * n))
        for j in range(2):
            slot, m = ("analyze", j), 2 + (2 * c + j) % 4
            p, text = law_from(d.vector(slot, c, m), d.letter_order(slot, c, m))
            eps = (0.1 + 0.8 * d.u(slot, m, c)) * ref.admissible_epsilon_max(p)
            argv = ["analyze", "--p", text, "--epsilon", repr(eps)]
            reqs.append(Request("analyze", {"p": p, "eps": eps}, argv, 3))
        for j in range(2):
            slot = ("fig1", j)
            eps = 0.01 + 0.09 * d.u(slot, 0, c)
            shift = d.u(slot, 1, c)
            grid = sorted(0.55 + 0.4 * ((i + shift) / 19) for i in range(19))
            argv = ["fig1", "--epsilon", repr(eps), "--p0-grid", ",".join(map(repr, grid))]
            reqs.append(Request("fig1", {"eps": eps, "grid": grid}, argv, 0))
        d.rng.shuffle(reqs)
        return reqs

    def execute(self, req: Request) -> Outcome:
        return run_cli(req.argv)

    def check(self, req: Request, out: Outcome, tol: dict) -> int:
        require(out.code == 0, f"exit code {out.code}")
        return getattr(self, "_check_" + req.op)(req, out.stdout, tol["cli_rel_tol"])

    @staticmethod
    def _models(p, eps):
        return [ref.ScgfRef.build(kind, p, None if kind == "unconditioned" else eps)
                for kind in KINDS]

    def _check_fig2(self, req, text, tol) -> int:
        p, eps, n = req.params["p"], req.params["eps"], req.params["n"]
        models = self._models(p, eps)
        lines = text.splitlines()
        meta = {line.split(":")[0][2:]: line for line in lines if line.startswith("# ")}
        for key in ("modal_decay", "plateau_width"):
            fields = dict(f.split("=") for f in meta[key].split(": ", 1)[1].split())
            for kind, model in zip(KINDS, models):
                require_close(float(fields[kind]), getattr(model, key), tol, f"{kind} {key}")
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        require(len(rows) == n, f"{len(rows)} rows for {n} x-points")
        xs = np.linspace(0.0, math.log(len(p)), n)
        interior = {kind: [] for kind in KINDS}
        for x, row in zip(xs.tolist(), rows):
            require_close(float(row[0]), x, tol, "x grid")
            for kind, model, cell in zip(KINDS, models, row[1:]):
                if x > model.max_slope + 1e-12:
                    require(cell == "inf", f"{kind} at x={x}: {cell} outside the domain")
                elif x <= model.plateau_width:
                    require_close(float(cell), model.modal_decay, tol, f"{kind} plateau x={x}")
                elif abs(x - model.max_slope) <= 1e-12:
                    require_close(float(cell), model.tail_intercept - x, tol, f"{kind} end x={x}")
                else:
                    interior[kind].append((x, cell))
        for kind, model in zip(KINDS, models):
            pts = interior[kind]
            for x, cell in pts[:: max(1, len(pts) // 6)]:
                require(cell != "inf", f"{kind} interior x={x} reported inf")
                require_close(float(cell), -x - model.rate(x), tol, f"{kind} rate x={x}")
        return req.items

    def _check_analyze(self, req, text, tol) -> int:
        p, eps = req.params["p"], req.params["eps"]
        rep = json.loads(text)
        unc, cond, uni = self._models(p, eps)
        for got, want in zip(rep["p"], p):
            require_close(got, want, tol, "p")
        require_close(rep["entropy"], cond.h, tol, "entropy")
        bnd = rep["boundary"]
        require(bnd["exists_minus"] and bnd["exists_plus"] and not bnd["clamped_to_log_m"],
                "boundary flags")
        for got, want in zip(bnd["l_minus"] + bnd["l_plus"], cond.l_minus + cond.l_plus):
            require_close(got, want, tol, "boundary type")
        require_close(bnd["entropy_minus"], cond.h_minus, tol, "entropy_minus")
        require_close(bnd["entropy_plus"], ref.entropy(cond.l_plus), tol, "entropy_plus")
        for kind, model in zip(KINDS, (unc, cond, uni)):
            r = rep[kind]
            require_close(r["moment_rate"], model(1.0), tol, f"{kind} moment_rate")
            require_close(r["mean_log_rate"], model.mean_log_rate(), tol, f"{kind} mean_log_rate")
            require(r["moment_rate"] >= r["mean_log_rate"] - tol, f"{kind} Jensen")
            for key in ("modal_decay", "plateau_width", "max_slope", "tail_intercept"):
                require_close(r[key], getattr(model, key), tol, f"{kind} {key}")
        c = rep["conditioned"]
        require_close(c["window_excess"], ref.window_excess(p, eps), tol, "window_excess")
        bps = c["breakpoints"]
        require_close(bps["alpha_low"], 1.0 / cond.beta_plus - 1.0, tol, "alpha_low")
        require_close(bps["alpha_high"], 1.0 / cond.beta_minus - 1.0, tol, "alpha_high")
        return req.items

    def _check_fig1(self, req, text, tol) -> int:
        eps, grid = req.params["eps"], req.params["grid"]
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
        require(len(rows) == len(grid), "fig1 row count")
        points = 0
        for p0, row in zip(grid, rows):
            require_close(float(row[0]), p0, tol, "p0")
            p = (p0, 1.0 - p0)
            if not eps < ref.admissible_epsilon_max(p):
                require(row[1:] == ["", "", "", "epsilon_inadmissible"], f"p0={p0} flag")
                continue
            cond = ref.ScgfRef.build("conditioned", p, eps)
            unc = ref.ScgfRef.build("unconditioned", p, None)
            hm = cond.h_minus
            want = (hm - cond.h, hm - cond(1.0), hm - unc(1.0))
            for cell, w, name in zip(row[1:4], want, ("top", "middle", "bottom")):
                require_close(float(cell), w, tol, f"fig1 {name} p0={p0}")
            require(row[4] == "", f"p0={p0} flag {row[4]!r}")
            points += 3
        return points


# --------------------------------------------------------------------------
# type_tables: finite_k_exponents / typical_set_census library calls


class TypeTables:
    name = "type_tables"
    cycle_seconds = 3.2  # one cycle at reference speed (calibration.py)
    known_failure = staticmethod(lambda req, out: False)

    def __init__(self, tiny: bool = False):
        self.census_sizes = (50.0, 300.0) if tiny else (1e3, 4e4)
        self.exp3_sizes = (50.0, 300.0) if tiny else (1e3, 2e4)
        self.exp4_sizes = (50.0, 300.0) if tiny else (5e3, 4e4)

    def _request(self, d: Draws, slot, i: int, op, kind, m, sizes) -> Request:
        """The i-th request of a slot; its lattice size is log-uniform in sizes."""
        k = lattice_k(m, log_uniform(*sizes, d.u(slot, 0, i)))
        us = d.vector(slot, i, m, first=1)
        order = d.letter_order(slot, i, m)
        eps = None
        for attempt in range(100):
            p, _ = law_from([(u + 0.381966 * attempt) % 1.0 for u in us], order)
            if kind == "unconditioned":
                break
            eps = nonempty_epsilon(p, k, 0.1 + 0.8 * d.u(slot, m + 1, i))
            if eps is not None:
                break
        return Request(op, {"kind": kind, "p": p, "eps": eps, "k": k},
                       items=math.comb(k + m - 1, m - 1))

    def cycle(self, d: Draws, c: int) -> list[Request]:
        reqs = []
        for m, i in itertools.product((3, 4), range(4 * c, 4 * c + 4)):
            reqs.append(self._request(d, ("census", m), i, "census", "conditioned", m,
                                      self.census_sizes))
        for kind, i in itertools.product(KINDS, range(3 * c, 3 * c + 3)):
            reqs.append(self._request(d, ("exponents", kind), i, "exponents", kind, 3,
                                      self.exp3_sizes))
        # m = 4 exponents for the typical-set kinds only: an unconditioned m = 4
        # table costs ~2 s and holds every type, so two of them would decide a
        # run's throughput and peak memory (the m4_k60 probe times that table)
        reqs.append(self._request(d, "exponents-m4", c, "exponents", KINDS[1 + c % 2], 4,
                                  self.exp4_sizes))
        d.rng.shuffle(reqs)
        return reqs

    def execute(self, req: Request) -> Outcome:
        from guesswork import asymptotics, oracle

        prm = req.params
        clock = Clock()
        try:
            with clock:
                if req.op == "census":
                    res = oracle.typical_set_census(prm["p"], prm["eps"], prm["k"])
                else:
                    if prm["kind"] == "unconditioned":
                        source = asymptotics.unconditioned(prm["p"])
                    elif prm["kind"] == "conditioned":
                        source = asymptotics.conditioned(prm["p"], prm["eps"])
                    else:
                        source = asymptotics.uniform_typical(prm["p"], prm["eps"])
                    res = oracle.finite_k_exponents(source, prm["k"])
        except Exception as exc:  # any raise is a failed request
            return Outcome(clock.seconds, clock.raw, raised(exc), -1)
        if req.op == "census":
            summary = {
                "types": sorted(l.counts for l in res.types),
                "cardinality": res.cardinality,
                "prob_mass": res.prob_mass,
                "max_type_count": res.max_type_count,
            }
        else:
            summary = {"result": res}
        return Outcome(clock.seconds, clock.raw, summary=summary)

    def check(self, req: Request, out: Outcome, tol: dict) -> int:
        prm = req.params
        k, p = prm["k"], prm["p"]
        table = ref.table_ref(prm["kind"], p, prm["eps"], k)
        tol = tol["library_rel_tol"]
        s = out.summary
        if req.op == "census":
            require(s["cardinality"] == table.total, "census cardinality")
            require(s["types"] == sorted(map(tuple, table.counts_matrix.tolist())), "census types")
            if table.total:
                require_close(s["prob_mass"], math.exp(table.log_mass), tol, "census mass")
                require(s["max_type_count"] == max(table.sizes), "census max type count")
            return req.items
        res = s["result"]
        require(not table.empty, "reference typical set is empty")
        if prm["kind"] == "unconditioned":
            require(table.total == len(p) ** k, "reference table total != m^k")
        for a, v in res.moment_exponents:
            require_close(k * v, ref.log_moment(table, a), tol, f"log E[G^{a}]")
        mean_log = ref.mean_log(table)
        require_close(k * res.mean_log_exponent, mean_log, tol, "E[log G]")
        require(dict(res.moment_exponents)[1.0] * k >= mean_log - tol, "Jensen")
        require_close(k * res.top_prob_exponent, float(table.log_w[0]), tol, "log P(G=1)")
        require_close(k * res.modal_count_exponent, math.log(ref.modal_count(table)), tol,
                      "log modal count")
        if prm["kind"] == "unconditioned":
            require(res.typical_size_exponent is None, "typical size on the plain source")
        else:
            require_close(k * res.typical_size_exponent, math.log(table.total), tol, "log |T|")
        return req.items


# --------------------------------------------------------------------------
# exact_compare: guessctl exact-compare on binary laws


class ExactCompare:
    name = "exact_compare"
    cycle_seconds = 2.0  # one cycle at reference speed (calibration.py)
    MAX_WORDS = 65536

    def __init__(self, tiny: bool = False):
        self.k_range = (10, 60) if tiny else (10, 1200)

    def cycle(self, d: Draws, c: int) -> list[Request]:
        lo, hi = self.k_range
        reqs = []
        for kind, i in itertools.product(KINDS, range(4 * c, 4 * c + 4)):
            u_hi, u_eps, *u_ks = d.vector(kind, i, 5)
            p, text = binary_law(u_hi, d.letter_order(kind, i, 2))
            ks = sorted(round(log_uniform(lo, hi, u)) for u in u_ks)
            for j in (1, 2):
                ks[j] = max(ks[j], ks[j - 1] + 1)
            argv = ["exact-compare", "--p", text, "--kind", kind,
                    "--k", ",".join(map(str, ks)), "--max-words", str(self.MAX_WORDS)]
            eps = None
            if kind != "unconditioned":
                eps = (0.1 + 0.8 * u_eps) * ref.admissible_epsilon_max(p)
                argv += ["--epsilon", repr(eps)]
            reqs.append(Request("exact-compare", {"kind": kind, "p": p, "eps": eps, "ks": ks},
                                argv))
        d.rng.shuffle(reqs)
        return reqs

    def execute(self, req: Request) -> Outcome:
        return run_cli(req.argv)

    @staticmethod
    def known_failure(req: Request, out: Outcome) -> bool:
        """Whether a failed request shows one of the two known oracle defects.

        Both live at k >= ~1090: a math domain error in the log-sum helpers
        for the unconditioned source (guessctl exits 1), and an
        OverflowError from _em_log_power_sum that escapes guessctl for the
        typical-set kinds. Any other failure makes the run incorrect.
        """
        if max(req.params["ks"]) < 1000:
            return False
        if req.params["kind"] == "unconditioned":
            return out.error == "exit 1: guessctl: error: math domain error"
        return out.error.startswith("OverflowError in _em_log_power_sum: ")

    def check(self, req: Request, out: Outcome, tol: dict) -> int:
        tol = tol["cli_rel_tol"]
        prm = req.params
        kind, p, eps = prm["kind"], prm["p"], prm["eps"]
        model = ref.ScgfRef.build(kind, p, eps)
        lines = out.stdout.splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        tables = {k: ref.table_ref(kind, p, eps, k) for k in prm["ks"]}
        valued = 0
        for series, k, alpha, exact, target, gap, flag in rows:
            t = tables[int(k)]
            if flag == "empty_typical_set":
                require(t.empty and exact == "", f"k={k} flagged empty")
                continue
            require(not t.empty and flag == "", f"{series} k={k}: value on an empty set")
            k = int(k)
            if series.startswith("scgf"):
                a = float(alpha)
                want, want_target = ref.log_moment(t, a) / k, model(a)
            elif series == "mean_log":
                want, want_target = ref.mean_log(t) / k, model.mean_log_rate()
            elif series == "top_prob":
                want, want_target = float(t.log_w[0]) / k, model.modal_decay
            elif series == "modal_count":
                want, want_target = math.log(ref.modal_count(t)) / k, model.plateau_width
            else:
                require(series == "typical_size", f"unknown series {series}")
                want, want_target = math.log(t.total) / k, model.max_slope
            require_close(float(exact), want, tol, f"{series} k={k}")
            require_close(float(target), want_target, tol, f"{series} target")
            require(abs(float(gap) - abs(float(exact) - float(target))) <= 2 * tol,
                    f"{series} k={k} gap")
            valued += 1
        n_series = 7 + (kind != "unconditioned")  # four default alphas + three or four
        require(len(rows) == len(prm["ks"]) * n_series, f"{len(rows)} rows")
        checks = {line for line in lines if line.startswith("# crosscheck:")}
        for k, t in tables.items():
            if not t.empty and 2**k <= self.MAX_WORDS:
                require(f"# crosscheck:k={k}:ok" in checks, f"naive cross-check k={k}")
        require(not any(line.endswith("MISMATCH") for line in checks), "cross-check mismatch")
        failed_trend = any(line.startswith("# trend:") and line.endswith(":FAIL") for line in lines)
        require(out.code == (3 if failed_trend else 0), f"exit code {out.code}")
        return valued


WORKLOADS = {w.name: w for w in (RateCurves, TypeTables, ExactCompare)}


def describe(req: Request) -> str:
    prm = req.params
    bits = [req.op]
    if "kind" in prm:
        bits.append(prm["kind"])
    if "p" in prm:
        bits.append("p=" + ",".join(f"{q:.4f}" for q in prm["p"]))
    for key in ("k", "ks", "n"):
        if key in prm:
            bits.append(f"{key}={prm[key]}")
    return " ".join(bits)
