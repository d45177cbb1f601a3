"""Reference formulas the tests check the package against, as they check it against mpmath.

None of these is reached by guessctl or the package's own laws:
- `kl_divergence`, the relative entropy D(l || p);
- `renyi_rate`, the Renyi entropy rate, which gives the unconditioned
  scaled CGF by Arikan's identity Lambda(alpha) = alpha H_{1/(1+alpha)}(p)
  (IEEE Trans. Inf. Theory 42(1), 1996);
- `tilted_law`, the tilted type p_a^beta / sum_b p_b^beta, written out
  letter by letter with no use of TiltedFamily;
- `type_cost`, the cross entropy of a k-type by math.fsum, with no use of
  the package's one array cost rule.
"""

from __future__ import annotations

import math


def _floats(l) -> tuple[float, ...]:
    # a TypeVector's freqs, a LetterDistribution's probs, or a plain sequence
    return tuple(getattr(l, "freqs", getattr(l, "probs", l)))


def kl_divergence(l, p) -> float:
    """D(l || p) = sum_a l_a (log l_a - log p_a) in nats, by math.fsum and clipped at 0.

    +inf when l puts mass on a letter outside the support of p.
    """
    terms = []
    for f, q in zip(_floats(l), _floats(p), strict=True):
        if f > 0.0:
            if q <= 0.0:
                return math.inf
            terms.append(f * (math.log(f) - math.log(q)))
    return max(math.fsum(terms), 0.0)


def renyi_rate(p, beta: float) -> float:
    """Renyi entropy (1 / (1 - beta)) log sum_a p_a^beta of order beta > 0, in nats.

    Within 1e-14 of beta = 1 it is the Shannon limit, -sum_a p_a log p_a.
    """
    if not beta > 0.0:
        raise ValueError(f"Renyi order must be positive, got {beta}")
    p = _floats(p)
    if abs(beta - 1.0) < 1e-14:
        return -math.fsum(q * math.log(q) for q in p if q > 0.0)
    logs = [math.log(q) for q in p if q > 0.0]
    # log sum_a p_a^beta in the log domain, so a large order cannot underflow it
    top = max(logs)
    log_s = beta * top + math.log(math.fsum(math.exp(beta * (lq - top)) for lq in logs))
    return log_s / (1.0 - beta)


def tilted_law(p, beta: float) -> tuple[float, ...]:
    """p_a^beta / sum_b p_b^beta for finite beta >= 0; letters with p_a = 0 get 0.

    Each weight is (p_a / max p)^beta, so no weight overflows or all underflow.
    """
    p = _floats(p)
    top = max(p)
    ws = [(q / top) ** beta if q > 0.0 else 0.0 for q in p]
    total = math.fsum(ws)
    return tuple(w / total for w in ws)


def type_cost(counts, k: int, p) -> float:
    """-sum_a (c_a / k) log p_a for letter counts c summing to k, by math.fsum.

    +inf when a count falls on a letter with p_a = 0.
    """
    terms = []
    for c, q in zip(counts, _floats(p), strict=True):
        if c > 0:
            if q <= 0.0:
                return math.inf
            terms.append(-(c / k) * math.log(q))
    return math.fsum(terms)


def binary_gaps(p0: float, epsilon: float) -> dict[str, float]:
    """fig1's binary closed forms at 60 digits, for p = (p0, 1 - p0) and window half-width epsilon.

    With spread = log p0 - log p1 and l- = (p0 - epsilon/spread, ...), l+ =
    (p0 + epsilon/spread, ...): D(l-||p), D(l+||p), top = h(l-) - h(p),
    bottom = h(l-) - 2 log(sqrt p0 + sqrt p1), and middle = D(l-||p) when the
    tilted cross entropy at beta = 1/2 exceeds h(p) + epsilon, else bottom.
    Every input float is taken exactly (1 - p0 is exact for p0 in [1/2, 1]).
    """
    from mpmath import mp, mpf

    with mp.workdps(60):
        p0, eps = mpf(p0), mpf(epsilon)
        p1 = 1 - p0
        delta = eps / (mp.log(p0) - mp.log(p1))

        def h2(x):
            return -(x * mp.log(x) + (1 - x) * mp.log(1 - x))

        def div(x):
            return x * mp.log(x / p0) + (1 - x) * mp.log((1 - x) / p1)

        r0, r1 = mp.sqrt(p0), mp.sqrt(p1)
        eta = -(r0 * mp.log(p0) + r1 * mp.log(p1)) / (r0 + r1)
        d_minus = div(p0 - delta)
        bottom = h2(p0 - delta) - 2 * mp.log(r0 + r1)
        out = {
            "div_minus": d_minus,
            "div_plus": div(p0 + delta),
            "top": h2(p0 - delta) - h2(p0),
            "middle": d_minus if eta > h2(p0) + eps else bottom,
            "bottom": bottom,
        }
        return {key: float(v) for key, v in out.items()}
