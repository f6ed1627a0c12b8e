"""The X-state discord kernel against the forms it replaced.

`_discord_x` evaluates the binary entropy of its polar-angle objective
inline.  `reference_discord_x` below is the form that called
`binary_entropy` for each outcome, unchanged but for the name and the
endpoint decision, which it takes from the module: the kernel must return
the same bits on every input.

`_discord_x` also skips the golden-section search where the derivative of
the objective certifies an endpoint grid minimum.  `old_search_discord_x`
below is the kernel that always searched, unchanged but for the name: the
kernel may only be higher, by rounding, where the search chased noise.
"""

import math

import numpy as np
import pytest

from catcorr import DomainError, Parity
from catcorr import correlations
from catcorr.correlations import (
    _ENDPOINT_LIVE_MARGIN,
    _ENDPOINT_PURE_MARGIN,
    _LIVE_Q,
    _X_THETA_POINTS,
    _block_eigenvalues,
    _discord_x,
    _endpoint_is_minimum,
    _golden_section,
    binary_entropy,
)
from catcorr.states import _pair_block


def reference_discord_x(
    r00: float, r11: float, r22: float, r33: float, c03: float, c12: float
) -> float:
    a3 = r00 + r11 - r22 - r33
    b3 = r00 - r11 + r22 - r33
    t33 = r00 - r11 - r22 + r33
    t_perp = 2.0 * (abs(c03) + abs(c12))

    def s_cond(theta: float) -> float:
        cos_t = math.cos(theta)
        trans = (t_perp * math.sin(theta)) ** 2
        total = 0.0
        for sign in (1.0, -1.0):
            weight = 1.0 + sign * a3 * cos_t  # twice the outcome probability
            if weight > 2e-15:
                length = math.sqrt(trans + (b3 + sign * t33 * cos_t) ** 2)
                r = min(length / weight, 1.0)
                total += 0.5 * weight * binary_entropy(0.5 - 0.5 * r)
        return total

    step = 0.5 * math.pi / (_X_THETA_POINTS - 1)
    best_val, i = min((s_cond(k * step), k) for k in range(_X_THETA_POINTS))
    if i in (0, _X_THETA_POINTS - 1) and _endpoint_is_minimum(a3, b3, t33, t_perp, i == 0):
        val = best_val
    else:
        _, val = _golden_section(
            s_cond, max(0.0, (i - 1) * step), min(0.5 * math.pi, (i + 1) * step)
        )
    s_ab = 0.0
    for lam in _block_eigenvalues(r00, r33, c03) + _block_eigenvalues(r11, r22, c12):
        if lam > 0.0:
            s_ab -= lam * math.log2(lam)
    return binary_entropy(min(r00 + r11, r22 + r33)) + min(best_val, val) - s_ab


def old_search_discord_x(
    r00: float, r11: float, r22: float, r33: float, c03: float, c12: float
) -> float:
    a3 = r00 + r11 - r22 - r33
    b3 = r00 - r11 + r22 - r33
    t33 = r00 - r11 - r22 + r33
    t_perp = 2.0 * (abs(c03) + abs(c12))
    cos, sin, sqrt, log2 = math.cos, math.sin, math.sqrt, math.log2

    def s_cond(theta: float) -> float:
        cos_t = cos(theta)
        ac = a3 * cos_t
        tc = t33 * cos_t
        trans = (t_perp * sin(theta)) ** 2
        total = 0.0
        weight = 1.0 + ac  # twice the outcome probability
        if weight > _LIVE_Q:
            r = sqrt(trans + (b3 + tc) ** 2) / weight
            if r < 1.0:
                x = 0.5 - 0.5 * r
                y = 1.0 - x
                total += 0.5 * weight * (-x * log2(x) - y * log2(y))
            elif r != r:
                raise DomainError(f"conditional Bloch length is NaN at theta {theta}")
        weight = 1.0 - ac
        if weight > _LIVE_Q:
            r = sqrt(trans + (b3 - tc) ** 2) / weight
            if r < 1.0:
                x = 0.5 - 0.5 * r
                y = 1.0 - x
                total += 0.5 * weight * (-x * log2(x) - y * log2(y))
            elif r != r:
                raise DomainError(f"conditional Bloch length is NaN at theta {theta}")
        return total

    # first minimum of the grid: a tie keeps the smaller theta
    step = 0.5 * math.pi / (_X_THETA_POINTS - 1)
    best_val, i = s_cond(0.0), 0
    for k in range(1, _X_THETA_POINTS):
        value = s_cond(k * step)
        if value < best_val:
            best_val, i = value, k
    _, val = _golden_section(
        s_cond, max(0.0, (i - 1) * step), min(0.5 * math.pi, (i + 1) * step)
    )
    s_ab = 0.0
    for lam in _block_eigenvalues(r00, r33, c03) + _block_eigenvalues(r11, r22, c12):
        if lam > 0.0:
            s_ab -= lam * math.log2(lam)
    return binary_entropy(min(r00 + r11, r22 + r33)) + min(best_val, val) - s_ab


def random_x_entries(rng, count):
    # unequal populations, coherences of either sign up to the PSD bound
    for _ in range(count):
        r00, r11, r22, r33 = rng.dirichlet(np.ones(4)).tolist()
        s03, s12 = rng.choice((-1.0, 1.0), size=2).tolist()
        f03, f12 = rng.random(2).tolist()
        yield (r00, r11, r22, r33,
               s03 * f03 * math.sqrt(r00 * r33), s12 * f12 * math.sqrt(r11 * r22))


def dephased_pair_entries(rng):
    overlaps = [0.05, 0.5, 0.9, 0.999] + [1.0 - 10.0 ** -k for k in range(4, 13)]
    for parity in Parity:
        for n in (2, 3, 4, 7, 20, 50):
            for p in overlaps:
                r00, r33, r03, r11, _ = _pair_block(p, n - 2, parity.sign)
                for gamma in [0.0, 1.0] + rng.random(3).tolist():
                    decay = 1.0 - gamma
                    yield r00, r11, r11, r33, decay * r03, decay * r11


BOUNDARY_ENTRIES = [
    # interior optima of test_x_state_kernel_finds_interior_optimum
    (0.0722, 0.038, 0.0, 0.8898, 0.2318, 0.0),
    (0.9272, 0.0, 0.0612, 0.0116, 0.0809, 0.0),
    (0.0387, 0.0888, 0.0, 0.8725, -0.1487, 0.0),
    (0.0059, 0.0136, 0.9802, 0.0003, -0.0007, -0.1068),
    # dephased pairs near p = 1 whose optimum is an interior well next to
    # theta = 0 (theta* ~ 7.5e-4 and ~ 4.0e-3), below s(0) by 4.1e-10 and
    # 2.8e-8: only the golden-section comparisons find it
    (0.9999972472605235, 1.2512449887640687e-06, 1.2512449887640687e-06,
     2.5024949875150816e-07, 0.00033966112149885134, 8.495758916917835e-07),
    (0.9999907410715136, 4.504340307865265e-06, 4.504340307865265e-06,
     2.5024787057648767e-07, 0.0003134477866445946, 2.822365256167071e-06),
    # |00><00|: the outcome of -z has probability 0
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    # Bell states: every conditional state is pure, r = 1
    (0.5, 0.0, 0.0, 0.5, 0.5, 0.0),
    (0.5, 0.0, 0.0, 0.5, -0.5, 0.0),
    (0.0, 0.5, 0.5, 0.0, 0.0, 0.5),
    # classical state without coherences
    (0.4, 0.1, 0.2, 0.3, 0.0, 0.0),
    (0.25, 0.25, 0.25, 0.25, 0.0, 0.0),
]


def test_x_kernel_matches_binary_entropy_reference_bitwise(rng):
    cases = list(random_x_entries(rng, 2000))
    cases += dephased_pair_entries(rng)
    cases += BOUNDARY_ENTRIES
    for entries in cases:
        assert _discord_x(*entries).hex() == reference_discord_x(*entries).hex(), entries


def test_x_kernel_rejects_nan_like_the_reference():
    # a NaN coherence reaches the entropy as a NaN Bloch length
    entries = (0.4, 0.1, 0.2, 0.3, math.nan, 0.0)
    with pytest.raises(DomainError):
        reference_discord_x(*entries)
    with pytest.raises(DomainError):
        _discord_x(*entries)


def leaving_the_equator():
    # dephased pairs p = 0.846, n = 4, even, whose optimum leaves theta =
    # pi/2 as gamma grows (test_tie_rule_fires_only_within_its_tolerance):
    # pi/2 is the grid minimum but no longer a local one, and the search
    # finds 3.2e-10 and 2.0e-13 below it
    r00, r33, r03, r11, _ = _pair_block(0.846, 2, 1)
    for gamma in (0.33481787109375005, 0.3347980041503907):
        decay = 1.0 - gamma
        yield r00, r11, r11, r33, decay * r03, decay * r11


def random_dephased_entries(rng, count):
    # p uniform or within 1e-12..1e-1 of 1, n up to 50, either parity, any gamma
    for _ in range(count):
        sign = int(rng.choice((-1, 1)))
        n = int(rng.integers(2, 51))
        p = float(rng.random()) if rng.random() < 0.7 else 1.0 - 10.0 ** rng.uniform(-12.0, -1.0)
        r00, r33, r03, r11, _ = _pair_block(p, n - 2, sign)
        decay = 1.0 - float(rng.random())
        yield r00, r11, r11, r33, decay * r03, decay * r11


def counted_searches(monkeypatch):
    """Patch `_golden_section` to count its calls."""
    calls = []

    def counted(fun, lo, hi):
        calls.append((lo, hi))
        return _golden_section(fun, lo, hi)

    monkeypatch.setattr(correlations, "_golden_section", counted)
    return calls


def test_endpoint_rule_only_drops_search_noise(rng, monkeypatch):
    # where the rule skips the search, the kernel returns the grid value,
    # which the search undercut by rounding alone (it chases noise around a
    # strict endpoint minimum); everywhere else it is the search, bit for bit
    cases = list(random_x_entries(rng, 2000))
    cases += dephased_pair_entries(rng)
    cases += BOUNDARY_ENTRIES
    cases += leaving_the_equator()
    cases += random_dephased_entries(rng, 5000)
    moved = 0
    for entries in cases:
        gap = _discord_x(*entries) - old_search_discord_x(*entries)
        assert 0.0 <= gap <= 2e-15, entries
        moved += gap != 0.0
    assert moved > 1000  # 1912 of the 7792 cases
    # the interior optima, the interior wells next to theta = 0 near p = 1
    # and the optima just off the equator still go through the search
    calls = counted_searches(monkeypatch)
    for entries in BOUNDARY_ENTRIES[:6] + list(leaving_the_equator()):
        calls.clear()
        assert _discord_x(*entries) == old_search_discord_x(*entries)
        assert len(calls) == 1, entries


def test_endpoint_rule_needs_both_margins(monkeypatch):
    # each margin on both sides: 1% inside it the endpoint is certified and
    # the search skipped, 1% outside it the search runs, and with the
    # margin halved the outside input is certified as well, so the margin
    # alone decides
    calls = counted_searches(monkeypatch)
    pure, live = _ENDPOINT_PURE_MARGIN, _ENDPOINT_LIVE_MARGIN

    def bell_diagonal(gap):  # theta = pi/2, both r = 1 - gap
        c = 0.25 * (1.0 - gap)
        return 0.25, 0.25, 0.25, 0.25, c, c

    def small_outcome(weight):  # theta = 0, the -z outcome of weight `weight`
        rest = 1.0 - 0.5 * weight
        return 0.6 * rest, 0.4 * rest, 0.25 * weight, 0.25 * weight, 0.0, 0.0

    def nearly_pure_outcome(gap):  # theta = 0, the +z outcome at r = 1 - gap
        return 0.5 - 0.25 * gap, 0.25 * gap, 0.3, 0.2, 0.0, 0.0

    for name, margin, make in (
        ("_ENDPOINT_PURE_MARGIN", pure, bell_diagonal),
        ("_ENDPOINT_LIVE_MARGIN", live, small_outcome),
        ("_ENDPOINT_PURE_MARGIN", pure, nearly_pure_outcome),
    ):
        for factor, searches in ((1.01, 0), (0.99, 1)):
            calls.clear()
            _discord_x(*make(factor * margin))
            assert len(calls) == searches, (name, factor)
        with monkeypatch.context() as patched:
            patched.setattr(correlations, name, 0.5 * margin)
            calls.clear()
            _discord_x(*make(0.99 * margin))
            assert not calls, name


def test_endpoint_rule_reads_the_sign_of_the_curvature(rng):
    # the closed-form derivatives against the second derivative in theta of
    # the objective itself, at 50 digits: the endpoint is certified exactly
    # where that curvature is positive, wherever the margins hold and the
    # curvature is not within 1e-9 of 0
    mpmath = pytest.importorskip("mpmath")

    def objective(a3, b3, t33, t_perp, theta):
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        total = mpmath.mpf(0)
        for sign in (1, -1):
            weight = 1 + sign * a3 * c
            r = mpmath.sqrt((t_perp * s) ** 2 + (b3 + sign * t33 * c) ** 2) / weight
            x = (1 + r) / 2
            total -= weight / 2 * (x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2))
        return total

    cases = list(random_x_entries(rng, 150)) + list(random_dephased_entries(rng, 150))
    checked = [0, 0]
    with mpmath.workdps(50):
        for r00, r11, r22, r33, c03, c12 in cases:
            a3, b3, t33 = r00 + r11 - r22 - r33, r00 - r11 + r22 - r33, r00 - r11 - r22 + r33
            t_perp = 2.0 * (abs(c03) + abs(c12))
            exact = [mpmath.mpf(v) for v in (a3, b3, t33, t_perp)]
            for pole, theta in ((True, 0), (False, mpmath.pi / 2)):
                weights = (1.0 + a3, 1.0 - a3) if pole else (1.0, 1.0)
                if min(weights) <= 2.0 * _ENDPOINT_LIVE_MARGIN:
                    continue
                lengths = ([abs(b3 + t33) / weights[0], abs(b3 - t33) / weights[1]] if pole
                           else [math.hypot(t_perp, b3)])
                if max(lengths) >= 1.0 - 2.0 * _ENDPOINT_PURE_MARGIN:
                    continue
                curvature = mpmath.diff(lambda t: objective(*exact, t), theta, 2)
                if abs(curvature) < 1e-9:
                    continue
                assert _endpoint_is_minimum(a3, b3, t33, t_perp, pole) == (curvature > 0), (
                    (r00, r11, r22, r33, c03, c12), pole)
                checked[curvature > 0] += 1
    assert min(checked) > 200  # 266 and 277
