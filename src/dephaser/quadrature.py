"""Deterministic adaptive quadrature on finite, truncated semi-infinite,
and nested 2-D domains.

Panels use an embedded 7-point Gauss / 15-point Kronrod pair. The rule is
open (no endpoint evaluations), so integrands with a removable singularity
at an interval edge are handled as long as every sampled node is finite.
For a fast sin(omega x) factor, integrate_sin_tail and integrate_nested
decide where a sin-weighted Clenshaw-Curtis rule takes over.
Integrands are vectorized: they take a 1-D ndarray of n nodes and return
shape (n,) (a scalar broadcasts), or (m, n) for m integrals over one shared
set of panels, the design of scipy.integrate.quad_vec. Each component keeps
its own error estimate and stopping test, so components many orders of
magnitude apart each reach their own relative tolerance. Panels go to the
integrand in chunks. A call holds at most 512 kB (_BLOCK_ELEMS values),
except the first call of a pass, which is made before m is known and holds
up to _SMALL_CALL panels of m rows. Chunking changes how often the
integrand is called, never which nodes it sees or how their values are
summed. A nested domain with a separable integrand tabulates its inner
integral once and reads it at every outer node.

Kinks and breakpoints are left to the caller: an integrand that is smooth
only between known points (an interpolated table) is integrated interval by
interval between them, so no panel straddles a kink or is bisected towards it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np


class NonConvergence(Exception):
    """Subdivision budget exhausted with the error estimate above tolerance."""


class NonFiniteSample(Exception):
    """The integrand returned NaN or Inf at a sampled node."""


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    panel_hint: Optional[float] = None  # initial panel width for oscillatory integrands

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.panel_hint is not None and not self.panel_hint > 0:
            raise ValueError("panel_hint must be positive")


@dataclass(frozen=True)
class QuadratureResult:
    """value and abs_error_estimate are floats, or arrays of length m for
    an integrand returning (m, n); evaluations counts the nodes sampled."""

    value: float
    abs_error_estimate: float
    evaluations: int


# Positive abscissae of the 15-point Kronrod extension of 7-point Gauss
# (QUADPACK values) and the matching weights.
_XGK = np.array([0.991455371120813, 0.949107912342759, 0.864864423359769,
                 0.741531185599394, 0.586087235467691, 0.405845151377397,
                 0.207784955007898, 0.0])
_WGK = np.array([0.022935322010529, 0.063092092629979, 0.104790010322250,
                 0.140653259715525, 0.169004726639267, 0.190350578064785,
                 0.204432940075298, 0.209482141084728])
_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119,
                0.417959183673469])

# Full 15-node layout, ascending in the reference interval [-1, 1].
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK_FULL = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])

_EPS50 = 50.0 * np.finfo(float).eps
# bisections one pass may make before it gives up with NonConvergence
_MAX_SUBDIVISIONS = 2000
_MAX_SEED_PANELS = 200_000
_BISECT_BATCH = 64
# Panels go to the integrand in chunks whose (m, nodes) result holds at
# most this many values (512 kB of float64), once m is known. The first call
# of a pass comes before that: up to _SMALL_CALL panels go in it whole, so
# it holds up to _SMALL_CALL * 15 * m values; more start with one panel.
_BLOCK_ELEMS = 1 << 16
_SMALL_CALL = 64
# omega b past which a sin(omega x) integral over [0, b] takes the far pass beyond
# 1/omega: that pass costs 2-3 ms for any omega, pi/omega panels 3.4-4 ms here
_FAR_CROSSOVER = 4000.0

# Gaussian tail bound: exp(-s^2) < 1e-30 at s = sqrt(ln 1e30).
_TRUNC_SIGMA = math.sqrt(math.log(1e30))


def _sample(f, nodes: np.ndarray, shape) -> tuple:
    """f at the (panels, k) nodes as (rows, panels, k), and its component
    shape: () for an integrand returning (n,), (m,) for one returning (m, n).
    `shape` is that of an earlier call, or None."""
    flat = nodes.ravel()
    y = np.asarray(f(flat), dtype=float)
    if y.ndim > 2:
        raise ValueError(f"integrand returned shape {y.shape}; expected (n,) or (m, n)")
    got = y.shape[:1] if y.ndim == 2 else ()
    if shape is not None and got != shape:
        raise ValueError(f"integrand returned {got or 'scalar'} components, "
                         f"earlier {shape or 'scalar'}")
    if y.shape != got + flat.shape:
        y = np.broadcast_to(y, got + flat.shape)
    rows = got[0] if got else 1
    bad = ~np.isfinite(y)
    if bad.any():
        where = flat[bad.reshape(rows, -1).any(axis=0)][0]
        raise NonFiniteSample(f"integrand returned a non-finite value at x={float(where)!r}")
    return y.reshape((rows,) + nodes.shape), got


def _gauss_kronrod(f, lefts: np.ndarray, rights: np.ndarray, shape):
    """Apply the Gauss-Kronrod pair to a batch of panels in one call to f:
    the panel values and error estimates, each (rows, panels), and the
    shape of one integral's value (see _sample)."""
    mid, half = 0.5 * (lefts + rights), 0.5 * (rights - lefts)
    y, got = _sample(f, mid[:, None] + half[:, None] * _NODES[None, :], shape)
    resk = half * (y * _WK_FULL).sum(axis=-1)
    resg = half * (y * _WG_FULL).sum(axis=-1)
    # in place, so that at most one temporary of y's size is alive
    tmp = np.abs(y)
    tmp *= _WK_FULL
    resabs = np.abs(half) * tmp.sum(axis=-1)
    width = rights - lefts
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(width > 0, resk / np.where(width > 0, width, 1.0), 0.0)
    np.subtract(y, mean[..., None], out=tmp)
    np.abs(tmp, out=tmp)
    tmp *= _WK_FULL
    resasc = np.abs(half) * tmp.sum(axis=-1)
    raw = np.abs(resk - resg)
    scaled = np.where((resasc > 0) & (raw > 0), resasc * np.minimum(
        1.0, (200.0 * raw / np.where(resasc > 0, resasc, 1.0)) ** 1.5), raw)
    err = np.maximum(scaled, _EPS50 * resabs)
    return resk, err, got


def _dct1(n: int) -> np.ndarray:
    """Values at cos(j pi/n), j = 0..n, to Chebyshev coefficients (DCT-I)."""
    m = (2.0 / n) * np.cos(np.outer(np.arange(n + 1), np.arange(n + 1)) * np.pi / n)
    m[:, [0, n]] *= 0.5
    m[[0, n], :] *= 0.5
    return m


# The modified Clenshaw-Curtis rule (Piessens & Branders 1975; QUADPACK's
# QAWO): 25 nodes cos(j pi/24), the 13 even ones giving the coarser series.
_CC_NODES = np.cos(np.arange(25) * np.pi / 24)
_CC25, _CC13 = _dct1(24), _dct1(12)
_T_INTEGRALS = np.zeros(97)  # Int_-1^1 T_k(t) dt
_T_INTEGRALS[::2] = 2.0 / (1.0 - np.arange(0.0, 97.0, 2.0) ** 2)
# Clenshaw-Curtis on 97 nodes: exp(i lam _FINE_X) @ _FINE_TW is I_k(lam) to rounding, lam <= 24
_FINE_X = np.cos(np.arange(97) * np.pi / 96)
_FINE_TW = (_dct1(96).T @ _T_INTEGRALS)[:, None] * np.cos(np.outer(np.arccos(_FINE_X), np.arange(25)))


def _fourier_moments(lam: np.ndarray) -> np.ndarray:
    """I_k(lam) = Int_-1^1 T_k(t) e^{i lam t} dt, k = 0..24, as (panels, 25).

    A 97-node Clenshaw-Curtis sum up to lam = 24; above, the forward
    recurrence from integration by parts, which is stable there."""
    big = np.maximum(lam, 24.0)
    sin, cos, inv = np.sin(big), np.cos(big), 1.0 / (1j * big)
    # E_m/(i lam), E_m = e^{i lam} - (-1)^m e^{-i lam}, for m even and odd
    e_m = (2j * sin * inv, 2.0 * cos * inv)
    m = np.empty((25, lam.size), dtype=complex)
    m[0] = 2.0 * sin / big
    m[1] = 2j * (sin - big * cos) / big**2
    m[2] = e_m[0] - 4.0 * inv * m[1]
    for k in range(2, 24):
        m[k + 1] = ((k + 1) / (k - 1) * m[k - 1] - 2 * (k + 1) * inv * m[k]
                    - 2.0 / (k - 1) * e_m[(k - 1) % 2])
    low = lam <= 24.0
    m[:, low] = (np.exp(1j * lam[low, None] * _FINE_X) @ _FINE_TW).T
    return m.T


def _sin_clenshaw_curtis(f, lefts: np.ndarray, rights: np.ndarray, shape, omega: float):
    """_gauss_kronrod's contract for Int f0(x) + f1(x) sin(omega x) dx, with
    (f0, f1) returned as (2, n): f0 by Clenshaw-Curtis, f1 exactly against
    sin(omega x) through the moments I_k. The error is the change from the
    13-node series to the 25-node one."""
    mid, half = 0.5 * (lefts + rights), 0.5 * (rights - lefts)
    y, _ = _sample(f, mid[:, None] + half[:, None] * _CC_NODES[None, :], (2,))
    moments = _fourier_moments(omega * half)
    phase = np.exp(1j * omega * mid)
    q = []
    for dct, ys in ((_CC25, y), (_CC13, y[:, :, ::2])):
        c, n = ys @ dct.T, dct.shape[0]
        q.append(half * (c[0] @ _T_INTEGRALS[:n] + (phase * (c[1] * moments[:, :n]).sum(1)).imag))
    return q[0][None], np.abs(q[0] - q[1])[None], ()


def _rule(omega: Optional[float]) -> tuple:
    """(panel rule, nodes, values sampled per panel and component): Gauss-Kronrod,
    or with omega the sin-weighted rule, which samples a pair (f0, f1)."""
    if omega is None:
        return _gauss_kronrod, 15, 15
    return partial(_sin_clenshaw_curtis, omega=omega), _CC_NODES.size, 2 * _CC_NODES.size


def _eval_panels(f, lefts: np.ndarray, rights: np.ndarray, shape=None, rule=_rule(None)):
    """The panel rule, a _rule triple, over the panels in chunks (see _BLOCK_ELEMS)."""
    apply, _, samples = rule
    n, start, vals, errs = lefts.size, 0, None, None
    while start < n:
        if shape is None:
            step = n if n <= _SMALL_CALL else 1
        else:
            step = max(1, _BLOCK_ELEMS // (samples * (shape[0] if shape else 1)))
        if start == 0 and step >= n:
            return apply(f, lefts, rights, shape)
        v, e, shape = apply(f, lefts[start:start + step], rights[start:start + step], shape)
        if vals is None:
            vals, errs = np.empty((v.shape[0], n)), np.empty((v.shape[0], n))
        vals[:, start:start + step], errs[:, start:start + step] = v, e
        start += step
    return vals, errs, shape


def _ordered_sum(x: np.ndarray) -> np.ndarray:
    """Left-to-right sum along the last axis, as a running total from 0."""
    return np.cumsum(x, axis=-1)[..., -1] + 0.0


def _worst_panels(priority: np.ndarray, budget: int) -> np.ndarray:
    """Positions of at most `budget` panels of positive priority, highest
    first; equal priorities go to the earlier position."""
    if budget <= 0:
        return np.empty(0, dtype=np.intp)
    if priority.size > budget:
        kth = np.partition(priority, priority.size - budget)[priority.size - budget]
        cand = np.flatnonzero(priority >= kth)
    else:
        cand = np.arange(priority.size)
    cand = cand[np.argsort(-priority[cand], kind="stable")][:budget]
    return cand[priority[cand] > 0.0]


def _grown(x: np.ndarray, need: int) -> np.ndarray:
    """x with its last axis extended to at least `need` (doubling)."""
    out = np.empty(x.shape[:-1] + (max(need, 2 * x.shape[-1]),))
    out[..., :x.shape[-1]] = x
    return out


def _adaptive(f: Callable, a: float, b: float, cfg: QuadratureConfig,
              omega: Optional[float] = None, edges: Optional[np.ndarray] = None) -> tuple:
    """The engine loop of integrate: (vals, errs, lefts, order, shape, evaluations).
    vals and errs, (rows, panels), are the surviving panels sorted by left
    edge, lefts[order] their left edges; the last panel ends at b. With
    omega, panels use _sin_clenshaw_curtis at that frequency; edges, from
    a to b, replace the seed panels of panel_hint."""
    rule = _rule(omega)
    asked = 1
    if edges is None:
        if cfg.panel_hint is not None and b > a:
            asked = int(np.ceil((b - a) / cfg.panel_hint))
        n0 = min(asked, _MAX_SEED_PANELS)
        edges = a + (b - a) * np.arange(n0 + 1) / n0
    n0 = edges.size - 1
    lefts, rights = edges[:-1], edges[1:]
    vals, errs, shape = _eval_panels(f, lefts, rights, rule=rule)
    evaluations = rule[1] * n0
    total_val, total_err = vals.sum(axis=1), errs.sum(axis=1)
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total_val))
    # Panels live in columns 0..n-1 in creation order; a split panel is
    # retired by a negative priority, its halves are appended.
    n, weight, priority, splits = n0, None, None, 0

    while (total_err > tol).any():
        if weight is None:
            weight = (tol.max() / tol)[:, None]
            priority = (errs * weight).max(axis=0)
        pick = _worst_panels(priority[:n], min(_BISECT_BATCH, _MAX_SUBDIVISIONS - splits))
        if not pick.size:
            worst = int(np.argmax(total_err / tol))
            where = f" in component {worst} of {total_err.size}" if shape else ""
            capped = (f"; panel_hint asked for {asked} seed panels, {n0} used"
                      if asked > n0 else "")
            raise NonConvergence(f"error estimate {total_err[worst]:.3e} above tolerance "
                                 f"{tol[worst]:.3e} after {splits} subdivisions of "
                                 f"[{a!r}, {b!r}]{where}{capped}")
        splits += pick.size
        # the running totals drop the split panels one at a time, in order
        total_val = np.subtract.reduce(np.vstack([total_val, vals[:, pick].T]), axis=0)
        total_err = np.subtract.reduce(np.vstack([total_err, errs[:, pick].T]), axis=0)
        priority[pick] = -1.0
        left, right = lefts[pick], rights[pick]
        mid = 0.5 * (left + right)
        la = np.column_stack([left, mid]).ravel()
        ra = np.column_stack([mid, right]).ravel()
        new_vals, new_errs, _ = _eval_panels(f, la, ra, shape, rule)
        evaluations += rule[1] * la.size
        total_val = total_val + new_vals.sum(axis=1)
        total_err = total_err + new_errs.sum(axis=1)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total_val))
        if n + la.size > lefts.size:
            lefts, rights, vals, errs, priority = (
                _grown(x, n + la.size) for x in (lefts, rights, vals, errs, priority))
        new = slice(n, n + la.size)
        lefts[new], rights[new] = la, ra
        vals[:, new], errs[:, new] = new_vals, new_errs
        priority[new] = (new_errs * weight).max(axis=0)
        n += la.size

    order = slice(None)
    if splits:
        # a stable sort keeps creation order among equal left edges
        live = np.flatnonzero(priority[:n] >= 0.0)
        order = live[np.argsort(lefts[live], kind="stable")]
        vals, errs = vals[:, order], errs[:, order]
    return vals, errs, lefts, order, shape, evaluations


def _sin_passes(f, pair, omega: float, b: float, cfg, far_cfg) -> list:
    """The passes, as _adaptive's arguments, of Int_0^b f with f = f0 +
    f1 sin(omega x) and pair giving (f0, f1): f at cfg over [0, b], seed
    panels at most pi/omega wide; past omega b = _FAR_CROSSOVER, f over
    [0, 1/omega] and pair at far_cfg from the decades 10^j/omega to b."""
    cfg = replace(cfg, panel_hint=min(cfg.panel_hint or math.inf, math.pi / omega))
    if omega * b <= _FAR_CROSSOVER:
        return [(f, 0.0, b, cfg, None, None)]
    decades = 10.0 ** np.arange(math.ceil(math.log10(omega * b))) / omega
    return [(f, 0.0, 1.0 / omega, cfg, None, None),
            (pair, 1.0 / omega, b, far_cfg, omega, np.append(decades[decades < b], b))]


def integrate(f: Callable, a: float, b: float, cfg: Optional[QuadratureConfig] = None) -> QuadratureResult:
    """Adaptive integration of f over [a, b].

    The returned abs_error_estimate is the summed panel estimate; the result
    satisfies |value - integral| <= max(abs_tol, rel_tol*|value|) unless
    NonConvergence is raised. For an integrand returning (m, n), value and
    abs_error_estimate are arrays of length m and every component meets
    that test on its own. Each bisection round splits the panels with the
    largest error relative to the seed pass's tolerance, taking the worst
    component of each panel. Deterministic for identical inputs: panel
    selection ties break on creation order and the final sum runs left to
    right over the surviving panels. NonConvergence names the budget, the
    interval and any cap of panel_hint's seed panels at _MAX_SEED_PANELS.
    """
    cfg = cfg or QuadratureConfig()
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a > b:
        raise ValueError("need a <= b")
    vals, errs, _, _, shape, evaluations = _adaptive(f, a, b, cfg)
    value, error = _ordered_sum(vals), _ordered_sum(errs)
    if not shape:
        return QuadratureResult(float(value[0]), float(error[0]), evaluations)
    return QuadratureResult(value, error, evaluations)


def integrate_sin_tail(f: Callable, pair: Callable, omega: float, b: float,
                       cfg: QuadratureConfig, far_cfg: QuadratureConfig) -> QuadratureResult:
    """Integrate f over [0, b], f being f0 + f1 sin(omega x) and pair
    returning (f0, f1) as (2, n). The engine decides the passes: integrate
    at cfg with seed panels at most pi/omega wide over [0, b], or, past
    omega b = _FAR_CROSSOVER, over [0, 1/omega] plus a far pass of pair at
    far_cfg, whose cost grows as ln omega. The result sums the passes'."""
    first, *far = _sin_passes(f, pair, omega, b, cfg, far_cfg)
    near = integrate(*first[:4])  # by name, so that a shim on integrate sees it
    if not far:
        return near
    vals, errs, *_, evaluations = _adaptive(*far[0])
    return QuadratureResult(near.value + float(_ordered_sum(vals)[0]),
                            near.abs_error_estimate + float(_ordered_sum(errs)[0]),
                            near.evaluations + evaluations)


def integrate_semi_infinite(f: Callable, a: float, decay_scale: float,
                            cfg: Optional[QuadratureConfig] = None) -> QuadratureResult:
    """Integrate f over [a, inf) assuming at least Gaussian decay.

    The integrand must fall off at least as fast as exp(-(x/decay_scale)^2)
    beyond the truncation point a + decay_scale*sqrt(ln 1e30), where the
    Gaussian bound drops below 1e-30; the truncated tail is folded into the
    error estimate.
    """
    if not decay_scale > 0:
        raise ValueError("decay_scale must be positive")
    res = integrate(f, a, a + decay_scale * _TRUNC_SIGMA, cfg)
    return QuadratureResult(res.value, res.abs_error_estimate + 1e-30 * abs(res.value),
                            res.evaluations)


def integrate_nested(weight: Callable, inner: Callable, a: float, b: float, t_max: Callable,
                     cfg: QuadratureConfig, inner_cfg: QuadratureConfig,
                     far: Optional[tuple] = None) -> QuadratureResult:
    """Integrate weight(x) inner(t) over x in [a, b], t in [0, t_max(x)].

    weight, inner and t_max take 1-D arrays (a scalar result broadcasts);
    t_max must be finite, non-negative and largest at a or b (t_top). One
    adaptive pass of inner over [0, t_top] at inner_cfg tabulates
    H(tau) = Int_0^tau inner. far = (pair, omega) says that inner is
    f0 + f1 sin(omega t), pair returning (f0, f1) as (2, n); the engine
    then splits the table as integrate_sin_tail does, both passes at inner_cfg.
    A node x reads H(t_max(x)) as the prefix sum of the panels left of tau
    plus one panel of the cut panel's rule (15 Kronrod or 25 sin-weighted
    nodes) from its left edge to tau, so a tau of 0 or on an edge samples
    nothing. The outer pass is integrate(..., cfg). abs_error_estimate adds
    (b - a) max|weight| (table estimate + largest partial-panel estimate);
    evaluations counts table, outer and partial-panel nodes. NonConvergence
    names the axis; the inner text names the table pass's range."""

    def limits(xs: np.ndarray, top: float) -> np.ndarray:
        tops = np.broadcast_to(np.asarray(t_max(xs), dtype=float), xs.shape)
        bad = ~(np.isfinite(tops) & (tops >= 0.0) & (tops <= top))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"inner limit must be finite, non-negative and at most its value "
                             f"at a or b, got {float(tops[k])!r} at x={float(xs[k])!r}")
        return tops

    t_top = float(limits(np.array([a, b], dtype=float), math.inf).max())
    passes = ([(inner, 0.0, t_top, inner_cfg, None, None)] if far is None
              else _sin_passes(inner, *far, t_top, inner_cfg, inner_cfg))
    reads = [(f, _rule(omega)) for f, _, _, _, omega, _ in passes]
    edges, prefix, near, table_err, table_evals = np.zeros(1), np.zeros(1), 1, 0.0, 0
    if t_top > 0.0:
        try:
            runs = [_adaptive(*p) for p in passes]
        except NonConvergence as exc:
            raise NonConvergence(f"inner axis: {exc}") from exc
        # panels below `near` are Gauss-Kronrod, the rest the sin-weighted rule
        near = runs[0][0].shape[1]
        edges = np.append(np.concatenate([lefts[order] for _, _, lefts, order, *_ in runs]), t_top)
        prefix = np.concatenate([[0.0], np.cumsum(np.concatenate([v[0] for v, *_ in runs]))])
        table_err = sum(float(_ordered_sum(e)[0]) for _, e, *_ in runs)
        table_evals = sum(run[-1] for run in runs)
    partial_evals, partial_err, weight_max = 0, 0.0, 0.0

    def outer_integrand(xs: np.ndarray) -> np.ndarray:
        nonlocal partial_evals, partial_err, weight_max
        taus = limits(xs, t_top)
        j = np.searchsorted(edges, taus, side="right") - 1
        h = prefix[j]
        cut, far_side = taus > edges[j], j >= near
        for k, (f, rule) in enumerate(reads):
            sel = np.flatnonzero(cut & (far_side == k))
            if sel.size:
                v, e, _ = _eval_panels(f, edges[j[sel]], taus[sel], rule=rule)
                h[sel] += v[0]
                partial_evals += rule[1] * sel.size
                partial_err = max(partial_err, float(e.max()))
        w = np.broadcast_to(np.asarray(weight(xs), dtype=float), xs.shape)
        weight_max = max(weight_max, float(np.abs(w).max()))
        return w * h

    try:
        outer = integrate(outer_integrand, a, b, cfg)
    except NonConvergence as exc:
        raise NonConvergence(f"outer axis: {exc}") from exc
    inner_err = (b - a) * weight_max * (table_err + partial_err)
    return QuadratureResult(outer.value, outer.abs_error_estimate + inner_err,
                            outer.evaluations + table_evals + partial_evals)
