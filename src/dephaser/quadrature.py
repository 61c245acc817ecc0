"""Deterministic adaptive quadrature on finite, truncated semi-infinite,
and nested 2-D domains.

Panels use an embedded 7-point Gauss / 15-point Kronrod pair. The rule is
open (no endpoint evaluations), so integrands with a removable singularity
at an interval edge are handled as long as every sampled node is finite.
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
integral in one pass and reads it at every outer node.

Kinks and breakpoints are left to the caller: an integrand that is smooth
only between known points (an interpolated table) is integrated interval by
interval between them, so no panel straddles a kink or is bisected towards it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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

# Gaussian tail bound: exp(-s^2) < 1e-30 at s = sqrt(ln 1e30).
_TRUNC_SIGMA = math.sqrt(math.log(1e30))


def _gauss_kronrod(f, lefts: np.ndarray, rights: np.ndarray, shape):
    """Apply the Gauss-Kronrod pair to a batch of panels in one call to f.

    Returns the panel values and error estimates, each (rows, panels), and
    the shape of one integral's value: () for an integrand returning (n,),
    (m,) for one returning (m, n). `shape` is that of an earlier call, or None.
    """
    mid, half = 0.5 * (lefts + rights), 0.5 * (rights - lefts)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
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
    y = y.reshape((rows,) + nodes.shape)
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


def _chunk(shape) -> int:
    """Panels per integrand call for integrals of the given value shape."""
    return max(1, _BLOCK_ELEMS // (15 * (shape[0] if shape else 1)))


def _eval_panels(f, lefts: np.ndarray, rights: np.ndarray, shape=None):
    """_gauss_kronrod over the panels in chunks (see _BLOCK_ELEMS)."""
    n = lefts.size
    if n <= (_SMALL_CALL if shape is None else _chunk(shape)):
        return _gauss_kronrod(f, lefts, rights, shape)
    step = 1 if shape is None else _chunk(shape)
    v, e, shape = _gauss_kronrod(f, lefts[:step], rights[:step], shape)
    vals, errs = np.empty((v.shape[0], n)), np.empty((v.shape[0], n))
    vals[:, :step], errs[:, :step] = v, e
    start, step = step, _chunk(shape)
    while start < n:
        stop = min(start + step, n)
        vals[:, start:stop], errs[:, start:stop], _ = _gauss_kronrod(
            f, lefts[start:stop], rights[start:stop], shape)
        start = stop
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


def _adaptive(f: Callable, a: float, b: float, cfg: QuadratureConfig) -> tuple:
    """The engine loop of integrate: (vals, errs, lefts, order, shape, evaluations).
    vals and errs, (rows, panels), are the surviving panels sorted by left
    edge, lefts[order] their left edges; the last panel ends at b."""
    n0 = asked = 1
    if cfg.panel_hint is not None and b > a:
        asked = int(np.ceil((b - a) / cfg.panel_hint))
        n0 = max(1, min(asked, _MAX_SEED_PANELS))
    edges = a + (b - a) * np.arange(n0 + 1) / n0
    lefts, rights = edges[:-1], edges[1:]
    vals, errs, shape = _eval_panels(f, lefts, rights)
    evaluations = 15 * n0
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
        new_vals, new_errs, _ = _eval_panels(f, la, ra, shape)
        evaluations += 15 * la.size
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
                     cfg: QuadratureConfig, inner_cfg: QuadratureConfig) -> QuadratureResult:
    """Integrate weight(x) inner(t) over x in [a, b], t in [0, t_max(x)].

    weight, inner and t_max take 1-D arrays (a scalar result broadcasts);
    t_max must be finite, non-negative and largest at a or b (t_top). One
    adaptive pass of inner over [0, t_top] at inner_cfg tabulates
    H(tau) = Int_0^tau inner; a node x reads H(t_max(x)) as the prefix sum
    of the panels left of tau plus one 15-node Kronrod panel from the edge
    below tau, so a tau of 0 or on an edge samples nothing. The outer pass
    is integrate(..., cfg). abs_error_estimate adds (b - a) max|weight|
    (table estimate + largest partial-panel estimate); evaluations counts
    table nodes, outer nodes and 15 per partial panel. NonConvergence names
    the axis; the inner text names [0, t_top]."""

    def limits(xs: np.ndarray, top: float) -> np.ndarray:
        tops = np.broadcast_to(np.asarray(t_max(xs), dtype=float), xs.shape)
        bad = ~(np.isfinite(tops) & (tops >= 0.0) & (tops <= top))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"inner limit must be finite, non-negative and at most its value "
                             f"at a or b, got {float(tops[k])!r} at x={float(xs[k])!r}")
        return tops

    t_top = float(limits(np.array([a, b], dtype=float), math.inf).max())
    edges, prefix, table_err, table_evals = np.zeros(1), np.zeros(1), 0.0, 0
    if t_top > 0.0:
        try:
            vals, errs, lefts, order, _, table_evals = _adaptive(inner, 0.0, t_top, inner_cfg)
        except NonConvergence as exc:
            raise NonConvergence(f"inner axis: {exc}") from exc
        edges = np.append(lefts[order], t_top)
        prefix = np.concatenate([[0.0], np.cumsum(vals[0])])
        table_err = float(_ordered_sum(errs)[0])
    partial_evals, partial_err, weight_max = 0, 0.0, 0.0

    def outer_integrand(xs: np.ndarray) -> np.ndarray:
        nonlocal partial_evals, partial_err, weight_max
        taus = limits(xs, t_top)
        j = np.searchsorted(edges, taus, side="right") - 1
        h = prefix[j]
        cut = np.flatnonzero(taus > edges[j])
        if cut.size:
            v, e, _ = _eval_panels(inner, edges[j[cut]], taus[cut])
            h[cut] += v[0]
            partial_evals += 15 * cut.size
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
