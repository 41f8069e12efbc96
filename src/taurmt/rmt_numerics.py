"""Independent numerical routes to the spectrum-singularity average.

Other layers predict the N point circular average through series or ODE
integration. This module recomputes the same numbers from the defining
integrals, sharing no code with those layers. Three routes:

  * Toeplitz: the average equals det[c_{j-k}] over the weight's Fourier
    coefficients (Heine). c_{-1}, c_0 and c_1 come from an adaptive panel
    quadrature of w(theta) e^{-ik theta}; on the circle and on the real
    segment 0 < t < 1 the rest follow from the weight's three-term
    recurrence wherever its measured error growth keeps the table within
    tol, and from the same quadrature elsewhere (see the recurrence
    notes).
  * Direct: for N <= 3, the literal N fold angular integral with the
    squared Vandermonde factor, as a tensor-product rule whose sum over
    node tuples runs through the factor's rank-3 form in O(nodes) (see
    the oracle notes); this is the oracle the Toeplitz route is checked
    against.
  * Fredholm: det(I - xi K) for the sine kernel sin(x-y)/(pi (x-y)) on
    (-t, t) by Gauss-Legendre Nystrom discretization, the expected bulk
    scaling limit of the normalized average, and its log-derivatives in
    t, from one pivoted Cholesky factor of each parity block of rank r:
    O(m r^2) work, stopped at a residual trace of eps times the block's,
    and refused when its rounding bound leaves no correct digit (see the
    Fredholm notes). A Richardson harness in 1/N connects the two.

Quadrature notes. The weight has algebraic singularities at the arc ends
theta = +-pi (exponent 2 omega_1) and at the angle where 1 + t z vanishes
(exponent 2 mu); on the defining circle the modified measure also jumps
there. Panels split at these angles and each panel maps to (0, 1) under a
tanh-sinh substitution, which handles endpoint singularities of any
integrable exponent. Nodes are never formed by subtracting nearly equal
angles: every node carries exact distances to both panel ends, and the
singular factors are evaluated as trigonometric functions of those
distances, so precision survives where the integrand varies fastest.
No tanh-sinh answer is accepted before level 4, so levels 0..4 are
sampled in one call of the integrand on their concatenated nodes and
summed level by level from those rows; the endpoint-decay check of a
level-4 answer reuses the same samples.

Panels are integrated as rows of a batch (_integrate_rows): every arc
panel of every weight in a pass is one row of one integrand, every leg
one row of another, and levels 0..4 of up to _CHUNK_ROWS nodes' worth of
rows are one call. A row's panel data is a column broadcast across its
nodes, as a scalar is across a lone panel's, and its level sums are one
stacked product over rows laid out as a lone panel's would be, so each
row's value, error and refusal are bit for bit those of the panel on its
own. Convergence and the edge check are per row; a row that needs
levels past 4 continues alone, and only when its table is asked for.
toeplitz_grid batches the seeds of a whole grid of t this way, and
bulk_limit_grid, over a grid of x, makes one toeplitz_grid call per
dimension N at t = exp(-x/N), with every normalization from one sweep
of barnes_prefactors.

The phase factors e^{-ik theta} of a coefficient table come from running
products, not one complex exponential per entry: z = e^{-i theta} is
formed once per node and the columns fill outward from k = 0 by
multiplying with powers of z and 1/z, a block of m columns at a time.
Rounding grows with |k| either way: the products compound the rounding
of z, while exp(-ik theta) rounds its argument to |k theta| ulps.
Against a 40-digit reference at 300 nodes and |k| <= 63, the error of a
column sum is at most 3.5e-16 (products) against 6.6e-16 (exponentials)
times the sum of |integrand| on a real arc, and 5.7e-16 against 2.5e-15
on a complex leg.

For |t| < 1 the coefficients are the radial-in-t analytic continuation of
the on-circle ones. Writing the second factor as a power of 2 sin(zeta),
with zeta a complex half-angle whose real part is kept inside [0, pi/2]
through the complementary-angle identity, pins the base to the closed
right half plane, so the principal power is the correct continuation on
both sides of the wrap angle pi - Re phi; the two sides differ by exactly
the phase jump the continued power must carry across the cut that lands
on the contour there. The subtracted arc of the modified measure becomes
a straight leg from pi - phi to pi in the complex angle plane with the
same sine structure. On the circle all of this collapses back to the
real-modulus weight.

Recurrence notes. z(1 + z)(1 + tz) w'(z)/w(z) is a quadratic in
z = e^{i theta}, so the coefficients obey a three-term recurrence in k
(_recurrence_table) with characteristic roots -1 and -t. Where it holds
and is stable, three quadrature columns replace 2 kmax + 1, and the
tanh-sinh level is set by |k| <= 1 instead of the slowest high-|k|
column. Per regime:

  * on the circle both roots have modulus 1: forward (k > 1) and backward
    (k < -1) stepping keep the seeds' accuracy, and t is rebuilt from the
    snapped phase so that it names the weight the quadrature integrates;
  * on the real segment 0 < t < 1 forward stepping is stable, but
    backward stepping multiplies the seeds' error by about t^{-|k|}; the
    amplification is measured per table, and a table it would carry past
    tol comes from quadrature (near t = 1 most recur, t = 0.3 at
    kmax = 31 does not);
  * for complex t strictly inside the disc the continued weight jumps at
    the wrap angle, the identity gains a boundary term it does not carry,
    and the whole table comes from quadrature.

Tables with kmax <= 1 are the quadrature's own. Three-term recurrences and
the stability of each direction: Gautschi, SIAM Rev. 9 (1967) 24.

Over a grid of t (toeplitz_grid) the work is split in three: the steps
and amplification at every t (_recurrence_steps), so that a t they
refuse skips its seeds; one batched quadrature pass for the seeds of the
rest (_quadrature_tables at kmax = 1); then, t by t, the scalar march
or the t's own full quadrature pass. The march and the amplification
stay scalar Python: over 15 t at kmax = 31 (2-core x86_64), running the
same steps as numpy arrays across t took 1.14 ms against 1.01 ms,
counting the conversion of the steps to arrays, and 0.84 ms without it.

Oracle notes. |e^{i a} - e^{i b}|^2 = 2 - 2 cos(a - b) is a bilinear form
of rank 3 in f(theta) = (1, sin d, 2 sin^2(d/2)), d = theta - theta_0, so
the tensor-product sum over N <= 3 node tuples reduces to traces of the
3 x 3 moment matrix sum_a u_a f_a f_a^T (_vandermonde_sum): the same sum
as the dense pairwise matrix, without forming it. The centre theta_0 is
the argument of sum_a |u_a| e^{i theta_a}. Uncentred, the basis
(1, cos theta, sin theta) makes each entry O(1) while the factor itself
is O(width^2) on a short arc: the cancellation costs 1.6e-8 relative at
N = 3, xi* = 1, phase 6.1 (which leaves an arc of width 0.18), and up to
1e-5 over random weights and phases. Centred, the entries are O(1), O(d)
and O(d^2) like the factor, and the sum stays within a few ulps of the
literal one (1.6e-15 over the same draws).

Fredholm notes. The sine kernel and its t-derivatives are even functions
of u - v, and the Gauss-Legendre rule is symmetric about 0, so the
Nystrom matrix commutes with the reflection u -> -u. In the basis of
even and odd node pairs it is block diagonal (Gaudin's factorization
E = E+ E-), each block about half the order, with the same exponential
convergence in m. An odd rule's centre node belongs to the even block.
The determinant, its log and the resolvent traces are sums or products
over the two blocks.

The kernel is integrable (Its, Izergin, Korepin and Slavnov, Int. J.
Mod. Phys. B 4 (1990) 1003): by the addition theorem both blocks come
from sin tp and cos tp on the m/2 positive nodes p, O(m) trig values,
so any one column of a block costs O(m) (_ParityBlock.column), and
the t-derivative kernels have rank 1, 2 and 3 in three vectors V per
block.

For real t both blocks are positive semidefinite with eigenvalues in
[0, 1), and they are numerically of low rank: at a residual trace of
eps times the block's, the rank is 2 to 12 for t <= 15 and does not
grow with m. _factor_blocks factors each block once by diagonally
pivoted Cholesky, generating only the r pivot columns (Harbrecht,
Peters and Schneider, Appl. Numer. Math. 62 (2012) 428; for the
Nystrom route, Bornemann, Math. Comp. 79 (2010) 871): O(m r^2) work in
place of an O(m^3) LU, 0.37 ms against 3.1 ms per call at m = 600 and
xi = 1 (one core, x86_64). Both entry points read that factor and its
one rounding guard. Against a 50-digit evaluation of the same blocks
the determinant's relative error stays within a few times a dense LU's
(1.3e-13, 6.0e-12 and 7.0e-11 against 1.2e-14, 6.4e-13 and 3.5e-11 at
t = 4, 6, 8 and m = 600); both are set by the eigenvalues nearest
1/xi, which is what the guard measures. The log-derivatives, from the
same factor by Woodbury, agree with a 40-digit evaluation of the same
blocks with dense traces within 2.2e-13, and with the dense traces of
the whole m-node matrix within 7.4e-13 (m <= 300): rounding in the
generated columns, which a tighter stop of the factor does not move.
For complex t the blocks are complex symmetric, not semidefinite, so
the half-width is a positive real at every entry point.

The rule resolves the kernel only while |t| <= m/2, and every entry
point refuses a larger half-width: at xi = 0.5, |E(m) - E(2m)| / E stays
below 8e-14 up to t = 25 at m = 40 and t = 60 at m = 80, but reaches
1e-9 at t = 30, m = 40, and overflows far past the bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .complexfn import barnes_prefactors
from .monodromy_vi import SSEParams

__all__ = [
    "QuadratureError",
    "WeightSpec",
    "FredholmSpec",
    "BulkLimitResult",
    "fourier_table",
    "toeplitz_an",
    "toeplitz_grid",
    "quad_oracle_an",
    "fredholm_sine",
    "fredholm_log_derivatives",
    "bulk_limit_an",
    "bulk_limit_grid",
]

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_TS_TAU_MAX = 6.0
_TS_MIN_LEVEL = 4
_TS_MAX_LEVEL = 11
_CHUNK_ROWS = 8192
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_LOG_MAX = math.log(float(np.finfo(float).max))


class QuadratureError(RuntimeError):
    """Refinement stopped before reaching the requested accuracy."""

    def __init__(self, message: str, achieved: float, target: float):
        self.achieved = float(achieved)
        self.target = float(target)
        super().__init__(
            f"{message}: achieved {achieved:.3e}, target {target:.3e}")


@dataclass(frozen=True)
class WeightSpec:
    """Circular weight with one fixed and one movable singular point.

    t = e^{i phi} places the movable point; |t| = 1 is the defining
    circle and |t| < 1 is read as the radial analytic continuation into
    the disc. SSEParams enforces the integrability of each exponent on
    its own. Where t sits on the circle and the wrap angle snaps onto the
    arc end (_arc_panels), the two singular points merge into one of
    exponent 2 mu + 2 omega_1, and a weight with Re(2 mu + 2 omega_1) <= -1
    is refused here: every route to its coefficients starts from a
    WeightSpec.
    """

    p: SSEParams
    t: complex = 1.0 + 0.0j

    def __post_init__(self):
        tt = complex(self.t)
        if tt == 0 or abs(tt) > 1.0 + 1e-12:
            raise ValueError("t must lie in the closed unit disc, not at 0")
        merged = self.p.sigma.real
        if merged <= -1:
            phi = self.phase()
            if phi.imag == 0.0 and len(_arc_panels(phi)) == 1:
                raise ValueError(
                    f"the singular points merge at t = {tt} into exponent "
                    f"Re(2 mu + 2 omega1) = {merged!r} <= -1: not integrable")

    def phase(self) -> complex:
        """Angle phi with t = e^{i phi}, Re phi in [0, 2 pi), Im phi >= 0
        inside the disc.

        A modulus within 1e-12 of 1 snaps onto the circle so the phase
        comes out exactly real. Rounding noise in |t| would otherwise
        regularize the singular points at a ~1e-16 angular scale, which
        for negative exponents shifts integrals at the (1e-16)^(1+2a)
        level, far above quadrature accuracy.
        """
        tt = complex(self.t)
        if abs(abs(tt) - 1.0) <= 1e-12:
            phi = complex(cmath.phase(tt), 0.0)
        else:
            phi = -1j * cmath.log(tt)
        if phi.real < 0.0:
            phi += _TWO_PI
        return phi


def _wrap_angle(a: float) -> float:
    """Reduce a real angle to (-pi, pi]."""
    r = math.remainder(a, _TWO_PI)
    if r <= -math.pi:
        r += _TWO_PI
    return r


# ---------------------------------------------------------------------------
# tanh-sinh machinery


def _locked(*arrays):
    """Mark cached arrays read-only and return them as a tuple."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _ts_new_nodes(level: int):
    """Nodes joining the tanh-sinh rule on (0, 1) at this level, read-only.

    Returns (d0, d1, w): distances to the endpoints 0 and 1, each formed
    without cancellation, and the substitution weight. Level 0 is the
    full coarse rule; level l > 0 holds only the odd multiples of its
    step, so the union over levels 0..l is the complete rule at step
    2^-l.
    """
    h = 0.5 ** level
    if level == 0:
        tau = np.arange(-int(_TS_TAU_MAX), int(_TS_TAU_MAX) + 1, dtype=float)
    else:
        top = int(math.floor(_TS_TAU_MAX / h))
        j = np.arange(-top, top + 1)
        tau = (j * h)[j % 2 != 0]
    y = _HALF_PI * np.sinh(tau)
    e = np.exp(-2.0 * np.abs(y))
    near = e / (1.0 + e)
    far = 1.0 / (1.0 + e)
    d0 = np.where(tau < 0.0, near, far)
    d1 = np.where(tau < 0.0, far, near)
    w = math.pi * np.cosh(tau) * near * far
    return _locked(d0, d1, w)


@lru_cache(maxsize=None)
def _ts_full_rule(level: int):
    """Complete tanh-sinh rule at the given level, read-only.

    Returns (d0, d1, w, slices): the nodes of levels 0..level
    concatenated in level order, the weights scaled by 2^-level, and for
    each level k the slice of the concatenation holding its new nodes.
    """
    parts = [_ts_new_nodes(k) for k in range(level + 1)]
    d0 = np.concatenate([p[0] for p in parts])
    d1 = np.concatenate([p[1] for p in parts])
    w = np.concatenate([p[2] for p in parts]) * (0.5 ** level)
    stops = np.cumsum([len(p[2]) for p in parts]).tolist()
    slices = tuple(slice(lo, hi) for lo, hi in zip([0] + stops, stops))
    return (*_locked(d0, d1, w), slices)


def _accepted(vals, err: float, edge: float, tol: float):
    """(vals, err) for a converged row whose outermost summand is edge;
    a non-negligible edge raises QuadratureError instead."""
    if edge > 1e3 * tol:
        raise QuadratureError("endpoint decay too slow for the node range",
                              edge, tol)
    return vals, err


def _refine(f, row: int, total, prev, tol: float):
    """Levels _TS_MIN_LEVEL + 1 .. _TS_MAX_LEVEL of one row of f, from its
    running total and its value at the level before.

    Each level is one call of f on that row, in chunks of _CHUNK_ROWS
    nodes, and the edge check of a converged level one more call on its
    two outermost nodes.
    """
    rows = slice(row, row + 1)
    err = math.inf
    for level in range(_TS_MIN_LEVEL + 1, _TS_MAX_LEVEL + 1):
        d0, d1, w = _ts_new_nodes(level)
        part = None
        for lo in range(0, len(w), _CHUNK_ROWS):
            sl = slice(lo, lo + _CHUNK_ROWS)
            block = w[sl] @ f(rows, d0[sl], d1[sl])[0]
            part = block if part is None else part + block
        total = total + part
        cur = (0.5 ** level) * total
        err = float(np.max(np.abs(cur - prev)))
        if err <= tol:
            ends = [0, -1]
            edge = float(np.max(np.abs(
                w[ends, None] * f(rows, d0[ends], d1[ends])[0])))
            return _accepted(cur, err, edge, tol)
        prev = cur
    raise QuadratureError("tanh-sinh refinement stalled", err, tol)


def _integrate_rows(f, tols):
    """Adaptive tanh-sinh integration over (0, 1) of several vector
    integrands at once, one row each.

    f(rows, d0, d1) -> (number of rows, len(d0), K) samples of the rows
    selected by the slice rows, with d0 and d1 the nodes' exact distances
    to the interval ends. Each row halves its step until the level to
    level change falls below its own tols[row] (absolute, max over
    components), from level _TS_MIN_LEVEL up to _TS_MAX_LEVEL.

    No answer is accepted before _TS_MIN_LEVEL, so levels 0.._TS_MIN_LEVEL
    of as many rows as fit in _CHUNK_ROWS nodes are sampled in one call of
    f on the concatenated nodes (_ts_full_rule), and each level's sums of
    all those rows are one stacked product. Convergence and the edge check
    are then decided per row; a row that has not converged continues from
    its own running total through _refine when its result is first asked
    for. Every row runs the arithmetic of a lone row, so its result does
    not depend on the rows batched with it.

    The substitution reaches endpoint distances ~exp(-pi sinh(tau_max)),
    which is plenty for any fixed integrable exponent, but exponents
    within a few hundredths of -1 decay so slowly that the tail past the
    node range would go missing silently. The outermost summand is
    checked before a converged value is reported (at _TS_MIN_LEVEL from
    the rows already sampled); a non-negligible edge turns into
    QuadratureError instead of a quiet deficit.

    Returns one callable per row, which returns (values, error estimate)
    or raises that row's QuadratureError.
    """
    d0, d1, _, slices = _ts_full_rule(_TS_MIN_LEVEL)
    w_edge = _ts_new_nodes(_TS_MIN_LEVEL)[2][[0, -1], None]
    per_call = max(1, _CHUNK_ROWS // len(d0))
    results = []
    for lo in range(0, len(tols), per_call):
        hi = min(lo + per_call, len(tols))
        head = f(slice(lo, hi), d0, d1)
        total = prev = None
        for level, sl in enumerate(slices):
            part = np.matmul(_ts_new_nodes(level)[2], head[:, sl])
            total = part if total is None else total + part
            if level == _TS_MIN_LEVEL - 1:
                prev = (0.5 ** level) * total
        cur = (0.5 ** _TS_MIN_LEVEL) * total
        errs = np.max(np.abs(cur - prev), axis=1)
        edges = np.max(np.abs(w_edge * head[:, slices[-1]][:, [0, -1]]),
                       axis=(1, 2))
        for j, row in enumerate(range(lo, hi)):
            err, tol = float(errs[j]), tols[row]
            if err <= tol:
                results.append(partial(
                    _accepted, cur[j], err, float(edges[j]), tol))
            else:
                results.append(partial(
                    _refine, f, row, total[j], cur[j], tol))
    return results


# ---------------------------------------------------------------------------
# weight and Fourier coefficients


def _fill_powers(rows: np.ndarray, step: np.ndarray) -> None:
    """Set rows[k] = rows[0] * step**k in place, for every k >= 1.

    Doubling: the block rows[m:2m] is rows[0:m] times step**m, so the
    whole fill is about log2(len(rows)) vectorized products.
    """
    m = 1
    while m < len(rows):
        c = min(m, len(rows) - m)
        np.multiply(rows[:c], step, out=rows[m:m + c])
        m *= 2
        # squared only for a further block: past the last one, the square
        # of a leg's large factor could overflow for nothing
        if m < len(rows):
            step = step * step


def _phase_table(vals: np.ndarray, theta: np.ndarray,
                 ks: np.ndarray) -> np.ndarray:
    """vals[..., None] * exp(-1j * theta[..., None] * ks) by running products.

    theta holds one row of nodes, or several rows along its leading axes.
    ks must be consecutive integers that include 0. The k = 0 column is
    vals itself; the columns above and below it follow as products with
    z = e^{-i theta} and 1/z, which is conj(z) for real theta and
    e^{+i theta} on a complex leg. Returns a (..., nodes, K) view of one
    preallocated (..., K, nodes) array, so each row's (nodes, K) block is
    laid out as if that row had been tabulated alone.
    """
    z = np.exp(-1j * theta)
    zinv = np.exp(1j * theta) if np.iscomplexobj(theta) else z.conj()
    j0 = int(np.argmin(np.abs(ks)))
    table = np.empty(theta.shape[:-1] + (len(ks), theta.shape[-1]),
                     dtype=complex)
    columns = np.moveaxis(table, -2, 0)
    columns[j0] = vals
    _fill_powers(columns[j0:], z)
    _fill_powers(columns[j0::-1], zinv)
    return np.swapaxes(table, -1, -2)


def _arc_panels(phi: complex):
    """Split (-pi, pi) at the wrap angle of the continued second factor.

    Returns (a, b, wrapped) panels. A wrap angle within 1e-12 of the arc
    ends is snapped onto them, leaving a single panel.
    """
    star = _wrap_angle(math.pi - phi.real)
    if math.pi - abs(star) <= 1e-12:
        return [(-math.pi, math.pi, star < 0.0)]
    return [(-math.pi, star, False), (star, math.pi, True)]


def _column(values, dtype=float) -> np.ndarray:
    """One value per row, shaped to broadcast across that row's nodes."""
    return np.array(values, dtype=dtype)[:, None]


def _arc_integrand(p: SSEParams, rows, ks: np.ndarray):
    """Continued weight times e^{-ik theta} on main-arc panels, one row per
    (phi, (a, b, wrapped)) in rows.

    The first singular base is 2 sin of half the distance to the nearer
    arc end. The second is 2 sin(zeta) with zeta the half-angle measured
    from the wrap point, +i Im(phi)/2 on the wrapped side and -i Im(phi)/2
    on the other; whenever Re(zeta) exceeds pi/2 the complementary form
    built from the opposite distance replaces it, so the argument of the
    sine is always resolved from the nearest zero of the base.

    Returns f(sel, d0, d1) -> (rows[sel], nodes, K) for _integrate_rows.
    Each row's panel data is one column broadcast across its nodes, the
    way a scalar is across one panel's nodes, so every node runs the same
    elementwise operations as on a panel of its own.
    """
    a = _column([panel[0] for _, panel in rows])
    b = _column([panel[1] for _, panel in rows])
    width, gap_pi, gap_mpi = b - a, math.pi - b, a + math.pi
    wrapped = _column([panel[2] for _, panel in rows], bool)
    # zeta = (near + shift) / 2 from the wrap point, or
    # (far + far_shift - shift) / 2 from the opposite side; each offset is
    # formed as the scalar a lone panel would add
    shift = _column([1j * phi.imag if panel[2] else -(1j * phi.imag)
                     for phi, panel in rows], complex)
    far_shift = _column([_TWO_PI - phi.real if panel[2] else phi.real
                         for phi, panel in rows])
    two_w1 = 2.0 * p.omega1
    two_mu = 2.0 * p.mu
    om2 = p.omega2

    def f(sel, d0, d1):
        da = width[sel] * d0
        db = width[sel] * d1
        theta = a[sel] + da
        dist_pi = db + gap_pi[sel]
        dist_mpi = da + gap_mpi[sel]
        base1 = 2.0 * np.sin(0.5 * np.minimum(dist_pi, dist_mpi))
        side = wrapped[sel]
        prim = 0.5 * (np.where(side, da, db) + shift[sel])
        alt = 0.5 * ((np.where(side, dist_pi, dist_mpi) + far_shift[sel])
                     - shift[sel])
        zeta = np.where(prim.real > _HALF_PI, alt, prim)
        base2 = 2.0 * np.sin(zeta)
        logw = om2 * theta + two_w1 * np.log(base1) + two_mu * np.log(base2)
        return _phase_table(np.exp(logw), theta, ks)

    return f


def _leg_integrand(p: SSEParams, phis, ks: np.ndarray):
    """Continued weight on the leg theta(u) = pi - (1 - u) phi, u in (0, 1),
    one row per phase in phis.

    Both singular factors reduce to principal powers of 2 sin of complex
    half-angles whose real parts stay inside [0, pi), so no branch
    tracking is needed; on a real leg this is exactly the real-modulus
    weight restricted to the subtracted arc. Returns f(sel, d0, d1) like
    _arc_integrand.
    """
    phi = _column(phis, complex)
    two_w1 = 2.0 * p.omega1
    two_mu = 2.0 * p.mu
    om2 = p.omega2

    def f(sel, d0, d1):
        theta = math.pi - d1 * phi[sel]
        logw = (om2 * theta + two_w1 * _log_two_sin(d1, phi[sel])
                + two_mu * _log_two_sin(d0, phi[sel]))
        return _phase_table(np.exp(logw), theta, ks)

    return f


def _log_two_sin(d, phi):
    """log(2 sin(d phi / 2)) for node distances d in (0, 1) on a leg.

    Below a phase of about 1e-33 the half-angle at the deepest tanh-sinh
    nodes (d near 1e-275) falls under the smallest normal float, where it
    loses bits and then underflows to 0. There sin(x) = x to every bit,
    and the log is formed as log(d) + log(phi), without the product.
    """
    half = (0.5 * d) * phi
    tiny = np.abs(half) < _TINY
    if not tiny.any():
        return np.log(2.0 * np.sin(half))
    return np.where(tiny, np.log(d) + np.log(phi),
                    np.log(2.0 * np.sin(np.where(tiny, 1.0, half))))


def _quadrature_tables(p: SSEParams, phis, kmax: int, tol: float):
    """Panel quadrature of c_{-kmax..kmax} for the weights of p at each
    phase in phis, in one batched pass.

    The arc panels of every phase are the rows of one _arc_integrand and
    the legs those of one _leg_integrand, each integrated by
    _integrate_rows. Within a table every column is refined together, so
    the slowest (highest |k|) one sets the tanh-sinh level of its panel.
    Returns one callable per phase, which returns (c_{-kmax..kmax}, error
    estimate) or raises the QuadratureError of the first of its panels
    that fails; a panel that needs levels past the head refines only
    when its table is asked for.
    """
    ks = np.arange(-kmax, kmax + 1, dtype=float)
    xi = complex(p.xi_star)
    # rows and tolerances of the arc panels [0] and of the legs [1]
    rows, tols, plans = ([], []), ([], []), []
    for phi in phis:
        parts = [(complex((panel[1] - panel[0]) / _TWO_PI), 0, (phi, panel))
                 for panel in _arc_panels(phi)]
        if xi != 0 and phi != 0:
            parts.append((-xi * phi / _TWO_PI, 1, phi))
        inner = tol / len(parts)
        plan = []
        for scale, kind, row in parts:
            plan.append((scale, kind, len(rows[kind])))
            rows[kind].append(row)
            tols[kind].append(inner / max(abs(scale), 1e-3))
        plans.append(plan)
    results = (_integrate_rows(_arc_integrand(p, rows[0], ks), tols[0]),
               _integrate_rows(_leg_integrand(p, rows[1], ks), tols[1]))

    def table(plan):
        total = np.zeros(ks.shape, dtype=complex)
        achieved = 0.0
        for scale, kind, index in plan:
            vals, err = results[kind][index]()
            total = total + scale * vals
            achieved += abs(scale) * err
        return total, achieved

    return [partial(table, plan) for plan in plans]


def _check_leg_range(w: WeightSpec, kmax: int) -> None:
    """Refuse a weight whose leg leaves the float range at order kmax.

    Off the circle the leg reaches Im theta = -ln|t|, where the phase
    factors e^{-ik theta} of a table grow like |t|^{-kmax} and the
    continued weight grows with them. Once |t|^{2 max(kmax, 1)}
    underflows (|t| < 1e-154 for kmax <= 1) their product overflows and
    no table can be formed; for the CLI's default weight the quadrature
    already stalls from |t| = 1e-20 at kmax = 1.
    """
    if 2.0 * max(kmax, 1) * w.phase().imag > _LOG_MAX:
        raise ValueError(
            f"t = {complex(w.t)!r} is too close to 0: the weight's "
            f"continuation to order {kmax} leaves the float range")


def _quadrature_table(w: WeightSpec, kmax: int, tol: float):
    """(c_{-kmax..kmax}, error estimate) of one weight from
    _quadrature_tables."""
    return _quadrature_tables(w.p, [w.phase()], kmax, tol)[0]()


def _march(far, near, steps):
    """Values of x_new = f1 x_near + f2 x_far over steps of (f1, f2), and
    the sum of |f1 x_near| + |f2 x_far|, the scale each step rounds at.
    """
    vals = []
    scale = 0.0
    for f1, f2 in steps:
        a, b = f1 * near, f2 * far
        far, near = near, a + b
        scale += abs(a) + abs(b)
        vals.append(near)
    return vals, scale


def _amplification(steps) -> float:
    """max |u| + |v| over the steps, for the solutions u and v started from
    (far, near) = (1, 0) and (0, 1): an error of at most e in each start
    value moves every marched value by at most e times this.
    """
    uf, un, vf, vn = 1.0, 0.0, 0.0, 1.0
    amp = 1.0
    for f1, f2 in steps:
        uf, un = un, f1 * un + f2 * uf
        vf, vn = vn, f1 * vn + f2 * vf
        amp = max(amp, abs(un) + abs(vn))
    return amp


def _recurrence_steps(w: WeightSpec, kmax: int, tol: float):
    """(forward steps, backward steps, amplification) of the weight's
    three-term recurrence out to |k| = kmax, or None where it cannot meet
    tol whatever its seeds.

    The k-th Fourier coefficient of z(1 + z)(1 + tz) w' = (a0 + a1 z +
    a2 z^2) w gives, for every k,

        (k - a0) c_k + ((1 + t)(k - 1) - a1) c_{k-1}
            + (t (k - 2) - a2) c_{k-2} = 0;

    the end terms of the integration by parts vanish where the exponents
    allow, and analytic continuation in the exponents covers the rest.
    k >= 2 follow forward and k <= -2 backward from c_{-1}, c_0 and c_1.
    None for kmax < 2, when t is neither on the circle nor on the real
    segment 0 < t < 1, when a leading coefficient vanishes, and when the
    amplification (_amplification) would carry even rounding-level seeds
    past tol.
    """
    if kmax < 2:
        return None
    phi = w.phase()
    if phi.imag != 0.0 and phi.real != 0.0:
        # complex t inside the disc: the wrap-angle jump adds a boundary
        # term the identity does not carry
        return None
    # on the circle t is rebuilt from the snapped phase, so that it names
    # the weight the quadrature integrates
    t = cmath.exp(1j * phi)
    p = w.p
    mu, om1, om2 = complex(p.mu), complex(p.omega1), complex(p.omega2)
    a0 = -1j * om2 - om1 - mu
    a1 = -1j * om2 * (1.0 + t) + om1 * (1.0 - t) + mu * (t - 1.0)
    a2 = t * (-1j * om2 + om1 + mu)

    def rows(ks):
        return [(k - a0, (1.0 + t) * (k - 1) - a1, t * (k - 2) - a2)
                for k in ks]

    try:
        fwd = [(-b / a, -g / a) for a, b, g in rows(range(2, kmax + 1))]
        bwd = [(-b / g, -a / g) for a, b, g in rows(range(0, 1 - kmax, -1))]
    except ZeroDivisionError:
        return None
    # the amplification depends on (p, t) alone: a table the seeds could
    # not meet even at the rounding level skips their quadrature
    amp = max(_amplification(fwd), _amplification(bwd))
    if not amp * _EPS <= tol:
        return None
    return fwd, bwd, amp


def _recurrence_table(w: WeightSpec, kmax: int, tol: float, prepared=None):
    """(c_{-kmax..kmax}, error estimate) from three quadrature seeds, or
    None where the recurrence cannot meet tol.

    The seeds come from the panel quadrature at tol, and the steps
    (_recurrence_steps) march them out to |k| = kmax. prepared is (steps,
    seeds) when a grid pass has already made them; otherwise the steps,
    and the seeds where the steps allow, are made here for w alone. The
    error estimate is the seed error times the measured amplification
    (_amplification), plus 4 eps times the amplification times the summed
    magnitudes each step rounds at. Against a 40-digit run of the same
    steps from the same seeds, the rounding of 500 random tables on the
    circle and near t = 1 stayed below 1.6 eps times that product. None
    where _recurrence_steps refuses, when the estimate exceeds tol, or
    when the seeds' quadrature stalls (the full pass then reports it).
    """
    steps, seeds = prepared or (_recurrence_steps(w, kmax, tol), None)
    if steps is None:
        return None
    if seeds is None:
        seeds = _quadrature_tables(w.p, [w.phase()], 1, tol)[0]
    fwd, bwd, amp = steps
    try:
        seed_vals, seed_err = seeds()
    except QuadratureError:
        return None
    c_m1, c_0, c_1 = (complex(c) for c in seed_vals)
    up, up_scale = _march(c_0, c_1, fwd)
    down, down_scale = _march(c_0, c_m1, bwd)
    table = np.array(down[::-1] + [c_m1, c_0, c_1] + up)
    err = amp * (seed_err + 4.0 * _EPS * (up_scale + down_scale))
    if not err <= tol:
        return None
    return table, err


def fourier_table(w: WeightSpec, kmax: int, tol: float = 1e-12, *,
                  _prepared=None):
    """(values, error estimate): the coefficients
    c_k = (2 pi)^{-1} (int - xi* int_leg) w(theta) e^{-ik theta} for
    k = -kmax .. kmax, and the absolute error they carry.

    Absolute accuracy tol. c_{-1}, c_0 and c_1 always come from
    panel-split tanh-sinh refinement; on the circle and on the real
    segment 0 < t < 1 the rest follow from the weight's three-term
    recurrence (_recurrence_table) whenever the seeds' error times the
    recurrence's measured amplification, plus its rounding, stays within
    tol. Elsewhere, and wherever that bound fails, the whole table comes
    from one quadrature pass. Raises QuadratureError (with the achieved
    error attached) if the quadrature stalls. For a recurred table the
    error estimate is the seed error times the amplification plus a
    rounding allowance.

    _prepared is toeplitz_grid's: the recurrence steps and seeds its
    batched pass already made for w (see _recurrence_table). The table
    is the same bits either way.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    _check_leg_range(w, kmax)
    got = _recurrence_table(w, kmax, tol, _prepared)
    if got is None:
        got = _quadrature_table(w, kmax, tol)
    return got


# ---------------------------------------------------------------------------
# Toeplitz route and direct oracle


def toeplitz_grid(p: SSEParams, ts, tol: float = 1e-12) -> list:
    """N point averages det[c_{j-k}] of one weight at every t of a grid.

    Dense LU with partial pivoting on the N x N matrix of coefficients;
    N = 0 gives 1 at every t. The coefficients come from fourier_table:
    three quadrature columns and the recurrence on the circle and near
    t = 1 on the real segment, one quadrature pass refined until its
    slowest column converges elsewhere (endpoint singularities and the
    measure jump defeat uniform-grid spectral methods). Dimension is
    capped at 64: beyond it that quadrature's cost and the determinant's
    conditioning buy nothing this library needs.

    The grid's seeds are one batched pass. First the recurrence steps and
    amplification at every t, so that a t they refuse skips its seeds;
    then the seeds of all the others, all arc panels through one
    integrand call and all legs through another (_quadrature_tables);
    then, t by t, the march from those seeds, or a quadrature pass of the
    t's own where the recurrence cannot meet tol. Every value is the one
    toeplitz_an returns at its t, bit for bit, and a failure raises at
    the first t that fails, once every earlier t is done, as a loop of
    toeplitz_an calls would.
    """
    n = int(p.N)
    if n < 0:
        raise ValueError("dimension must be >= 0")
    if n > 64:
        raise ValueError("Toeplitz dimension capped at 64")
    if n == 0:
        return [1.0 + 0.0j for _ in ts]
    kmax = n - 1
    ws, steps, stop = [], [], None
    for t in ts:
        try:
            w = WeightSpec(p=p, t=t)
            steps.append(_recurrence_steps(w, kmax, tol))
        except (ValueError, ArithmeticError) as exc:
            # raised once every earlier t has its value
            stop = exc
            break
        ws.append(w)
    seeds = iter(_quadrature_tables(
        p, [w.phase() for w, s in zip(ws, steps) if s is not None], 1, tol))
    idx = kmax + (np.arange(n)[:, None] - np.arange(n)[None, :])
    dets = []
    for w, s in zip(ws, steps):
        prepared = s, None if s is None else next(seeds)
        c = fourier_table(w, kmax, tol, _prepared=prepared)[0]
        dets.append(complex(np.linalg.det(c[idx])))
    if stop is not None:
        raise stop
    return dets


def toeplitz_an(p: SSEParams, t: complex, tol: float = 1e-12) -> complex:
    """N point average as the Toeplitz determinant det[c_{j-k}] at one t:
    the one-point case of toeplitz_grid."""
    return toeplitz_grid(p, [t], tol=tol)[0]


# Bilinear form of the squared Vandermonde factor in the centred basis
# f(theta) = (1, sin d, 2 sin^2(d/2)), d = theta - theta_0:
# |e^{i theta_a} - e^{i theta_b}|^2 = f(theta_a)^T _VDM_FORM f(theta_b).
_VDM_FORM = np.array([[0.0, 0.0, 2.0], [0.0, -2.0, 0.0], [2.0, 0.0, -2.0]])


def _oracle_rule(p: SSEParams, t: complex, level: int):
    """Nodes and weights of the direct oracle's rule on the circle.

    Tanh-sinh at the given level on each panel of _arc_panels, with the
    real-modulus weight and the factor 1/2 pi folded into the weights and
    the subtracted arc scaled by 1 - xi*. Returns (theta, u); u is real
    when the weight is.
    """
    phi_r = WeightSpec(p=p, t=t).phase().real
    jump = 1.0 - p.xi_star
    thetas, weights = [], []
    for a, b, wrapped in _arc_panels(phi_r + 0j):
        d0, d1, wq, _ = _ts_full_rule(level)
        width = b - a
        da, db = width * d0, width * d1
        theta = a + da
        dist_pi = db + (math.pi - b)
        dist_mpi = da + (a + math.pi)
        base1 = 2.0 * np.sin(0.5 * np.minimum(dist_pi, dist_mpi))
        if wrapped:
            arg2 = np.minimum(da, dist_pi + (_TWO_PI - phi_r))
        else:
            arg2 = np.minimum(db, dist_mpi + phi_r)
        base2 = 2.0 * np.sin(0.5 * arg2)
        logw = (p.omega2 * theta
                + (2.0 * p.omega1) * np.log(base1)
                + (2.0 * p.mu) * np.log(base2))
        wt = np.exp(logw) * (width / _TWO_PI) * wq
        if wrapped:
            wt = wt * jump
        thetas.append(theta)
        weights.append(wt)
    u = np.concatenate(weights)
    if np.iscomplexobj(u) and not np.any(u.imag):
        u = u.real
    return np.concatenate(thetas), u


def _vandermonde_sum(theta: np.ndarray, u: np.ndarray, n: int) -> complex:
    """Sum of u_a1..u_an prod_{j<k} |e^{i theta_aj} - e^{i theta_ak}|^2 / n!
    over all index tuples, n <= 3, in O(len(theta)).

    The squared factor is the bilinear form _VDM_FORM in the centred
    basis f, so with the 3 x 3 moment matrix G = sum_a u_a f_a f_a^T and
    M = _VDM_FORM G the sum is G_00 (n = 1), (G e_0)^T M e_0 / 2 (n = 2)
    or tr M^3 / 6 (n = 3): the dense pairwise matrix is never formed.
    """
    if n == 1:
        return complex(np.sum(u))
    c = np.sum(np.abs(u) * np.exp(1j * theta))
    d = theta - cmath.phase(c)
    f = np.stack([np.ones_like(d), np.sin(d), 2.0 * np.sin(0.5 * d) ** 2])
    g = (f * u) @ f.T
    m = _VDM_FORM @ g
    if n == 2:
        return complex(0.5 * (g[:, 0] @ m[:, 0]))
    return complex(np.trace(m @ m @ m) / 6.0)


def quad_oracle_an(p: SSEParams, t: complex) -> complex:
    """Literal N fold angular integral, N <= 3, on the defining circle.

    Tensor-product tanh-sinh rule over the real angles (_oracle_rule)
    with the modified measure applied per coordinate and the squared
    Vandermonde factor 2 - 2 cos(theta_j - theta_k) written in; the
    tensor-product sum runs through the factor's rank-3 form
    (_vandermonde_sum). Two refinement levels must agree to 1e-9
    relative before a value is accepted; one escalation is tried, then
    QuadratureError. Kept independent of the Fourier machinery: no
    complex legs, no continued weight, no Toeplitz determinant, just the
    real-modulus integrand.
    """
    tt = complex(t)
    if abs(abs(tt) - 1.0) > 1e-12:
        raise ValueError("direct oracle is defined on the unit circle only")
    n = int(p.N)
    if n < 0 or n > 3:
        raise ValueError("direct oracle handles N in 0..3")
    if n == 0:
        return 1.0 + 0.0j

    def value(level):
        return _vandermonde_sum(*_oracle_rule(p, tt, level), n)

    rtol = 1e-9
    v_low = value(5)
    for high in (6, 7):
        v_high = value(high)
        diff = abs(v_high - v_low)
        if diff <= rtol * max(abs(v_high), 1e-30):
            return v_high
        v_low = v_high
    raise QuadratureError("direct oracle levels disagree",
                          diff / max(abs(v_high), 1e-30), rtol)


# ---------------------------------------------------------------------------
# sine-kernel Fredholm determinant


def _narrow(z):
    """z as a float when its imaginary part is exactly 0, else complex."""
    z = complex(z)
    return z.real if z.imag == 0.0 else z


@dataclass(frozen=True)
class FredholmSpec:
    """Gap determinant request: interval (-t, t), coupling xi, m >= 2t nodes."""

    t: float
    xi: complex = 1.0
    m: int = 80

    def __post_init__(self):
        if isinstance(self.t, complex) or not (float(self.t) > 0.0):
            raise ValueError("half-width t must be a positive real")
        m = int(self.m)
        if m < 10:
            raise ValueError("need at least 10 quadrature nodes")
        if not (math.isfinite(self.t) and cmath.isfinite(complex(self.xi))):
            raise ValueError("half-width and coupling must be finite")
        if self.t > 0.5 * m:
            raise ValueError(f"half-width t = {self.t!r} needs more than "
                             f"m = {m} nodes: the rule resolves |t| <= m/2")


@lru_cache(maxsize=64)
def _gl_rule(m: int):
    """Gauss-Legendre nodes and weights on (-1, 1), read-only.

    The cache hands the same arrays to every caller, and the parity
    blocks are built from views of them, so they are locked against
    writes. numpy returns the rule symmetrized: x[m-1-i] == -x[i] and
    w[m-1-i] == w[i] exactly, with x = 0 at the centre of an odd rule.
    """
    return _locked(*np.polynomial.legendre.leggauss(m))


class _ParityBlock(NamedTuple):
    """One parity block of the sine-kernel Nystrom matrix, by generators.

    Entry (i, j) off the diagonal is (a_i b_j - a_j b_i) / ((pi/2)
    (pp_i - pp_j)), and diag holds the diagonal; v is the n x 3 matrix V
    of the t-derivative kernels (see _sine_kernel_blocks).
    """

    a: np.ndarray
    b: np.ndarray
    pp: np.ndarray
    diag: np.ndarray
    v: np.ndarray

    def column(self, j: int) -> np.ndarray:
        """Column j of the block, O(n) work."""
        col = self.a * self.b[j] - self.a[j] * self.b
        den = (self.pp - self.pp[j]) * _HALF_PI
        den[j] = 1.0
        col /= den
        col[j] = self.diag[j]
        return col


def _sine_kernel_blocks(t, m: int):
    """Parity blocks of the Nystrom matrix of the sine kernel on (-1, 1).

    The kernel is sin(t d)/(pi d) in d = u - v, with diagonal t/pi. On
    the positive half p of the m-node rule the even block is
    (K(p_i - p_j) + K(p_i + p_j)) sqrt(w_i w_j) and the odd block has the
    minus sign. With s = sin(t p) and c = cos(t p) the addition theorem
    makes these 2 (p_i s_i c_j - p_j c_i s_j) and
    2 (p_j s_i c_j - p_i c_i s_j), over pi (p_i^2 - p_j^2), with
    diagonals (t +- s_i c_i / p_i) w_i / pi. The centre node of an odd
    rule joins the even block at half its weight, which reproduces its
    row exactly, and drops out of the odd one.

    Returns (even, odd) _ParityBlock generators, from which any column
    costs O(n). Each carries the n x 3 columns V = sqrt(w) (c, p s,
    p^2 c), or sqrt(w) (s, p c, p^2 s) for the odd block. The blocks of
    the t-derivative kernels cos(t d)/pi, -d sin(t d)/pi and
    -d^2 cos(t d)/pi are 2/pi times V0 V0^T, -+(V0 V1^T + V1 V0^T) and
    -(V0 V2^T + V2 V0^T - 2 V1 V1^T), upper sign even. Real for real t.
    """
    x, w = _gl_rule(m)
    half = m // 2
    p = x[half:]
    sq = np.sqrt(w[half:])
    sin_p, cos_p = np.sin(t * p), np.cos(t * p)
    with np.errstate(divide="ignore", invalid="ignore"):
        sc = sin_p * cos_p / p
    c = m % 2
    if c:
        sq[0] = math.sqrt(0.5 * w[half])
        sc[0] = t
    s, co = sq * sin_p, sq * cos_p
    ps, pc = p * s, p * co
    pp = p * p
    return tuple(
        _ParityBlock(a[lo:], b[lo:], pp[lo:],
                     ((t + sign * sc) * sq * sq / math.pi)[lo:],
                     np.stack(v, axis=1)[lo:])
        for a, b, v, sign, lo in ((ps, co, (co, ps, p * pc), 1.0, 0),
                                  (s, pc, (s, pc, p * ps), -1.0, c)))


def _pivoted_cholesky(block: _ParityBlock) -> np.ndarray:
    """Rows R of a diagonally pivoted Cholesky factor A ~ R^T R of a
    positive semidefinite block, r x n.

    Each step pivots on the largest residual diagonal entry and generates
    only that column of the block. It stops at full rank or once the
    residual trace is at most eps tr(A): the dropped part of a PSD block
    is PSD, so its trace bounds it in the trace, Frobenius and spectral
    norms.
    """
    resid = block.diag.copy()
    n = len(resid)
    stop = _EPS * resid.sum()
    rows = np.empty((n, n))
    r = 0
    while r < n and resid.sum() > stop:
        j = int(np.argmax(resid))
        col = block.column(j) - rows[:r].T @ rows[:r, j]
        rows[r] = col / math.sqrt(resid[j])
        resid -= rows[r] * rows[r]
        r += 1
    return rows[:r]


def _factor_blocks(spec: FredholmSpec) -> list:
    """(block, R, R R^T, lam) for the even and the odd block of spec:
    the pivoted Cholesky rows R of A ~ R^T R, their r x r Gram matrix
    and lam = xi times its eigenvalues, so det(I - xi A) =
    prod (1 - lam_j) by Sylvester's identity.

    Each eigenvalue may carry an absolute error of m eps, so
    m eps sum |lam_j| / |1 - lam_j| over both blocks bounds the relative
    error of the product; where it reaches 1 no digit is correct and
    ValueError is raised. At xi = 1 and m = 600 it reads 3.4e-11, 1.4e-9
    and 6.4e-8 at t = 4, 6 and 8, and passes 1 before t = 20.
    """
    xi = _narrow(spec.xi)
    m = int(spec.m)
    out, cond = [], 0.0
    for block in _sine_kernel_blocks(float(spec.t), m):
        rows = _pivoted_cholesky(block)
        gram = rows @ rows.T
        lam = xi * np.linalg.eigvalsh(gram)
        # a factor of exactly 0 makes the bound infinite: refused below
        with np.errstate(divide="ignore"):
            cond += float(np.sum(np.abs(lam) / np.abs(1.0 - lam)))
        out.append((block, rows, gram, lam))
    bound = m * _EPS * cond
    if not bound < 1.0:
        raise ValueError(
            f"det(I - xi K) at t = {spec.t!r}, xi = {xi!r} has no correct "
            f"digit at m = {m} nodes: its rounding bound reads {bound:.3g}")
    return out


def fredholm_sine(spec: FredholmSpec):
    """det(I - xi K) on (-t, t) for the kernel sin(x-y)/(pi(x-y)).

    Rescaled to (-1, 1), where the kernel is sin(t(u-v))/(pi(u-v)) with
    diagonal t/pi, and factored by parity: det(I - xi A+) det(I - xi A-)
    over the even and odd blocks of the whole m-node Nystrom matrix, each
    the product of its factors 1 - lam_j (_factor_blocks, which raises
    ValueError where no digit is correct; see the Fredholm notes).
    Convergence in m is exponential; the check of it, a second evaluation
    at doubled m, belongs to the caller (the fredholm selftest runs it).
    Returns float for real xi.
    """
    e = 1.0
    for *_, lam in _factor_blocks(spec):
        e = e * np.prod(1.0 - lam)
    return float(e) if isinstance(_narrow(spec.xi), float) else complex(e)


def fredholm_log_derivatives(t: float, xi: complex = 1.0, m: int = 140):
    """(log E, d log E/dt, d2, d3) for the sine-kernel determinant.

    From the factors fredholm_sine multiplies, under the same argument
    check (FredholmSpec) and guard: log E sums log |1 - lam_j| over both
    blocks and takes the principal log of the product of their signs.
    The derivatives are resolvent-trace identities rather than finite
    differences, per parity block with Q = (I - xi A0)^{-1} and
    C_k = A_k Q: d log E/dt = -xi tr C1, the second derivative adds
    tr C1^2 and tr C2, the third tr C1^3, tr C1 C2 and tr Q A3. In the
    rank forms of the A_k (_sine_kernel_blocks) each trace is a
    polynomial in the bilinear Gram matrix G = V^T Q V (no conjugate for
    complex xi): with a = 2/pi, upper sign even, tr C1 = a G00,
    tr C2 = -+2a G01 and tr Q A3 = -2a (G02 - G11). Woodbury on A0 ~ R^T R
    gives G = V^T V + xi (R V)^T (I - xi R R^T)^{-1} (R V), one r x r
    solve per block. Real arithmetic throughout for real xi.
    """
    blocks = _factor_blocks(FredholmSpec(t, xi, m))
    xi = _narrow(xi)
    logabs, sign = 0.0, 1.0
    tr1 = tr2 = tr3 = tr11 = tr12 = tr111 = 0.0
    for (block, rows, gram, lam), parity in zip(blocks, (1.0, -1.0)):
        factors = 1.0 - lam
        logabs += float(np.sum(np.log(np.abs(factors))))
        sign *= np.prod(factors / np.abs(factors))
        rv = rows @ block.v
        mat = gram * -xi
        mat.flat[::len(mat) + 1] += 1.0
        g = block.v.T @ block.v + xi * (rv.T @ np.linalg.solve(mat, rv))
        c1, c2 = g[0, 0] / _HALF_PI, -parity * 2.0 * g[0, 1] / _HALF_PI
        tr1 += c1
        tr2 += c2
        tr3 -= 2.0 * (g[0, 2] - g[1, 1]) / _HALF_PI
        tr11 += c1 * c1
        tr12 += c1 * c2
        tr111 += c1 * c1 * c1
    loge = complex(logabs) + cmath.log(complex(sign))
    l1 = -xi * tr1
    l2 = -xi * (xi * tr11 + tr2)
    l3 = -xi * (2.0 * xi * xi * tr111 + 3.0 * xi * tr12 + tr3)
    return loge, complex(l1), complex(l2), complex(l3)


# ---------------------------------------------------------------------------
# bulk limit harness


@dataclass(frozen=True)
class BulkLimitResult:
    """Normalized averages along t = exp(-x/N) and their extrapolation."""

    x: complex
    n_values: tuple
    normalized: tuple
    extrapolant: complex
    observed_order: float
    richardson_diff: float


def bulk_limit_grid(xs, p: SSEParams, n_list) -> list:
    """Drive the Toeplitz route toward the bulk scaling limit at every x of
    a grid: one BulkLimitResult per x, in grid order.

    For each N the average at t = exp(-x/N) is divided by its own t -> 1
    value (the product of gamma factors), so x = 0 normalizes to exactly 1
    and the N -> infinity limit is the bulk determinant. The extrapolation
    is a Neville table in 1/N evaluated at 0; no convergence rate is
    assumed. observed_order reports the empirical leading power fitted
    from successive differences (nan with fewer than three dimensions),
    and richardson_diff the change from the table's last column, as a
    stability handle. p.N is not read.

    The dimensions are checked once and every normalization comes from one
    sweep of barnes_prefactors up to the largest N, so a gamma pole raises
    before any determinant. Then, N by N in ascending order, the averages
    at the whole grid are one toeplitz_grid call at its default accuracy,
    which batches the grid's seed quadrature. Every value is the one that
    toeplitz_an and barnes_prefactor give at its (x, N), bit for bit. A
    failure raises the first failing (N, x) in that order, dimension
    ascending, then grid order.
    """
    ns = sorted({int(n) for n in n_list})
    if not ns:
        raise ValueError("need at least one matrix dimension")
    if ns[0] < 1 or ns[-1] > 64:
        raise ValueError("dimensions must lie in 1..64")
    xs = [complex(x) for x in xs]
    norms = barnes_prefactors(ns[-1], p.mu, p.omega1, p.omega2)
    rows = []
    for n in ns:
        dets = toeplitz_grid(replace(p, N=n), [cmath.exp(-x / n) for x in xs])
        rows.append([det / norms[n] for det in dets])
    return [_extrapolate(x, ns, [row[i] for row in rows])
            for i, x in enumerate(xs)]


def bulk_limit_an(x: complex, p: SSEParams, n_list) -> BulkLimitResult:
    """Drive the Toeplitz route toward the bulk scaling limit at one x: the
    one-point case of bulk_limit_grid."""
    return bulk_limit_grid([x], p, n_list)[0]


def _extrapolate(x: complex, ns: list, vals: list) -> BulkLimitResult:
    """Neville table in 1/N at 0 over the normalized averages vals at the
    sorted dimensions ns, with the fitted order and the last column's
    change."""
    hs = [1.0 / n for n in ns]
    work = list(vals)
    diag = [work[-1]]
    for mcol in range(1, len(ns)):
        for i in range(len(ns) - 1, mcol - 1, -1):
            work[i] = ((hs[i - mcol] * work[i] - hs[i] * work[i - 1])
                       / (hs[i - mcol] - hs[i]))
        diag.append(work[-1])
    rich = abs(diag[-1] - diag[-2]) if len(diag) >= 2 else math.nan
    order = math.nan
    if len(ns) >= 3:
        fits = []
        for i in range(len(ns) - 2):
            lo = abs(vals[i + 1] - vals[i])
            hi = abs(vals[i + 2] - vals[i + 1])
            if lo > 0.0 and hi > 0.0:
                fits.append(math.log(lo / hi) / math.log(hs[i] / hs[i + 1]))
        if fits:
            order = sum(fits) / len(fits)
    return BulkLimitResult(
        x=x,
        n_values=tuple(ns),
        normalized=tuple(complex(v) for v in vals),
        extrapolant=complex(diag[-1]),
        observed_order=float(order),
        richardson_diff=float(rich),
    )
