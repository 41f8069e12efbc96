"""Independent numerical routes to the spectrum-singularity average.

Other layers predict the N point circular average through series or ODE
integration. This module recomputes the same numbers from the defining
integrals, sharing no code with those layers. Three routes:

  * Toeplitz: the average equals det[c_{j-k}] over the weight's Fourier
    coefficients (Heine). c_{-1}, c_0 and c_1 come from an adaptive panel
    quadrature of w(theta) e^{-ik theta}; on the circle and on the real
    segment 0 < t < 1, the only t it takes, the rest follow from the
    weight's three-term recurrence wherever its measured error growth
    keeps the table within tol, and from the same quadrature where it
    does not (see the recurrence notes).
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
    and refused when its rounding bound leaves no correct digit. A grid
    of t is factored in one lockstep pass over all its blocks (see the
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

Panels are integrated as rows of a batch (_integrate_rows): every split
panel on the circle of every weight in a pass is one row of one
integrand, evaluated in real arithmetic, every other arc panel one row
of a second and every leg one row of a third, and levels 0..4 of up to
_CHUNK_ROWS nodes' worth of rows are one call. A row's panel data is a
column broadcast across its nodes, as a scalar is across a lone panel's,
and its level sums are one stacked product over rows laid out as a lone
panel's would be, so each row's value, error and refusal are bit for
bit those of the panel on its own. That is why real and complex rows
never share a batch: a real row would turn complex beside a complex
one. Each row finishes in _finish, only when its table is asked for:
convergence and the edge check are per row, and a row that needs levels
past 4 continues alone.
A row stops at its rounding floor. At a level that has not converged,
the head included, a row whose tol lies more than _ROUNDOFF_MARGIN = 16
times below eps max|c| of its own values is refused as stalled at once:
its level-to-level change sits at the rounding of its largest
coefficient, which no level moves (QUADPACK stops at its own roundoff
the same way, ier = 2: Piessens et al., QUADPACK, Springer 1983). On the
real segment a table may ask an absolute 1e-12 of coefficients up to
1e45; without the floor such a row would climb to level 11, whose new
nodes alone number 12,288, before it stalled. The margin is measured:
over 3,896 perfbench ops (finite_n seeds 1-20, gap_sine 1-8, passes
0-3), the 5,548 rows that converged past the head read at most 1.8 for
the ratio eps max|c|/tol at a level still short of tol, and random
weights at tol 1e-13 up to 6.4 (TestRoundingFloor); the 89 that stalled
read 1.2 to 3.7e84, 84 of them past 16. A row at 16 or below keeps the
climb to _TS_MAX_LEVEL, since it may still converge.
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

On the circle the subtracted arc (pi - phi, pi) is the wrapped panel,
integrated once and scaled by 1 - xi* (dropped at xi* = 1, as in the
oracle), with both bases and both logs real. It is a leg in the complex
angle plane only at a wrap angle snapped onto an arc end and on the real
segment 0 < t < 1 (phi = -i ln t), whose wrap always snaps and whose
weight is the analytic continuation in t. WeightSpec refuses every other
t of the disc: the arc splits at pi - Re phi and its two sides take
different branches of the 2 mu power, analytic along rays but not in t.

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
    march measures that amplification as it goes (_march_rows), and a table it
    would carry past tol comes from quadrature (near t = 1 most recur,
    t = 0.3 at kmax = 31 does not).

Tables with kmax <= 1 are the quadrature's own. Three-term recurrences and
the stability of each direction: Gautschi, SIAM Rev. 9 (1967) 24.

Over a grid of t (toeplitz_grid) the work is split in four: the table's
float range and the recurrence coefficients at every t, so that a t near
0 never reaches a quadrature; one batched pass for the seeds of every t
(_quadrature_tables at kmax = 1), all finished at once, where a seed
that stalls refuses only its own t; one lockstep march of every t in
both directions (_march_rows), then t by t the refusal, or the t's own
full quadrature pass, in grid order; one determinant call on the grid's
stacked matrices. The march's factors come from one vectorized prelude,
a step is one multiply and one add over every row, and the scale and
amplification are reductions after the loop. Numpy's elementwise results
do not depend on the array's length, so a row's bits do not depend on
its batch; they differ from Python's scalar complex arithmetic in the
last bit. With the coefficients and the table assembly (2-core x86_64,
best of 25 runs), 15 circle t at kmax = 31 take 0.19 ms against 1.02 ms
for the scalar march t by t, and 30 t at kmax = 63 0.46 ms against
4.0 ms; one t takes 0.07 ms against 0.01 ms at kmax = 3.

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
over the two blocks. The rule itself comes from Newton on the Legendre
three-term recurrence (_gl_rule), in O(m) memory and O(m^2) work: at
m = 600 it takes 3.8 ms in a fresh interpreter against 58 ms for numpy's
companion-matrix eigensolve, and its weights are within 4.4e-13 of the
exact rule where numpy's are 2e-10 off.

The kernel is integrable (Its, Izergin, Korepin and Slavnov, Int. J.
Mod. Phys. B 4 (1990) 1003): by the addition theorem both blocks come
from sin tp and cos tp on the m/2 positive nodes p, O(m) trig values,
so any one column of a block costs O(m) from its generators a, b, the
nodes x = p^2 and the diagonal (_Generators.columns), and the
t-derivative kernels have rank 1, 2 and 3 in three vectors V per
block.

For real t both blocks are positive semidefinite with eigenvalues in
[0, 1), and they are numerically of low rank: at a residual trace of
eps times the block's, the rank is 2 to 12 for t <= 15 and does not
grow with m. Each block is factored once by diagonally pivoted
Cholesky, generating only the r pivot columns (Harbrecht, Peters and
Schneider, Appl. Numer. Math. 62 (2012) 428; for the Nystrom route,
Bornemann, Math. Comp. 79 (2010) 871): O(m r^2) work in place of an
O(m^3) LU, 0.37 ms against 3.1 ms per call at m = 600 and xi = 1 (one
core, x86_64). Both entry points read that factor and its one rounding
guard. Against a 50-digit evaluation of the same blocks
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

A grid of t is factored in one pass (_factor_grid): one sin and one cos
over the (t, node) array give the generators of every block
(_sine_kernel_blocks), and the pivoted Cholesky runs in lockstep over
the blocks of one order (_pivoted_cholesky): both parities of every t
for even m, one lockstep per parity for odd m, whose even blocks hold
the centre node, up to _LOCKSTEP_ENTRIES entries (blocks times order)
to a lockstep. A step is one argmax, one column generation and one
residual update over the stacked blocks still active, in place of one
Python loop per block; a block leaves the stack when it stops, and its
rows are sized by the running rank. Every value is bit for bit that of
the block factored alone, and a single t is the one-point case. Over 10
t per call (2-core x86_64, one BLAS thread, medians of alternating
runs), the grid takes 0.35, 0.45-0.5 and 0.55-0.6 of the time of a loop
of one-t calls at m = 80, 300 and 600, and its log-derivatives 0.45,
0.55 and 0.6-0.65. A lone t gains nothing: it takes 1.05-1.3 times as
long as before at even m, and 1.5-1.6 times at odd m, whose two blocks
have different orders, so that each lockstep holds one block.

The rule resolves the kernel only while |t| <= m/2, and every entry
point refuses a larger half-width: at xi = 0.5, |E(m) - E(2m)| / E stays
below 8e-14 up to t = 25 at m = 40 and t = 60 at m = 80, but reaches
1e-9 at t = 30, m = 40, and overflows far past the bound.
"""

from __future__ import annotations

import cmath
import math
import operator
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
    "fredholm_grid",
    "fredholm_log_derivatives",
    "fredholm_log_derivatives_grid",
    "bulk_limit_an",
    "bulk_limit_grid",
]

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_TS_TAU_MAX = 6.0
_TS_MIN_LEVEL = 4
_TS_MAX_LEVEL = 11
# A row whose tol lies this far below eps times its largest value is
# refused where it stands (_finish): no level can resolve it
_ROUNDOFF_MARGIN = 16.0
_CHUNK_ROWS = 8192
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)
# j_{0,k}, k = 1, 2, 3: McMahon's series is too short for the first zeros
_BESSEL_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013)
_TINY = float(np.finfo(float).tiny)
# Blocks times order in one lockstep of the pivoted Cholesky: 8 blocks at
# m = 600, 60 at m = 80. A whole 10-point grid at m = 600 in one lockstep
# raised gap_sine's peak memory by 0.2-0.4 MB over the block-by-block
# factor and ran no faster (2-core x86_64, one BLAS thread).
_LOCKSTEP_ENTRIES = 2400
_LOG_MAX = math.log(float(np.finfo(float).max))


class QuadratureError(RuntimeError):
    """Refinement stopped before reaching the requested accuracy."""

    def __init__(self, message: str, achieved: float, target: float):
        self.achieved = float(achieved)
        self.target = float(target)
        super().__init__(
            f"{message}: achieved {achieved:.3e}, target {target:.3e}")


def _narrow(z):
    """z as a float when its imaginary part is exactly 0, else complex."""
    z = complex(z)
    return z.real if z.imag == 0.0 else z


@dataclass(frozen=True)
class WeightSpec:
    """Circular weight with one fixed and one movable singular point.

    t = e^{i phi} places the movable point: on the defining circle
    |t| = 1, or on the real segment 0 < t < 1, read as the analytic
    continuation in t; any other t is refused (see the module notes).
    SSEParams enforces the integrability of each exponent on its own.
    Where t sits on the circle and the wrap angle snaps onto the arc end
    (_arc_panels), the two singular points merge into one of exponent
    2 mu + 2 omega_1, and a weight with Re(2 mu + 2 omega_1) <= -1 is
    refused here: every route to its coefficients starts from a
    WeightSpec. So is a weight that may leave the float range on the
    contour: with s = -ln|t| every base there has modulus at most
    2 cosh(s/2) and argument at most pi/2, which bounds ln|w|. A negative
    exponent meets its base at the deepest tanh-sinh node, a distance
    exp(-pi sinh(_TS_TAU_MAX)) = e^{-633.7} times the shortest panel or
    leg length l, so its size times 633.7 + max(0, -ln l) joins the bound.
    """

    p: SSEParams
    t: complex = 1.0 + 0.0j

    def __post_init__(self):
        tt = complex(self.t)
        if tt == 0 or abs(tt) > 1.0 + 1e-12:
            raise ValueError("t must lie in the closed unit disc, not at 0")
        # the circle as phase() snaps it; nan fails both tests
        if not (abs(abs(tt) - 1.0) <= 1e-12
                or (tt.imag == 0.0 and 0.0 < tt.real < 1.0)):
            raise ValueError(f"off the unit circle t must lie in (0, 1), not "
                             f"t = {_narrow(tt)!r}: the continued weight is "
                             f"not holomorphic in t there")
        p, phi = self.p, self.phase()
        s, panels = phi.imag, _arc_panels(phi)
        # t = 1 has no leg
        short = min([abs(phi) or _TWO_PI] + [b - a for a, b, _ in panels])
        depth = math.pi * math.sinh(_TS_TAU_MAX) - min(0.0, math.log(short))
        bound = (math.pi * abs(p.omega2.real) + s * abs(p.omega2.imag)
                 + math.log(2.0 * math.cosh(0.5 * s))
                 * (max(2.0 * p.mu.real, 0.0) + max(2.0 * p.omega1.real, 0.0))
                 + math.pi * (abs(p.mu.imag) + abs(p.omega1.imag))
                 + max(-2.0 * p.mu.real, -2.0 * p.omega1.real, 0.0) * depth)
        if bound > _LOG_MAX:
            raise ValueError(
                f"the weight at t = {tt} leaves the float range: its log "
                f"modulus on the contour may reach {bound:.6g}")
        merged = p.sigma.real
        if merged <= -1 and s == 0.0 and len(panels) == 1:
            raise ValueError(
                f"the singular points merge at t = {tt} into exponent "
                f"Re(2 mu + 2 omega1) = {merged!r} <= -1: not integrable")

    def phase(self) -> complex:
        """Angle phi with t = e^{i phi}: real in [0, 2 pi) on the circle,
        -i ln t on the real segment.

        A modulus within 1e-12 of 1 snaps onto the circle so the phase
        comes out exactly real. Rounding noise in |t| would otherwise
        regularize the singular points at a ~1e-16 angular scale, which
        for negative exponents shifts integrals at the (1e-16)^(1+2a)
        level, far above quadrature accuracy.
        """
        tt = complex(self.t)
        if abs(abs(tt) - 1.0) > 1e-12:
            return -1j * cmath.log(tt)
        phi = cmath.phase(tt)
        return complex(phi + _TWO_PI if phi < 0.0 else phi, 0.0)


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


def _finish(f, row: int, total, cur, err: float, edge: float, tol: float):
    """(values, error) of one row of f, from its running total, value,
    level-to-level change and outermost summand at _TS_MIN_LEVEL.

    While the change exceeds tol, each level up to _TS_MAX_LEVEL is one
    call of f on that row, in chunks of _CHUNK_ROWS nodes, and the edge
    check of a converged level past _TS_MIN_LEVEL one more call on its two
    outermost nodes. A stalled refinement or a non-negligible edge raises
    QuadratureError. So does, at once, a level that has not converged
    (the head included) where _ROUNDOFF_MARGIN tol < eps max |cur|: the
    target lies below the rounding of the row's own largest value, which
    no further level resolves, so the row stalls there rather than at
    _TS_MAX_LEVEL.
    """
    rows = slice(row, row + 1)
    level = _TS_MIN_LEVEL
    while not err <= tol:
        if _ROUNDOFF_MARGIN * tol < _EPS * float(np.max(np.abs(cur))):
            raise QuadratureError(
                "tanh-sinh refinement stalled below the rounding floor",
                err, tol)
        if level == _TS_MAX_LEVEL:
            raise QuadratureError("tanh-sinh refinement stalled", err, tol)
        level += 1
        d0, d1, w = _ts_new_nodes(level)
        part = None
        for lo in range(0, len(w), _CHUNK_ROWS):
            sl = slice(lo, lo + _CHUNK_ROWS)
            block = w[sl] @ f(rows, d0[sl], d1[sl])[0]
            part = block if part is None else part + block
        total = total + part
        prev, cur = cur, (0.5 ** level) * total
        err = float(np.max(np.abs(cur - prev)))
        if err <= tol:
            ends = [0, -1]
            edge = float(np.max(np.abs(
                w[ends, None] * f(rows, d0[ends], d1[ends])[0])))
    if edge > 1e3 * tol:
        raise QuadratureError("endpoint decay too slow for the node range",
                              edge, tol)
    return cur, err


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
    are then decided per row in _finish, when the row's result is first
    asked for; a row that has not converged continues there from its own
    running total, unless its tol lies below its own rounding floor,
    where it stalls at once. Every row runs the arithmetic of a lone row,
    so its result does not depend on the rows batched with it.

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
        results += [partial(_finish, f, row, total[j], cur[j],
                            float(errs[j]), float(edges[j]), tols[row])
                    for j, row in enumerate(range(lo, hi))]
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
    ends is snapped onto them, leaving a single panel. It is the wrapped
    side when Re phi is near 2 pi, not near 0: that is read from Re phi,
    because at Re phi = 2 pi the reduced angle pi - Re phi lands on +pi.
    """
    star = _wrap_angle(math.pi - phi.real)
    if math.pi - abs(star) <= 1e-12:
        return [(-math.pi, math.pi, phi.real > math.pi)]
    return [(-math.pi, star, False), (star, math.pi, True)]


def _column(values, dtype=float) -> np.ndarray:
    """One value per row, shaped to broadcast across that row's nodes.

    dtype None takes the values' own: float unless one is complex.
    """
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

    A float phi marks a split panel on the circle: zeta has no imaginary
    offset, so zeta, both bases and both logs are real arrays and only
    the weight and its phase table are complex. The arithmetic follows
    the dtype of the shift column, as _phase_table's follows theta's, so
    a batch holds rows of one kind only. A snapped single panel keeps a
    complex phi: at phi = 2 pi, where the phase of t = e^{-i eps} rounds,
    its base2 is negative on part of the panel, which the real log would
    turn into nan.

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
    shift = _column([0.0 if isinstance(phi, float)
                     else 1j * phi.imag if panel[2] else -(1j * phi.imag)
                     for phi, panel in rows], None)
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
    weight restricted to the subtracted arc. _quadrature_tables takes a
    leg only on the real segment and for a wrap angle snapped onto an arc
    end: on a split circle the wrapped arc panel is that arc. Returns
    f(sel, d0, d1) like _arc_integrand.
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


def _table_parts(phi: complex, xi: complex, tol: float) -> list:
    """(scale, kind, row, share of tol) of each part of a table at phase
    phi: split circle panels (kind 0), other arc panels (1) and the leg
    (2), each to tol over the number of parts and max(|scale|, 1e-3)."""
    panels = _arc_panels(phi)
    if phi.imag == 0.0 and len(panels) == 2:
        parts = [((1.0 - xi if wrapped else 1.0) * ((b - a) / _TWO_PI),
                  0, (phi.real, (a, b, wrapped)))
                 for a, b, wrapped in panels if not (wrapped and xi == 1)]
    else:
        parts = [(complex((panel[1] - panel[0]) / _TWO_PI), 1,
                  (phi, panel)) for panel in panels]
        if xi != 0 and phi != 0:
            parts.append((-xi * phi / _TWO_PI, 2, phi))
    return [(scale, kind, row, tol / len(parts) / max(abs(scale), 1e-3))
            for scale, kind, row in parts]


def _quadrature_tables(p: SSEParams, phis, kmax: int, tol: float):
    """Panel quadrature of c_{-kmax..kmax} for the weights of p at each
    phase in phis, in one batched pass.

    On the circle, where _arc_panels splits at the wrap angle, the
    wrapped panel (pi - phi, pi) is the subtracted arc: it is integrated
    once with scale (1 - xi*) width / 2 pi, and not at all at xi* = 1,
    and both panels take _arc_integrand's real arithmetic. On the real
    segment and at a snapped wrap the subtracted arc is a leg, scaled by
    -xi* phi / 2 pi. Split circle panels, other arc panels and legs are
    the rows of three integrands, each integrated by _integrate_rows.
    Within a table every column is refined together, so the slowest
    (highest |k|) one sets the tanh-sinh level of its panel. Returns one
    callable per phase, which returns (c_{-kmax..kmax}, error estimate)
    or raises the QuadratureError of the first of its panels that fails;
    a panel that needs levels past the head refines only when its table
    is asked for.
    """
    ks = np.arange(-kmax, kmax + 1, dtype=float)
    xi = complex(p.xi_star)
    # rows and tolerances of the split circle panels [0], the other arc
    # panels [1] and the legs [2]
    rows, tols, plans = ([], [], []), ([], [], []), []
    for phi in phis:
        plan = []
        for scale, kind, row, share in _table_parts(phi, xi, tol):
            plan.append((scale, kind, len(rows[kind])))
            rows[kind].append(row)
            tols[kind].append(share)
        plans.append(plan)
    results = (_integrate_rows(_arc_integrand(p, rows[0], ks), tols[0]),
               _integrate_rows(_arc_integrand(p, rows[1], ks), tols[1]),
               _integrate_rows(_leg_integrand(p, rows[2], ks), tols[2]))

    def table(plan):
        total = np.zeros(ks.shape, dtype=complex)
        achieved = 0.0
        for scale, kind, index in plan:
            vals, err = results[kind][index]()
            total = total + scale * vals
            achieved += abs(scale) * err
        return total, achieved

    return [partial(table, plan) for plan in plans]


def _check_table_range(w: WeightSpec, kmax: int, tol: float) -> None:
    """Refuse a tol that is not finite and > 0, and a table of w at order
    kmax that floats cannot hold to tol.

    On the segment the leg reaches Im theta = -ln t, where the phase
    factors e^{-ik theta} grow like t^{-kmax} and the continued weight
    with them: once t^{2 max(kmax, 1)} underflows (t < 1e-154 for
    kmax <= 1) their product overflows (for the CLI's default weight the
    quadrature stalls from t = 1e-20 at kmax = 1). A part whose share of
    tol (_table_parts) is subnormal, as at |xi*| near the float max, asks
    for what no level can give.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    phi = w.phase()
    if 2.0 * max(kmax, 1) * phi.imag > _LOG_MAX:
        raise ValueError(
            f"t = {complex(w.t)!r} is too close to 0: the weight's "
            f"continuation to order {kmax} leaves the float range")
    share = min(part[3] for part in _table_parts(phi, w.p.xi_star, tol))
    if not share >= _TINY:
        raise ValueError(f"the table at t = {_narrow(w.t)!r} cannot reach "
                         f"tol = {tol!r}: a part's share of it is {share:.3e}")


def _quadrature_table(w: WeightSpec, kmax: int, tol: float):
    """(c_{-kmax..kmax}, error estimate) of one weight from
    _quadrature_tables."""
    return _quadrature_tables(w.p, [w.phase()], kmax, tol)[0]()


def _step_factors(coeffs, kmax: int) -> np.ndarray:
    """(kmax - 1, 2, 2 T) factors (f2, f1) of every step x_new =
    f1 x_near + f2 x_far of _march_rows, for the coefficients
    (t, 1 + t, a0, a1, a2) of T rows (_recurrence_steps): columns 0..T-1
    forward (k = 2..kmax, each step solving its row for c_k), T..2T-1
    backward (k = 0, -1, .., 2 - kmax, for c_{k-2}). A vanishing leading
    coefficient leaves its factors non-finite."""
    t, t1, a0, a1, a2 = np.tile(np.asarray(coeffs, dtype=complex).T, 2)
    forward = np.arange(len(t)) < len(t) // 2
    steps = np.arange(kmax - 1.0)[:, None]
    k = np.where(forward, 2.0 + steps, -steps)
    a, b, g = k - a0, t1 * (k - 1.0) - a1, t * (k - 2.0) - a2
    lead = np.where(forward, a, g)
    with np.errstate(all="ignore"):
        return np.stack([-np.where(forward, g, a) / lead, -b / lead], axis=1)


def _march_rows(seeds, coeffs, kmax: int):
    """(tables, scale, amplification) of every row's recurrence, marched
    from its seeds (c_{-1}, c_0, c_1) out to |k| = kmax.

    Both directions of every row are columns of one march (_step_factors)
    whose state holds the values and the unit solutions u, v started from
    (far, near) = (1, 0) and (0, 1); a step is one multiply and one add
    over all of them. scale sums |f1 x_near| + |f2 x_far| over both
    directions, what each step rounds at; amplification is max |u| + |v|:
    an error of at most e in each seed moves every marched value by at
    most e times it. A row with a non-finite factor is stopped: its
    amplification is inf. Each value is elementwise or reduced along k,
    so a row's bits do not depend on the rows marched beside it.
    """
    seeds = np.asarray(seeds, dtype=complex)
    rows = len(seeds)
    factors = _step_factors(coeffs, kmax)
    state = np.zeros((kmax + 1, 3, 2 * rows), dtype=complex)
    state[0, 0] = np.tile(seeds[:, 1], 2)
    state[0, 1] = 1.0
    state[1, 0] = np.concatenate([seeds[:, 2], seeds[:, 0]])
    state[1, 2] = 1.0
    far, near = step = np.empty((2, 3, 2 * rows), dtype=complex)
    with np.errstate(all="ignore"):
        for f, pair, new in zip(np.repeat(factors[:, :, None], 3, axis=2),
                                [state[j:j + 2] for j in range(kmax - 1)],
                                state[2:]):
            np.multiply(f, pair, out=step)
            np.add(far, near, out=new)
        x = state[:, 0]
        scale = np.cumsum(np.abs(factors[:, 1] * x[1:-1])
                          + np.abs(factors[:, 0] * x[:-2]), axis=0)[-1]
        amp = np.fmax.reduce(np.abs(state[2:, 1]) + np.abs(state[2:, 2]),
                             axis=0, initial=1.0)
    amp[~np.isfinite(factors).all(axis=(0, 1))] = np.inf
    tables = np.concatenate([x[:1:-1, rows:].T, seeds, x[2:, :rows].T], axis=1)
    return (tables, scale[:rows] + scale[rows:],
            np.fmax(amp[:rows], amp[rows:]))


def _recurrence_steps(w: WeightSpec, kmax: int):
    """Coefficients (t, 1 + t, a0, a1, a2) of the weight's three-term
    recurrence, or None where it does not hold.

    The k-th Fourier coefficient of z(1 + z)(1 + tz) w' = (a0 + a1 z +
    a2 z^2) w gives, for every k,

        (k - a0) c_k + ((1 + t)(k - 1) - a1) c_{k-1}
            + (t (k - 2) - a2) c_{k-2} = 0;

    the end terms of the integration by parts vanish where the exponents
    allow, and analytic continuation in the exponents covers the rest.
    k >= 2 follow forward and k <= -2 backward from c_{-1}, c_0 and c_1
    (_march_rows). None for kmax < 2; a leading coefficient that vanishes
    stops the march instead.
    """
    if kmax < 2:
        return None
    # on the circle t is rebuilt from the snapped phase, so that it names
    # the weight the quadrature integrates
    t = cmath.exp(1j * w.phase())
    p = w.p
    mu, om1, om2 = complex(p.mu), complex(p.omega1), complex(p.omega2)
    a0 = -1j * om2 - om1 - mu
    a1 = -1j * om2 * (1.0 + t) + om1 * (1.0 - t) + mu * (t - 1.0)
    a2 = t * (-1j * om2 + om1 + mu)
    return t, 1.0 + t, a0, a1, a2


def _recurrence_tables(p: SSEParams, ws, kmax: int, tol: float) -> list:
    """(c_{-kmax..kmax}, error estimate) of each weight of p in ws from three
    quadrature seeds, or None where the recurrence cannot meet tol.

    One batched pass makes the seeds of every weight at tol, and one
    lockstep march (_march_rows) carries them out to |k| = kmax. The error
    estimate is the seed error times the amplification the march
    measures, plus 4 eps times it times the summed magnitudes each step
    rounds at. Against a 40-digit run of the same steps from the same
    seeds, the rounding of 80 random tables on the circle and near t = 1
    stayed below 0.29 eps times that product (0.31 over 500 tables).
    None for kmax < 2, where a weight's seeds stall (its full pass then
    reports it), where its row is stopped, or where the amplification
    times eps, or the estimate, exceeds tol.
    """
    got = [None] * len(ws)
    if kmax < 2:
        return got
    coeffs = [_recurrence_steps(w, kmax) for w in ws]
    rows = []
    for i, seeds in enumerate(_quadrature_tables(
            p, [w.phase() for w in ws], 1, tol)):
        try:
            rows.append((i, *seeds()))
        except QuadratureError:
            pass
    if not rows:
        return got
    index, seeds, seed_errs = zip(*rows)
    tables, scale, amp = _march_rows(seeds, [coeffs[i] for i in index], kmax)
    errs = amp * (np.array(seed_errs) + 4.0 * _EPS * scale)
    for i, table, a, err in zip(index, tables, amp, errs):
        if a * _EPS <= tol and err <= tol:
            got[i] = table, float(err)
    return got


def _recurrence_table(w: WeightSpec, kmax: int, tol: float):
    """The one-weight call of _recurrence_tables."""
    return _recurrence_tables(w.p, [w], kmax, tol)[0]


def fourier_table(w: WeightSpec, kmax: int, tol: float = 1e-12, *,
                  _prepared=None):
    """(values, error estimate): the coefficients
    c_k = (2 pi)^{-1} int w(theta) (1 - xi* chi(theta)) e^{-ik theta} for
    k = -kmax .. kmax, with chi the indicator of the subtracted arc
    (pi - phi, pi), and the absolute error they carry. On the circle
    that arc is the wrapped panel, scaled by 1 - xi*; on the real segment,
    and where the wrap angle snaps onto an arc end, the arc term is
    -xi* times the integral over the leg (_quadrature_tables).

    Absolute accuracy tol. c_{-1}, c_0 and c_1 always come from
    panel-split tanh-sinh refinement; the rest follow from the weight's
    three-term recurrence (_recurrence_tables) whenever the seeds' error
    times the recurrence's measured amplification, plus its rounding,
    stays within tol. Wherever that bound fails, the whole table comes
    from one quadrature pass. Raises QuadratureError (with the achieved
    error attached) if the quadrature stalls: at _TS_MAX_LEVEL, or at
    once where tol lies below the rounding of a panel's own largest
    coefficient (_finish; on the real segment an absolute 1e-12 asked of
    coefficients up to 1e45 ends at the head). For a recurred table the
    error estimate is the seed error times the amplification plus a
    rounding allowance.

    _prepared is toeplitz_grid's: the recurred table its lockstep made
    for w, whose range it checked, or () where it refused the recurrence.
    The table is the same bits either way.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if _prepared is None:
        _check_table_range(w, kmax, tol)
        _prepared = _recurrence_table(w, kmax, tol)
    return _prepared or _quadrature_table(w, kmax, tol)


# ---------------------------------------------------------------------------
# Toeplitz route and direct oracle


def toeplitz_grid(p: SSEParams, ts, tol: float = 1e-12) -> list:
    """N point averages det[c_{j-k}] of one weight at every t of a grid.

    Dense LU with partial pivoting on the N x N matrix of coefficients;
    N = 0 gives 1 at every t. The coefficients come from fourier_table:
    three quadrature columns and the recurrence on the circle and near
    t = 1 on the real segment, one quadrature pass refined until its slowest
    column converges where the recurrence fails (endpoint singularities
    and the measure jump defeat uniform-grid spectral methods). Dimension
    is capped at 64: beyond it that quadrature's cost and the
    determinant's conditioning buy nothing this library needs.

    The work is split as the recurrence notes describe: every t is
    checked (WeightSpec, _check_table_range), and the first t refused in
    grid order raises, before one batched pass makes the seeds of the
    grid. Every value is the one toeplitz_an returns at its t, bit for
    bit, and a failure while computing raises at the first t that fails.
    """
    n = int(p.N)
    if n < 0:
        raise ValueError("dimension must be >= 0")
    if n > 64:
        raise ValueError("Toeplitz dimension capped at 64")
    if n == 0:
        return [1.0 + 0.0j for _ in ts]
    kmax = n - 1
    ws = []
    for t in ts:
        ws.append(WeightSpec(p=p, t=t))
        # keeps a t near 0, or one past tol's reach, out of the seeds
        _check_table_range(ws[-1], kmax, tol)
    idx = kmax + (np.arange(n)[:, None] - np.arange(n)[None, :])
    mats = np.empty((len(ws), n, n), dtype=complex)
    for mat, w, got in zip(mats, ws, _recurrence_tables(p, ws, kmax, tol)):
        mat[:] = fourier_table(w, kmax, tol, _prepared=got or ())[0][idx]
    return [complex(d) for d in np.linalg.det(mats)]


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


@dataclass(frozen=True)
class FredholmSpec:
    """Gap determinant request: interval (-t, t), coupling xi, m >= 2t nodes."""

    t: float
    xi: complex = 1.0
    m: int = 80

    def __post_init__(self):
        if isinstance(self.t, complex) or not (float(self.t) > 0.0):
            raise ValueError("half-width t must be a positive real")
        try:
            m = operator.index(self.m)
        except TypeError:
            raise ValueError(f"the node count m must be an integer, "
                             f"not {self.m!r}") from None
        object.__setattr__(self, "m", m)
        if m < 10:
            raise ValueError("need at least 10 quadrature nodes")
        if not (math.isfinite(self.t) and cmath.isfinite(complex(self.xi))):
            raise ValueError("half-width and coupling must be finite")
        if self.t > 0.5 * m:
            raise ValueError(f"half-width t = {self.t!r} needs more than "
                             f"m = {m} nodes: the rule resolves |t| <= m/2")


def _legendre_pair(m: int, x: np.ndarray):
    """(P_m(x), P_{m-1}(x)) for m >= 1 by the three-term recurrence
    (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}, one pass over the degree
    for every x at once."""
    prev, cur, nxt = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, m):
        np.multiply(x, cur, out=nxt)
        nxt *= (2 * k + 1) / (k + 1)
        prev *= k / (k + 1)
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
    return cur, prev


@lru_cache(maxsize=64)
def _gl_rule(m: int):
    """Gauss-Legendre nodes and weights on (-1, 1), read-only.

    Newton on the three-term recurrence in O(m) memory, with no
    eigensolver (Hale and Townsend, SIAM J. Sci. Comput. 35 (2013) A652).
    Only the positive nodes x = cos(theta) are computed, in theta. The
    guesses are asymptotic: Olver's theta ~ psi + (psi cot psi - 1) /
    (8 psi v^2), psi = j_{0,k}/v, v = m + 1/2, on the half nearer x = 1,
    with j_{0,k} from McMahon's expansion (tabulated for k <= 3, where the
    series is too short), and Tricomi's formula on the half nearer 0; they
    are within 5e-6 relative at m = 10 and 2e-9 from m = 80 on. Each sweep
    evaluates P_m and P_{m-1} at every node in one vectorized pass of the
    recurrence (_legendre_pair). The Newton step in theta also takes back
    the rounding of x = cos(theta), cos(theta) - x = (1 - x) -
    2 sin^2(theta/2), exact where x >= 1/2, so that theta keeps its
    relative precision near x = 1; without that the weights there are off
    by about eps / theta^2, 1.6e-11 at m = 1000. Newton leaves a relative
    error of at most half the square of its relative step, so the sweeps
    stop once that is below eps: after one sweep from m = 80 on, two or
    three below.

    The weights come from one more sweep at the final nodes, through the
    derivative: w = 2 / ((1 - x^2) P_m'(x)^2), P_m' = m (x P_m - P_{m-1})
    / (x^2 - 1), with 1 - x^2 taken as sin^2(theta). x P_m - P_{m-1} is
    stationary in x at a root, so the rounding of a node does not reach
    its weight at first order, as it does in the P_{m-1}-only form
    2 (1 - x^2) / (m P_{m-1})^2. An odd rule's centre is 0.0 exactly,
    with weight 2 / (m P_{m-1}(0))^2, P_{m-1}(0) = +-C(m-1, (m-1)/2) /
    2^(m-1).

    Against 35-digit rules the nodes are within 1.4e-16 absolute and the
    weights within 4.4e-13 relative near x = +-1 and 3.3e-14 inside for
    m <= 600, 3.5e-12 near the ends at m = 2000; numpy's leggauss, a dense
    eigensolve of the companion matrix, is 2e-10 off near the ends at
    m = 600. The rules of m = 80, 140, 160, 280, 300 and 600 take 9.5 ms
    together in a fresh interpreter, against 100 ms for leggauss (one
    core, x86_64).

    The positive half is mirrored, so x[m-1-i] == -x[i] and
    w[m-1-i] == w[i] exactly. The cache hands the same arrays to every
    caller, and the parity blocks are built from views of them, so they
    are locked against writes.
    """
    half = m // 2
    k = np.arange(1, half + 1)
    beta = (k - 0.25) * math.pi
    e = 0.125 / beta
    e2 = e * e
    j0 = beta + e * (1.0 + e2 * (-124.0 / 3.0 + e2 * (
        120928.0 / 15.0 + e2 * (-401743168.0 / 105.0
                                + e2 * 1071187749376.0 / 315.0))))
    j0[:3] = _BESSEL_J0_ZEROS[:half]
    v = m + 0.5
    psi = j0 / v
    olver = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * v * v)
    tricomi = np.arccos((1.0 - (m - 1) / (8.0 * m ** 3))
                        * np.cos((4 * k - 1) * math.pi / (4 * m + 2)))
    theta = np.where(k <= half // 2, olver, tricomi)
    while True:
        x = np.cos(theta)
        pm, pm1 = _legendre_pair(m, x)
        sin_t = np.sin(theta)
        rounding = np.where(
            x >= 0.5, (1.0 - x) - 2.0 * np.sin(0.5 * theta) ** 2, 0.0)
        step = pm * sin_t / (m * (x * pm - pm1)) - rounding / sin_t
        theta -= step
        if np.max(np.abs(step) / theta, initial=0.0) <= _SQRT_EPS:
            break
    x = np.cos(theta)
    pm, pm1 = _legendre_pair(m, x)
    w = 2.0 * (np.sin(theta) / (m * (x * pm - pm1))) ** 2
    mid_x, mid_w = [], []
    if m % 2:
        mid_x = [0.0]
        mid_w = [2.0 / (m * math.comb(m - 1, half) / 2 ** (m - 1)) ** 2]
    return _locked(np.concatenate((-x, mid_x, x[::-1])),
                   np.concatenate((w, mid_w, w[::-1])))


class _Generators(NamedTuple):
    """Integrable-kernel blocks of one order n, stacked by generators.

    Row k of a, b and diag belongs to block k: its entry (i, j) off the
    diagonal is (a_ki b_kj - a_kj b_ki) / ((pi/2) (x_i - x_j)), and
    diag[k] is its diagonal. Every block shares the nodes x.
    """

    a: np.ndarray
    b: np.ndarray
    x: np.ndarray
    diag: np.ndarray

    def take(self, keep) -> _Generators:
        """The blocks that keep selects, as a stack of their own."""
        return _Generators(self.a[keep], self.b[keep], self.x,
                           self.diag[keep])

    def columns(self, js: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Column js[k] of every block k, O(n) work each: js and at, the
        flat indices k n + js[k] of the pivots, are columns."""
        col = self.a * self.b.take(at)
        col -= self.a.take(at) * self.b
        den = self.x - self.x.take(js)
        den *= _HALF_PI
        den.put(at, 1.0)
        col /= den
        col.put(at, self.diag.take(at))
        return col


def _sine_kernel_blocks(ts, m: int) -> list:
    """Parity blocks of the Nystrom matrix of the sine kernel on (-1, 1)
    at every half-width of ts, stacked by order.

    The kernel is sin(t d)/(pi d) in d = u - v, with diagonal t/pi. On
    the positive half p of the m-node rule the even block is
    (K(p_i - p_j) + K(p_i + p_j)) sqrt(w_i w_j) and the odd block has the
    minus sign. With s = sin(t p) and c = cos(t p) the addition theorem
    makes these 2 (p_i s_i c_j - p_j c_i s_j) and
    2 (p_j s_i c_j - p_i c_i s_j), over pi (p_i^2 - p_j^2), with
    diagonals (t +- s_i c_i / p_i) w_i / pi. The centre node of an odd
    rule joins the even block at half its weight, which reproduces its
    row exactly, and drops out of the odd one. One sin and one cos over
    the (t, node) array give every block of the grid.

    Returns (generators, V) per order: one pair for even m, holding the
    even blocks of every t and then the odd ones, and for odd m, whose
    even blocks are one node longer, the even pair and then the odd one.
    V stacks each block's n x 3 columns sqrt(w) (c, p s, p^2 c), or
    sqrt(w) (s, p c, p^2 s) for an odd block. The blocks of the
    t-derivative kernels cos(t d)/pi, -d sin(t d)/pi and
    -d^2 cos(t d)/pi are 2/pi times V0 V0^T, -+(V0 V1^T + V1 V0^T) and
    -(V0 V2^T + V2 V0^T - 2 V1 V1^T), upper sign even.
    """
    x, w = _gl_rule(m)
    half, c = m // 2, m % 2
    p = x[half:]
    sq = np.sqrt(w[half:])
    t = np.array(ts, dtype=float)[:, None]
    tp = t * p
    sin_p, cos_p = np.sin(tp), np.cos(tp)
    with np.errstate(divide="ignore", invalid="ignore"):
        sc = sin_p * cos_p / p
    if c:
        sq[0] = math.sqrt(0.5 * w[half])
        sc[:, 0] = t[:, 0]
    # parity first, then t: a = (p s, s), b = (c, p c), V = ((c, p s,
    # p^2 c), (s, p c, p^2 s)), all scaled by sqrt(w)
    a, b, diag = np.empty((3, 2) + sc.shape)
    s, co = np.multiply(sq, sin_p, out=a[1]), np.multiply(sq, cos_p, out=b[0])
    np.multiply(p, s, out=a[0])
    np.multiply(p, co, out=b[1])
    np.add(t, sc, out=diag[0])
    np.subtract(t, sc, out=diag[1])
    diag *= sq
    diag *= sq
    diag /= math.pi
    v = np.empty((2,) + sc.shape + (3,))
    v[0, ..., 0], v[0, ..., 1], v[0, ..., 2] = b[0], a[0], p * b[1]
    v[1, ..., 0], v[1, ..., 1], v[1, ..., 2] = a[1], b[1], p * a[0]
    pp = p * p
    if c:
        return [(_Generators(*(np.ascontiguousarray(g[k, :, lo:])
                               for g in (a, b)), pp[lo:],
                             np.ascontiguousarray(diag[k, :, lo:])),
                 v[k, :, lo:])
                for k, lo in ((0, 0), (1, c))]
    shape = (2 * len(t), sc.shape[1])
    return [(_Generators(a.reshape(shape), b.reshape(shape), pp,
                        diag.reshape(shape)), v.reshape(shape + (3,)))]


def _pivoted_cholesky(gens: _Generators) -> list:
    """Rows R_k of a diagonally pivoted Cholesky factor A_k ~ R_k^T R_k of
    every stacked positive semidefinite block, r_k x n, in lockstep.

    Each step pivots on the largest residual diagonal entry and generates
    only that column of a block. A block stops at full rank or once its
    residual trace is at most eps tr(A_k): the dropped part of a PSD
    block is PSD, so its trace bounds it in the trace, Frobenius and
    spectral norms. A stopped block leaves the active stack, whose arrays
    shrink with it, so none of its columns is generated after its last
    step. The active rows share one buffer as deep as the running rank.

    One step is one argmax, one column generation and one residual
    update over the active stack. The projection R^T R[:, j] on each
    block's earlier rows is one stacked matmul that makes one BLAS gemv
    call per block, as on the block alone: R^T is a view of the buffer,
    and block k's pivot column R[:, j] is copied into column k of a
    small buffer, at the stride n it has in R (max(n, blocks) where the
    blocks outnumber n). BLAS reads a vector of any stride but 1 alike;
    gathered into contiguous vectors, about half the outputs moved in
    the last bits. So every R_k is bit for bit the factor of its block
    by itself. Returns (block indices, their rows as a stack) per stop.
    """
    count, n = gens.diag.shape
    resid = gens.diag.copy()
    stop = _EPS * resid.sum(axis=1)
    live, active, factors = np.arange(count), gens, []
    rows = np.empty((count, min(n, 4), n))
    pivots = np.empty((rows.shape[1], max(n, count)))
    ks = np.arange(count)
    offsets, proj = (ks * n)[:, None], np.empty((count, n, 1))
    r = 0
    while True:
        keep = np.add.reduce(resid, axis=1) > stop
        if np.count_nonzero(keep) < len(keep):
            factors.append((live[~keep], rows[~keep, :r]))
            live, rows = live[keep], rows[keep]
            active, resid, stop = active.take(keep), resid[keep], stop[keep]
            ks = np.arange(len(live))
            offsets, proj = (ks * n)[:, None], np.empty((len(live), n, 1))
        if r == n or not len(live):
            break
        if r == rows.shape[1]:
            deeper = np.empty((len(live), min(2 * r, n), n))
            deeper[:, :r] = rows
            rows = deeper
            pivots = np.empty((rows.shape[1], pivots.shape[1]))
        js = resid.argmax(axis=1)
        jcol = js[:, None]
        at = offsets + jcol
        col = active.columns(jcol, at)
        if r:
            pivots[:r, :len(ks)] = rows[ks, :r, js].T
            np.matmul(rows[:, :r].transpose(0, 2, 1),
                      pivots[:r, :len(ks)].T[:, :, None], out=proj)
            col -= proj[..., 0]
        col /= np.sqrt(resid.take(at))
        rows[:, r] = col
        resid -= col * col
        r += 1
    if len(live):
        factors.append((live, rows[:, :r]))
    return factors


def _factor_grid(ts, m: int) -> list:
    """Per half-width of ts, the even and the odd block as
    (V, R, R R^T, eigenvalues of R R^T).

    The blocks of every t (_sine_kernel_blocks) are factored in lockstep
    (_pivoted_cholesky), A ~ R^T R, at most _LOCKSTEP_ENTRIES block
    entries (blocks times order) to a lockstep, so that
    det(I - xi A) = prod (1 - xi lam_j) over the eigenvalues lam_j of the
    r x r Gram matrix R R^T by Sylvester's identity. The Gram matrices
    and their eigenvalues are one stacked product and one eigvalsh call
    per stack of equal rank, each bit for bit that of its block alone. A
    single t is the one-point case.
    """
    count = len(ts)
    blocks = [None] * (2 * count)
    for offset, (gens, v) in zip((0, count), _sine_kernel_blocks(ts, m)):
        size, n = gens.diag.shape
        step = max(1, _LOCKSTEP_ENTRIES // n)
        for lo in range(0, size, step):
            part = gens.take(slice(lo, lo + step))
            for index, stack in _pivoted_cholesky(part):
                grams = stack @ stack.transpose(0, 2, 1)
                eigs = np.linalg.eigvalsh(grams)
                for k, rows, gram, eig in zip((index + lo).tolist(), stack,
                                              grams, eigs):
                    blocks[offset + k] = (v[k], rows, gram, eig)
    return [(blocks[i], blocks[count + i]) for i in range(count)]


def _factored(ts, xi, m):
    """(spec, its blocks as (V, R, R R^T, lam)) for each t of ts in grid
    order, lam = xi times the eigenvalues of R R^T (_factor_grid).

    Every t is checked (FredholmSpec), and the first t refused in grid
    order raises, before the blocks of the grid are factored in one pass.
    Each eigenvalue may carry an absolute error of m eps, so
    m eps sum |lam_j| / |1 - lam_j| over both blocks bounds the relative
    error of the determinant; where it reaches 1 no digit is correct and
    ValueError is raised as the t's turn comes. At xi = 1 and m = 600 it
    reads 3.4e-11, 1.4e-9 and 6.4e-8 at t = 4, 6 and 8, and passes 1
    before t = 20.
    """
    specs = [FredholmSpec(t, xi, m) for t in ts]
    if not specs:
        return
    xi, m = _narrow(xi), specs[0].m
    for spec, pair in zip(specs, _factor_grid([float(s.t) for s in specs], m)):
        blocks, cond = [], 0.0
        # a factor of exactly 0 makes the bound infinite, and a product
        # xi lam that overflows makes it nan: both are refused below.
        # numpy's complex product flags an overflow in an intermediate
        # even where it is finite, at |xi| near the float max
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for v, rows, gram, eig in pair:
                lam = xi * eig
                cond += float((np.abs(lam) / np.abs(1.0 - lam)).sum())
                blocks.append((v, rows, gram, lam))
        bound = m * _EPS * cond
        if not bound < 1.0:
            raise ValueError(
                f"det(I - xi K) at t = {spec.t!r}, xi = {xi!r} has no "
                f"correct digit at m = {m} nodes: its rounding bound "
                f"reads {bound:.3g}")
        yield spec, blocks


def fredholm_grid(ts, xi: complex = 1.0, m: int = 80) -> list:
    """det(I - xi K) on (-t, t) for the kernel sin(x-y)/(pi(x-y)), at
    every t of a grid.

    Rescaled to (-1, 1), where the kernel is sin(t(u-v))/(pi(u-v)) with
    diagonal t/pi, and factored by parity: det(I - xi A+) det(I - xi A-)
    over the even and odd blocks of the whole m-node Nystrom matrix, each
    the product of its factors 1 - lam_j. The blocks of the whole grid
    are factored in one lockstep pass (_factored, which raises ValueError
    where no digit is correct; see the Fredholm notes), and ValueError is
    raised where the sum of log |1 - lam_j| over both blocks says the
    product leaves the float range. Convergence in m is exponential; the
    check of it, a second evaluation at doubled m, belongs to the caller
    (the fredholm selftest runs it). Each value is a float for real xi.
    Every value is the one fredholm_sine returns at its t, bit for bit.
    Every t is checked before any is computed (_factored): the first t
    refused in grid order raises, or else the first t that fails.
    """
    out = []
    for spec, blocks in _factored(ts, xi, m):
        lams = [lam for *_, lam in blocks]
        logabs = sum(float(np.sum(np.log(np.abs(1.0 - lam))))
                     for lam in lams)
        if logabs > _LOG_MAX:
            raise ValueError(
                f"det(I - xi K) at t = {spec.t!r}, xi = "
                f"{_narrow(spec.xi)!r} leaves the float range: log |det| "
                f"reads {logabs:.6g}")
        e = 1.0
        for lam in lams:
            e = e * np.prod(1.0 - lam)
        out.append(float(e) if isinstance(_narrow(spec.xi), float)
                   else complex(e))
    return out


def fredholm_sine(spec: FredholmSpec):
    """det(I - xi K) on (-t, t) for the kernel sin(x-y)/(pi(x-y)) at one
    half-width: the one-point case of fredholm_grid. Returns float for
    real xi."""
    return fredholm_grid([spec.t], spec.xi, spec.m)[0]


def fredholm_log_derivatives_grid(ts, xi: complex = 1.0,
                                  m: int = 140) -> list:
    """(log E, d log E/dt, d2, d3) for the sine-kernel determinant at
    every t of a grid.

    From the factors fredholm_grid multiplies, under the same argument
    check (FredholmSpec) and guard, in the same one lockstep pass: log E
    sums log |1 - lam_j| over both blocks and takes the principal log of
    the product of their signs. The derivatives are resolvent-trace
    identities rather than finite differences, per parity block with
    Q = (I - xi A0)^{-1} and C_k = A_k Q: d log E/dt = -xi tr C1, the
    second derivative adds tr C1^2 and tr C2, the third tr C1^3,
    tr C1 C2 and tr Q A3. In the rank forms of the A_k
    (_sine_kernel_blocks) each trace is a polynomial in the bilinear Gram
    matrix G = V^T Q V (no conjugate for complex xi): with a = 2/pi,
    upper sign even, tr C1 = a G00, tr C2 = -+2a G01 and
    tr Q A3 = -2a (G02 - G11). Woodbury on A0 ~ R^T R gives
    G = V^T V + xi (R V)^T (I - xi R R^T)^{-1} (R V), one r x r solve per
    block. Real arithmetic throughout for real xi. A row that leaves the
    float range (at |xi| near the float max) raises ValueError. Every row
    is the one fredholm_log_derivatives returns at its t, bit for bit, and
    failures raise as in fredholm_grid.
    """
    out = []
    for spec, blocks in _factored(ts, xi, m):
        xi = _narrow(spec.xi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logabs, sign = 0.0, 1.0
            tr1 = tr2 = tr3 = tr11 = tr12 = tr111 = 0.0
            for (v, rows, gram, lam), parity in zip(blocks, (1.0, -1.0)):
                factors = 1.0 - lam
                logabs += float(np.sum(np.log(np.abs(factors))))
                sign *= np.prod(factors / np.abs(factors))
                rv = rows @ v
                mat = gram * -xi
                mat.flat[::len(mat) + 1] += 1.0
                g = v.T @ v + xi * (rv.T @ np.linalg.solve(mat, rv))
                c1, c2 = g[0, 0] / _HALF_PI, -parity * 2 * g[0, 1] / _HALF_PI
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
            row = (loge, complex(l1), complex(l2), complex(l3))
        if not all(map(cmath.isfinite, row)):
            raise ValueError(f"the log-derivatives of det(I - xi K) at t = "
                             f"{spec.t!r}, xi = {xi!r} leave the float range")
        out.append(row)
    return out


def fredholm_log_derivatives(t: float, xi: complex = 1.0, m: int = 140):
    """(log E, d log E/dt, d2, d3) for the sine-kernel determinant at one
    half-width: the one-point case of fredholm_log_derivatives_grid."""
    return fredholm_log_derivatives_grid([t], xi, m)[0]


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

    The dimensions, which must be integers, are checked once and every
    normalization comes from one sweep of barnes_prefactors up to the
    largest N, so a gamma pole raises before any determinant. Then, N by N
    in ascending order, the averages at the whole grid are one
    toeplitz_grid call at its default accuracy, which batches the grid's
    seed quadrature and refuses its first bad t before it computes any.
    Every value is the one that toeplitz_an and barnes_prefactor give at
    its (x, N), bit for bit. A failure raises at the first N that fails,
    as that N's toeplitz_grid call raises it.
    """
    try:
        ns = sorted({operator.index(n) for n in n_list})
    except TypeError:
        raise ValueError(f"the dimensions must be integers, "
                         f"not {n_list!r}") from None
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
