"""Mathieu characteristic values and angular eigenfunctions.

The angular equation Phi'' + (c - 2 q cos 2z) Phi = 0 with pi-periodic
solutions leads, in the Fourier basis, to symmetric tridiagonal eigenvalue
problems on a lattice of sites. Cosine-elliptic solutions of even order 2m
couple cos(2kz), k >= 0; sine-elliptic ones couple sin(2kz), k >= 1; a real
Floquet exponent nu couples the shifted lattice exp(i(nu+2k)z), k in Z.

All three are solved by one kernel over arrays of order and q. It cuts a
window of 2h+1 sites around the site of the wanted mode (clipped at the
bottom of the cosine and sine lattices) and solves stacks of rows of one kind,
each by one path. Windows cut off the lattice bottom (every Floquet row, and
cosine and sine rows whose label exceeds h) go to Rayleigh-quotient iteration
(Parlett, The Symmetric Eigenvalue Problem, 1998, ch. 4), started from the
shift of the 2 x 2 blocks of the centre site and its neighbours; windows at
the bottom, and iterated rows left uncertified, go to stacked numpy eigh,
whose sorted position of the wanted mode is min(label, h) on every lattice,
the label being the number of lattice sites below it at q = 0. The value is
the vector's long-double Rayleigh quotient. A row is accepted when

* |q| * tail <= 1e-12, with tail the norm of the components at the window
  ends that truncate the lattice: the zero-padded vector then has that
  residual in the untruncated operator, so an exact eigenvalue lies that
  close (Parlett, 4.5), and tail <= 1e-14 of the largest component;
* an iterated vector v has |T v - value v| <= 2**-48 (d_top + 2 |q|) in its
  window: the iteration has converged (Ipsen, SIAM Review 39, 1997);
* a Sturm count of the lattice from its bottom (k = 0, or on the Floquet
  lattice the mirror of the window top) to the window top confirms that
  the value is the wanted one in sorted order (Barth, Martin & Wilkinson,
  Numer. Math. 9, 1967); it takes no eigensolve. Windows at the bottom of
  the cosine and sine lattices cut nothing off and need no count.

Rows that fail are solved again on a window of twice the half-width; past a cap
they get a ConvergenceError. The first window has 5 sites on each side of the
wanted one on the cosine and sine lattices, where a low order's window is
clipped at k = 0 and reaches 10 sites above it, and 10 on the Floquet lattice,
which the window cuts at both ends. The window does not grow with the order, so
any order up to 2**16 solves at the same cost; higher orders at q != 0 are
refused (the Sturm count runs over every lower site). A value at q = 0 is exact
at any order, but fourier_coeffs, whose vector holds m + 1 entries, keeps the cap.

Each distinct (order, q) of a call is solved once (at non-integer flux the ce
and se labels of one m share it), in equal stacks of at most 2**17 entries: a
1,000-row axis of 11-site windows fits one. A 21,021-row corrections sweep's
process peaked at 38.2 MB RSS with it and 41.4 MB with 2**18 (x86-64, Python
3.11, numpy 2.4).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, ParameterError, _count, _widen

_HALF_START = 5  # first window half-width on the cosine and sine lattices, in sites
_HALF_START_FLOQUET = 10  # first window half-width on the Floquet lattice
_HALF_CAP = 640  # largest half-width tried before a ConvergenceError
_ORDER_CAP = 1 << 16  # largest m (nu/2) at q != 0: the Sturm count runs over every lower site
_ORDER_MAX = 0.5 * math.sqrt(np.finfo(float).max)  # largest m (nu/2) whose (2m)^2 is finite
_STACK_ENTRIES = 1 << 17  # array entries per stack of rows solved together (1 MB)
_TRUNC_TOL = 1e-12  # residual bound |q| * tail on the characteristic value
_TAIL_TOL = 1e-14  # outermost coefficient relative to the largest
_RESID_TOL = 2.0 ** -48  # in-window residual of an iterated vector, over the window's norm bound
_STEPS = 8  # Rayleigh-quotient steps before a row goes to eigh
_Q_BOUND = 1e4  # truncation-validity bound for |q|


class Branch(enum.Enum):
    CE = "ce"
    SE = "se"


@dataclass(frozen=True)
class MathieuChar:
    """One characteristic value: order nu = 2(m+delta), parameter q, value c.

    branch is None for fractional order, where the ce/se families merge
    into a single analytic family.
    """

    order_nu: float
    q: float
    branch: Optional[Branch]
    value: float


@dataclass(frozen=True)
class FourierCoeffs:
    """Fourier coefficients of a pi-periodic (in z) angular eigenfunction.

    CE: coeffs[k] multiplies cos(2kz), k >= 0.
    SE: coeffs[k] multiplies sin(2(k+1)z), k >= 0.
    Normalized so 2*A0^2 + sum A^2 = 1 (CE) / sum B^2 = 1 (SE), which makes
    the angular function square-integrate to pi over a full period.
    Coefficients below the solved window are zero; truncation is the number
    of coefficients kept. value is the characteristic value of the same
    eigenpair.
    """

    branch: Branch
    order: int
    q: float
    coeffs: np.ndarray
    truncation: int
    value: float


def _diagonal(branch: Optional[Branch], order, k):
    """Lattice diagonal at integer sites k: (2k)^2, (2(k+1))^2 or (nu+2k)^2."""
    if branch is None:
        return (order + 2.0 * k) ** 2
    return (2.0 * (k + 1 if branch is Branch.SE else k)) ** 2


def _coupling(branch: Optional[Branch], q, k):
    """Off-diagonal between sites k and k+1, of the shape of q and k broadcast."""
    # sqrt(2) couples the constant CE mode to cos 2z
    return np.where((k == 0) & (branch is Branch.CE), math.sqrt(2.0) * q, q)


def _sturm_count(branch, order, q, bottom, top, x):
    """Eigenvalues below x (shape (2, rows)) of the lattice on sites bottom..top.

    Counts the negative pivots of the LDL^T factorization of T - x, taken
    from the top site down; a pivot below pivmin is replaced by -pivmin, as
    LAPACK's dstebz does, so that no division overflows. Rows with a shorter
    segment are padded with uncoupled sites of pivot 1. The sites are taken
    in blocks that keep the arrays within the stack budget.
    """
    pivmin = np.full(x.shape, np.finfo(float).tiny * np.maximum(q * q, 1.0))
    count, pivot, neg = np.zeros(x.shape, dtype=int), np.ones(x.shape), -pivmin
    length = int(np.max(top - bottom)) + 1
    block = max(1, _STACK_ENTRIES // (4 * q.size))
    for start in range(0, length, block):
        k = top - np.arange(start, min(length, start + block))[:, None]  # sites by rows
        inside = k >= bottom
        dx = np.where(inside[:, None], _diagonal(branch, order, k)[:, None] - x, 1.0)
        # to the site above, none above the top
        e2 = np.where(inside & (k < top), _coupling(branch, q, k) ** 2, 0.0)[:, None].repeat(2, 1)
        for dxt, e2t in zip(dx, e2):
            dxt -= e2t / pivot
            np.putmask(dxt, np.abs(dxt) < pivmin, neg)
            pivot = dxt
        count += (dx < 0.0).sum(axis=0)
    return count


def _inverse_iteration(d, e, shift, tol):
    """Unit eigenvectors of the tridiagonal windows (d, e) by Rayleigh-quotient iteration.

    The iteration starts at sigma = shift. A step factors T - sigma twisted
    at h (Parlett & Dhillon, Linear Algebra Appl. 309, 2000): pivots run in
    from both ends, the x with x_h = 1 and (T - sigma) x = gamma e_h is the
    product of the ratios out from h, and sigma + gamma / |x|^2, its
    Rayleigh quotient, is the next sigma. A row stops, its sigma kept, once
    its residual |gamma| / |x| is within tol; a row that has not within
    _STEPS steps is nan.
    """
    n = d.shape[1]
    h = n // 2
    fold = np.arange(h)[:, None] * [1, -1] + [0, n - 1]  # sites j and n - 1 - j, j < h
    dd, ee = d.T[fold], e.T[fold - [0, 1]]  # by site, then row; e couples each site inward
    ee2, ratio, centre, tol2, sigma = ee * ee, -ee[::-1], d[:, h], tol * tol, shift
    with np.errstate(all="ignore"):  # a zero pivot or an overflow leaves a row non-finite
        for _ in range(_STEPS):
            p = dd - sigma
            prev = p[0]
            for pivot, c2 in zip(p[1:], ee2):
                pivot -= c2 / prev
                prev = pivot
            inward = ee2[-1] / p[-1]
            gamma = centre - sigma - inward[0] - inward[1]
            x = np.cumprod(ratio / p[::-1], axis=0)[::-1]
            # summed site by site, so that a row's bits do not depend on its stack
            norm2 = 1.0 + np.cumsum((x * x).reshape(n - 1, -1), axis=0)[-1]
            done = gamma * gamma <= tol2 * norm2
            if done.all():
                break
            sigma = np.where(done, sigma, sigma + gamma / norm2)
        vec = np.ones((d.shape[0], n))
        vec[:, fold] = x.transpose(2, 0, 1)
        vec[~done] = np.nan
        return vec / np.sqrt(norm2)[:, None]


def _window(branch, order, q, h, iterate):
    """Solve one stack of rows of one kind on windows of half-width h, by one path.

    iterate is set for a stack cut off its lattice's bottom: Rayleigh-quotient
    iteration solves it, and eigh solves again, in the one recursion, each row
    off its in-window residual bound or its label count. A stack at the bottom
    of the cosine or sine lattice goes to eigh alone and needs neither test.

    Returns (value, lo, vec, tail_ok, label_ok): the refined value, first
    site and unit eigenvector of each row's window, and the acceptance tests
    of the module docstring.
    """
    n = 2 * h + 1
    if branch is None:
        label = np.ceil(order).astype(int) - 1  # lattice points |nu+2k| < nu, k != 0
        lo = np.full(q.size, -h)
        bottom = -np.floor(order + h).astype(int)  # |nu+2k| <= nu+2h from here up
    else:
        label = order.astype(int) - (branch is Branch.SE)
        lo = np.maximum(label - h, 0)
        bottom = np.zeros(q.size, dtype=int)
    cut = branch is None or label[0] > h
    k = lo[:, None] + np.arange(n)
    d = _diagonal(branch, order[:, None], k)
    e = _coupling(branch, q[:, None], k[:, :-1])
    scale = d[:, -1] + 2.0 * np.abs(q)  # bounds the norm of every window
    if iterate:
        # the iteration starts from the centre site's diagonal, moved by each neighbour as
        # their 2 x 2 block moves it: finite where they meet (nu = 1), a tie to the lower one
        half, c = (d[:, h, None] - d[:, h - 1:h + 2:2]) / 2.0, e[:, h - 1:h + 1]
        move = c * c / (half + np.where(half > 0.0, 1.0, -1.0) * np.hypot(half, c))
        vec = _inverse_iteration(d, e, d[:, h] + move[:, 0] + move[:, 1], _RESID_TOL * scale)
    else:
        mat = np.zeros((q.size, n * n))
        mat[:, :: n + 1] = d
        mat[:, n:: n + 1] = e  # the subdiagonal: eigh reads the lower triangle
        _, v = np.linalg.eigh(mat.reshape(-1, n, n))
        # sorted position of the q = 0 mode in the window: its lower sites on
        # the lattice, at most h (on the Floquet lattice the sites -nu < k < 0)
        vec = v[np.arange(q.size), :, np.minimum(label, h)]
    vl, dl, el = (a.astype(np.longdouble) for a in (vec, d, e))
    tv = dl * vl
    tv[:, :-1] += el * vl[:, 1:]
    tv[:, 1:] += el * vl[:, :-1]
    value = (vl * tv).sum(axis=1) / (vl * vl).sum(axis=1)
    tail = np.hypot(vec[:, 0], vec[:, -1]) if cut else np.abs(vec[:, -1])
    tail_ok = (np.abs(q) * tail <= _TRUNC_TOL) & (tail <= _TAIL_TOL * np.abs(vec).max(axis=1))
    if iterate:
        res = tv - value[:, None] * vl  # in the window
        sound = (res * res).sum(axis=1) <= (_RESID_TOL * scale) ** 2
    value, label_ok = value.astype(float), np.ones(q.size, dtype=bool)
    if cut:  # a window at the bottom needs no count: the label is its sorted position
        # an eigenvalue lies within the residual bound of value; the margin adds
        # the pivots' backward error
        margin = _TRUNC_TOL + 64.0 * np.finfo(float).eps * scale
        below, upto = _sturm_count(branch, order, q, bottom, lo + n - 1,
                                   value + np.array([[-1.0], [1.0]]) * margin)
        label_ok = (below <= label) & (label < upto)
    if iterate and (r := (~(sound & label_ok)).nonzero()[0]).size:
        value[r], _, vec[r], tail_ok[r], label_ok[r] = _window(branch, order[r], q[r], h, False)
    return value, lo, vec, tail_ok, label_ok


def _fail(errors, mask, make):
    """Give each row of mask that has no error yet the error make(i)."""
    rows = mask.nonzero()[0]
    for i in rows[np.equal(errors[rows], None)]:
        errors[i] = make(i)


def _raise_first(errors):
    """Raise the first error that is not None, in order."""
    for err in errors:
        if err is not None:
            raise err


def char_values(branch: Optional[Branch], order, q, _windows=False):
    """Characteristic values over arrays of order and q, broadcast together.

    branch CE/SE takes only integer orders m >= 0 (m >= 1 for SE), whose value
    continues (2m)^2 from q = 0; branch None takes fractional orders nu and
    continues nu^2 along the Floquet lattice; both widen to float64 first.
    Returns (values, errors, windows), three arrays over the rows. A row out
    of domain, or whose solve fails, has value nan and its QringError in the
    object array errors; every other entry is None. With _windows set
    (fourier_coeffs sets it), windows[i] is row i's (first site, unit vector),
    a single site at q = 0, where the order cap then holds too; it is None
    where errors[i] is set, on the Floquet lattice (branch None) at q = 0,
    whose window no caller reads, and everywhere without _windows.

    Rows at q != 0 are solved as the module docstring describes: each round
    splits them into stacks of one kind, cut off the lattice bottom or at it,
    and solves each stack by one path. Rows that repeat an (order, q) get the
    value, error and window of its one solve.
    """
    given, q = np.broadcast_arrays(np.atleast_1d(order), np.atleast_1d(_widen(q)))
    order = _widen(given)  # the messages show the caller's elements, given
    half = order / 2.0 if branch is None else order
    shown = half if branch is None else given  # m as given, or nu / 2
    values = np.full(q.size, np.nan)
    errors = np.full(q.size, None)
    windows = np.full(q.size, None)
    # the domain rules in order; a row gets the message of the first it breaks
    rules = [] if branch is not None else [
        (~(np.isfinite(order) & (order > 0.0)),
         lambda i: f"fractional order must be positive and finite, got {given[i]}"),
        (order == 2.0 * np.rint(order / 2.0),
         lambda i: f"nu = {given[i]} is an even integer; use char_value"),
    ]
    rules += [
        (~np.isfinite(q), lambda i: "q must be finite"),
        (np.abs(q) > _Q_BOUND, lambda i: f"|q| = {abs(q[i])} exceeds "
                                         f"truncation-validity bound {_Q_BOUND}"),
        (((q != 0.0) | _windows) & (half > _ORDER_CAP),  # a q = 0 value is exact, not its vector
         lambda i: f"order {shown[i]} (m, or nu/2 at fractional order) is above the "
                   f"largest solvable order {_ORDER_CAP}"),
        (~(half <= _ORDER_MAX),
         lambda i: f"order {shown[i]} (m, or nu/2 at fractional order): its "
                   f"characteristic value overflows a double"),
    ]
    if branch is not None:  # ce holds the orders 2m with integer m >= 0, se those with m >= 1
        off = (order < (branch is Branch.SE)) | (order != np.floor(order))  # +inf: overflow rule
        rules.append((off, lambda i: f"order {given[i]} out of range for {branch.value}"))
    broken = np.logical_or.reduce([mask for mask, _ in rules])  # one pass over the masks
    for mask, message in rules if broken.any() else ():
        _fail(errors, mask, lambda i: ParameterError(message(i)))
    live = ~broken
    still = live & (q == 0.0)
    values[still] = (order[still] if branch is None else 2.0 * order[still]) ** 2
    if _windows and branch is not None:  # the q = 0 mode is one site of the cosine or sine lattice
        for i in still.nonzero()[0]:
            windows[i] = (int(order[i]) - (branch is Branch.SE), np.ones(1))

    previous = np.full(q.size, np.nan)  # each row's value on its last window but one
    todo = dst = src = (live & (q != 0.0)).nonzero()[0]  # row dst[i] takes src[i]'s solve
    if dst.size > 1:  # solve each distinct (order, q) once; a single row skips the search
        _, first, inv = np.unique(order[dst] + 1j * q[dst], return_index=True, return_inverse=True)
        todo, src = dst[first], dst[first][inv]
    h = _HALF_START_FLOQUET if branch is None else _HALF_START
    while todo.size:
        if h > _HALF_CAP:
            for i in todo:
                errors[i] = ConvergenceError(
                    f"residual bound |q| * tail above {_TRUNC_TOL} or label unconfirmed "
                    f"at window {h + 1} sites",
                    last=float(values[i]),
                    previous=float(previous[i]),
                )
            values[todo] = np.nan
            break
        failed = []
        step = max(1, _STACK_ENTRIES // (2 * h + 1) ** 2)
        # each stack holds one kind of row: windows cut off their lattice's bottom, or at it
        cut = (branch is None) | (order[todo] > h + (branch is Branch.SE))
        for iterate, part in ((True, todo[cut]), (False, todo[~cut])):
            size = -(-part.size // -(-part.size // step)) if part.size else 1
            for rows in (part[i:i + size] for i in range(0, part.size, size)):  # few, even stacks
                value, lo, vec, tail_ok, label_ok = _window(
                    branch, order[rows], q[rows], h, iterate)
                previous[rows] = values[rows]
                values[rows] = value
                ok = tail_ok & label_ok
                failed.append(rows[~ok])
                for j in ok.nonzero()[0] if _windows else ():
                    windows[rows[j]] = (int(lo[j]), vec[j])
        todo = np.concatenate(failed)
        h *= 2
    values[dst], errors[dst], windows[dst] = values[src], errors[src], windows[src]
    return values, errors, windows


def char_value(m: int, branch: Branch, q: float) -> MathieuChar:
    """Characteristic value of integer even order 2m (a-type for CE, b-type for SE)."""
    m = _count("m", m)
    values, errors, _ = char_values(branch, m, q)
    _raise_first(errors)
    return MathieuChar(2.0 * m, q, branch, float(values[0]))


def char_value_fractional(nu: float, q: float) -> MathieuChar:
    """Characteristic value lambda_nu(q) for a real non-even-integer order nu.

    The value continues nu^2 from q = 0 along the analytic family of the
    Floquet lattice (nu+2k)^2. Approaching an even integer 2m from above
    meets the CE value, from below the SE value; route exact even integers
    through char_value instead.
    """
    values, errors, _ = char_values(None, nu, q)
    _raise_first(errors)
    return MathieuChar(nu, q, None, float(values[0]))


# --- small-q polynomial form, valid for m > 3 ---

def _series_args(m, p):
    order, p = float(_widen(m)), float(_widen(p))
    if not 3 < order <= _ORDER_MAX or int(order) != order:
        raise ParameterError(f"series form requires integer 3 < m <= {_ORDER_MAX:.6g}, got {m}")
    if not abs(p) <= _Q_BOUND:  # the kernel names the rule on q that p breaks, with no solve
        _raise_first(char_values(Branch.CE, 4.0, p)[1])
    return int(order), p


def char_value_series(m: int, p: float) -> float:
    """Four-term small-p polynomial for the order-2m characteristic value.

    Valid for m > 3, where the a/b pair is degenerate through the retained
    orders. Truncation error is O(p^8); see series_p8_estimate. Written in
    t = 1/(4m^2 - 1), no term overflows up to _ORDER_MAX.
    """
    m, p = _series_args(m, p)
    t = 1.0 / (4.0 * m * m - 1.0)
    return (
        4.0 * m * m
        + p * p * t / 2.0
        + (5.0 + 12.0 * t) * t ** 3 * p ** 4 / (32.0 * (1.0 - 3.0 * t))
        + ((96.0 * t + 76.0) * t + 9.0) * t ** 5 * p ** 6
        / (64.0 * (1.0 - 3.0 * t) * (1.0 - 8.0 * t))
    )


def series_p8_estimate(m: int, p: float) -> float:
    """Estimate of the first omitted term of char_value_series.

    c8 p^8, with c8 the q^8 coefficient of the series at order nu = 2m in
    closed form,

        c8 = (1469 nu^10 + 9144 nu^8 - 140354 nu^6 + 64228 nu^4 + 827565 nu^2
              + 274748) / (8192 (nu^2-1)^7 (nu^2-4)^3 (nu^2-9) (nu^2-16)),

    the next term of Abramowitz & Stegun 20.2.25, from the exact rational
    expansion of the two-sided continued fraction of the Floquet recurrence.
    It holds for nu^2 not in {1, 4, 9, 16} and is positive for nu >= 8. It is
    evaluated in t = 1/nu^2, where no order overflows. Added to it are the a/b
    splitting contribution when it lands exactly at order q^8 (2m = 8) and a
    floor of 4 ulp of the leading term: the series and any float64 reference
    value cannot be distinguished more finely than that.
    """
    m, p = _series_args(m, p)
    t = 1.0 / (4.0 * m * m)
    poly = ((((274748.0 * t + 827565.0) * t + 64228.0) * t - 140354.0) * t + 9144.0) * t + 1469.0
    c8 = poly * t ** 7 / (8192.0 * (1.0 - t) ** 7 * (1.0 - 4.0 * t) ** 3
                          * (1.0 - 9.0 * t) * (1.0 - 16.0 * t))
    if 2 * m == 8:
        # half of the leading-order a-b splitting 2 q^{2m}/(4^{2m-1}((2m-1)!)^2)
        c8 += 1.0 / (4.0 ** (2 * m - 1) * math.factorial(2 * m - 1) ** 2)
    return c8 * p ** 8 + 4.0 * float(np.spacing(4.0 * m * m))


def fourier_coeffs(m: int, branch: Branch, q: float) -> FourierCoeffs:
    """Fourier coefficients of the order-2m angular eigenfunction.

    Sign fixed so the largest-magnitude coefficient is positive; the window's
    outermost components are <= 1e-14 of the largest, and the coefficients
    below the window are zero.
    """
    m = _count("m", m)
    values, errors, windows = char_values(branch, m, q, _windows=True)
    _raise_first(errors)
    lo, vec = windows[0]
    coeffs = np.zeros(lo + vec.size)
    coeffs[lo:] = vec
    # the eigenvector is unit-norm; the constant CE mode carries sqrt(2) in the
    # matrix, so dividing it back restores 2*A0^2 + sum A^2 = 1
    if branch is Branch.CE:
        coeffs[0] /= math.sqrt(2.0)
    if coeffs[np.argmax(np.abs(coeffs))] < 0:
        coeffs = -coeffs
    return FourierCoeffs(branch, m, q, coeffs, coeffs.size, float(values[0]))


def eval_angular(theta, coeffs: FourierCoeffs, delta: float = 0.0):
    """Angular factor Theta(theta) = e^{i delta theta} * trig sum.

    The trig sum uses the integer-order coefficients; the flux enters as a
    Bloch-type phase. That is exact at q = 0 or integer delta, and is the
    adopted convention otherwise (the phase never changes |Theta|, so the
    pi-normalization holds for any delta). Accepts scalar or array theta.
    One Horner sum s = sum_k c_k e^{ik theta}: CE is Re s, SE Im(e^{i theta} s).
    """
    th = np.asarray(theta, dtype=float)
    z = np.exp(1j * th)
    s = np.polynomial.polynomial.polyval(z, coeffs.coeffs)  # sum_k c_k z^k by Horner
    out = (s.real if coeffs.branch is Branch.CE else (z * s).imag) * np.exp(1j * delta * th)
    if np.isscalar(theta) or getattr(theta, "ndim", 0) == 0:
        return complex(out)
    return out
