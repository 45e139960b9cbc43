"""Executes pulse schedules on phonon states in the interaction picture.

The engine has two layers.  :class:`ModeMaps` needs no Fock space, only
the coupling matrix: it finds the M x M mode map of each window.
:class:`SchedulePropagator` binds those maps to one truncated Fock space
and runs on a state the steps of a schedule, :meth:`PulseSchedule.steps`:
free segments, parity phases (ideal pulses) and windows, each of its own
shaped pulse and carved from the tail of the free segment before it, so
the wall clock of the schedule is its evolve time.

A shaped pulse opens a window in which the trap drive of the pulsed modes
acts without the rotating wave reduction,

    H_I(t)/hbar = H_hop/hbar
        + sum_j g_j(t) (a_j^2 e^{-2 i w0 t} + a_j^dag^2 e^{+2 i w0 t} + 2 n_j + 1)

with g_j(t) the squared frequency excess over 4 w0, w0 the model's
``DEFAULT_SECULAR_FREQUENCY``: a pulse supplies only its drive, whatever
w0 it was designed at.  Every term is
quadratic in the ladder operators, so the window is a Gaussian unitary U
fixed by two M x M matrices: U^dag a U = A a + B a^dag.  The mode layer
finds (A, B) once per pulsed-mode set and pulse, for a window that starts
at time 0, by sixth-order Magnus steps in the lab frame on the real
2M x 2M symplectic matrix S that propagates the mode quadratures: there
its generator is a constant L0 plus the drive times a constant L1, with no
e^{2 i w0 t} carrier to follow.  The Magnus exponent of every step is then
a fixed combination of L0, L1 and eight of their commutators, built once
per map.  A level of steps reads the drive once and is built in slices of
at most 96 KiB, each one matrix product for the exponents, a scaled Taylor
exponential and a prefix product blocked about sqrt(n) ways: batched
matrix products only, with no solve and no loop per step.  The step count
doubles until (A, B) at two levels agree within 63 times MAP_TOLERANCE,
a fixed 1e-12, and the map keeps S at every step node, so a sample inside
a window is one partial step from the node below it; (A, B) are read from
S only where they are used.  A window starting at t0 has
(A, B e^{2 i w0 t0}).  The counter rotating part of the
Coulomb coupling, which creates and destroys pairs, can optionally be kept
during windows.

Free segments evolve under the number conserving hopping Hamiltonian,
which is constant in the frame rotating at the secular frequency, so the
Fock layer works in sectors of fixed total phonon number N.  It holds a
state in sector order, the basis sorted by N, so each sector is one
contiguous slice; only ``run`` meets the Fock order of :class:`FockSpace`,
at its start and its end.  Every operator moves quanta one at a time, so
all are read from one table, the ladder: down[j, p] and up[j, p], the
positions of n - e_j and n + e_j for the state n at position p, -1 off
the cube.  A hop k -> j is up[j, down[k, p]], the pair tables are
up[i, up[j]] and down[i, down[j]], and the cutoff is where some up is -1.
Gamma(Y) below is raised through down, one level per sector, and the
levels are built on first use, up to the top sector that a window's
input holds.  Each sector evolves through the eigendecomposition of its
own block, computed the first time a state occupies it, and a sector
holding no amplitude stays exactly zero.  Ideal
pulses are instantaneous parity phases.  A window's U, and the U of every
sample recorded inside it, act on the Fock vector through the normal
ordered form

    U = c exp(a^dag X a^dag / 2) Gamma(Y) exp(a Z a / 2),
    Y = (A^dag)^{-1},  X = Y B^T,  Z = -B^dag Y,  |c| = |det A|^{-1/2},

with Gamma(Y) the number conserving map a_i^dag -> sum_j Y_ji a_j^dag.
The engine takes c = |det A|^{-1/2}: the phase of c is global to the
state, and every output is a population or an overlap magnitude.  The
lowering factor keeps the cutoff cube closed, raising never returns to
it, and Gamma is built column by column from raised columns of lower N, so
the engine applies the projection P U P onto the cube: the squeezing
transient inside a window is not truncated by the cutoff, and the
population U pushes past the cutoff is lost from the norm.  Term k of a
pair series reaches only the occupied sectors shifted by 2k, so only that
band is gathered.  The lowering runs until the band leaves the cube and is
exact.  The raising factor, applied last, stops after the first term k
with |c| |t_k| r / (1 - r) below eps |psi| (eps of float64, psi the input
of the window): with g = n_max sum_ij |sym X_ij| / 2, which bounds
|P a^dag X a^dag P| / 2, term k + i is at most |t_k| g^i k! / (k + i)!, so
for r = g / (k + 1) < 1 that bounds all the terms left out.  Only the last
factor may stop early, since an error in the lowering would pass through
Gamma(Y) and the raising, neither a contraction.  Each window end then
zeroes the top sectors of joint weight at most eps^2 |psi|^2, one slice of
the vector.  P U P is a contraction and the other steps are unitary, so K
window ends move the state by at most K eps through the stops and K eps
through the trims.  A window applies all its maps, the samples inside it
and its end, to the state entering it in one batch of rows: the lowering
and each Gamma(Y) level run once for all rows, every gather is cut into row
chunks of at most SLICE_BYTES, and in the raising each row leaves the
batch after its own stopping term, so each map takes the terms it would
take alone.  No row reads another, so on the same band of sectors a row
of a batch is bit for bit the apply of its map alone.
One loop runs the steps, sampling the populations on record_samples
evenly spaced points from the start of the schedule to its end, on the
number sectors the run can reach.  The rows carried up to a step's
start, the samples inside the step and the final rows are each kept as
one band: the recorded states in sector order, up to the highest sector
that holds amplitude on those rows, past which every state is zero.
"""

from __future__ import annotations

import cmath
import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import (DEFAULT_SECULAR_FREQUENCY, CouplingMatrix, FockSpace, PhononState,
                    check_count, is_integer)
from .pulses import ShapedPulse
from .sequences import PulseSchedule


WINDOW_COUPLINGS = ("rwa", "full")
# Magnus step counts of a window map: the first doubling level (0.28 rad
# of w0 t per step on an 8.8 T0 window) and the ceiling of the doubling
FIRST_STEPS = 200
MAX_STEPS = 12_800
# bound on the error estimate of a window map, its doubling difference
# over 63; the catalog maps meet it at 400-800 steps
MAP_TOLERANCE = 1e-12
# Gauss-Legendre nodes of a Magnus step, as fractions of its length
GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
# coefficients of the degree-12 Taylor polynomial of exp, and the 1-norm
# a stack is scaled to before it: the terms left out sum to about 2.4e-18
TAYLOR = [1.0 / math.factorial(k) for k in range(13)]
TAYLOR_NORM = 0.25
# bytes of one slice of step propagators, and of one row chunk of the
# gathers of a window apply: below glibc's 128 KiB mmap threshold, so their
# temporaries are reused heap blocks
SLICE_BYTES = 96 * 1024

EPS = np.finfo(float).eps  # sets the window-end trim and the raising stop

LOG = logging.getLogger(__name__)


class PropagationError(Exception):
    """Raised when a window cannot be integrated to its tolerance."""


@dataclass
class SimulationResult:
    """Timeline record of one schedule execution.

    ``times`` is the record grid, ``record_samples`` evenly spaced points
    from the start of the schedule to its end; record row k holds the
    float populations of the state at ``times[k]``, after every event at
    that time.  The last row holds the final state, at the time the steps
    end on, which can differ from the grid end in the last bit.  Record
    column i is the basis state ``columns[i]``: ``columns`` holds the
    states of every number sector the run can reach, in sector order (by
    total phonon number, Fock index ascending within a sector), and every
    other state has population exactly zero throughout.

    The record is stored as ``bands``, consecutive blocks of rows from the
    first row to the last.  A band holds only the first record columns:
    every column past its width is exactly zero on its rows, so a band
    stops at the highest sector its rows occupy.  ``column_maxima`` and
    ``row_chunks`` read the record band by band.

    ``norm_drift`` is the largest deviation of the state norm from one.
    On shaped runs it includes, exactly, the population each window has
    pushed past the cutoff, since windows apply the projection P U P; it
    and ``boundary_leakage``, the largest population seen on the cutoff,
    are read before the trim at each window end.
    """

    times: np.ndarray
    bands: list[np.ndarray]
    columns: np.ndarray
    space: FockSpace
    final_state: PhononState
    norm_drift: float
    boundary_leakage: float
    wall_time: float
    error_E: float | None = None
    error_EB: float | None = None

    def column_maxima(self) -> np.ndarray:
        """The largest population of each record column over all rows."""
        peaks = np.zeros(self.columns.size)
        for band in self.bands:
            if band.size:
                width = band.shape[1]
                np.maximum(peaks[:width], band.max(axis=0), out=peaks[:width])
        return peaks

    def row_chunks(self, states: np.ndarray):
        """The populations of the basis states ``states``, Fock indices,
        zero for a state off the record, in successive blocks of rows.

        A block holds as many rows as fit SLICE_BYTES at the width of the
        record or of ``states``, whichever is larger.  The bands are copied
        in row order, each once, into one buffer of the record columns,
        whose last column stays zero, and a block is gathered from it each
        time it fills.
        """
        count = self.columns.size
        where = np.full(self.space.dimension, count)  # the zero column
        where[self.columns] = np.arange(count)
        where = where[states]
        size = max(1, SLICE_BYTES // (8 * max(len(states), count + 1)))
        buffer = np.zeros((size, count + 1))
        filled = 0  # rows of the buffer holding the block so far
        for band in self.bands:
            width, lo = band.shape[1], 0
            while lo < len(band):
                rows = band[lo:lo + size - filled]
                buffer[filled:filled + len(rows), :width] = rows
                buffer[filled:filled + len(rows), width:] = 0.0
                filled, lo = filled + len(rows), lo + len(rows)
                if filled == size:
                    yield np.take(buffer, where, axis=1)
                    filled = 0
        if filled:
            yield np.take(buffer[:filled], where, axis=1)


@dataclass(frozen=True)
class WindowGenerator:
    """Generator of the real quadrature propagator S of a window map.

    With T = (1 - i sigma_x)/sqrt(2) (x) 1_M, S = T U T^dag of the lab frame
    propagator U of [A; conj B] is real: dS/dt = (L0 + f(t) L1) S, S(0) = 1,
    f = drive / (2 w0), L0 = [[K, W], [-W, -K]] with W = w0 + kappa/2 and
    K = kappa/2 with full coupling, else 0, and L1 = [[P, P], [-P, -P]], P
    the projector onto the pulsed modes, with w0 the model's
    ``DEFAULT_SECULAR_FREQUENCY``.  In this frame only f varies within a
    step.  ``basis`` holds L0, L1 and the eight commutators that a
    sixth-order Magnus step of L0 + f L1 is a fixed combination of: a2 and
    a3 are multiples of L1, [L1, L1] = 0, and L1^2 = 0 removes a ninth,
    [L1, [L1, [L0, L1]]].
    """

    pulse: ShapedPulse
    basis: np.ndarray

    @classmethod
    def build(cls, pulse: ShapedPulse, constant: np.ndarray,
              modulated: np.ndarray) -> WindowGenerator:
        """The generator of L0 = ``constant`` and L1 = ``modulated``."""
        k1 = _commutator(constant, modulated)
        k2, k3 = _commutator(constant, k1), _commutator(modulated, k1)
        return cls(pulse, np.array(
            [constant, modulated, k1, k2, k3, _commutator(k1, k2), _commutator(k1, k3),
             _commutator(constant, k2), _commutator(constant, k3),
             _commutator(modulated, k2)]))

    def omega(self, lengths: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Omega of one sixth-order Magnus step per length.

        Row k of ``f`` holds drive / (2 w0) at the three Gauss points of step k.

        Omega is the three-point Gauss-Legendre form of Blanes, Casas & Ros
        (Phys. Rep. 470, 151, 2009), a1 + a3/12 + [c1 - 20 a1 - a3, a2 + c2]/240
        with a1 = u L0 + v L1, a2 = p L1 and a3 = q L1, expanded on ``basis``:
        the whole stack is one (steps x 10) @ (10 x 4M^2) product.
        """
        u = lengths
        f0, f1, f2 = f.T
        v = u * f1
        p = (math.sqrt(15.0) / 3.0) * u * (f2 - f0)
        q = (10.0 / 3.0) * u * (f2 - 2.0 * f1 + f0)
        w = 20.0 * v + q
        nested = np.array([-20.0 * u * p, 2.0 * u * u * q / 3.0,
                           2.0 * u * q * w / 60.0 - u * p * p,
                           -u ** 3 * p * p / 60.0, -u * u * v * p * p / 60.0,
                           u ** 3 * p / 3.0, u * u * v * p / 3.0,
                           w * u * u * p / 60.0]) / 240.0
        coeffs = np.column_stack([u, v + q / 12.0, nested.T])
        n = self.basis.shape[-1]
        return (coeffs @ self.basis.reshape(len(self.basis), -1)).reshape(-1, n, n)

    def drive(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """drive / (2 w0) at the three Gauss points of each [start, start +
        length], one row per step, from one ``pulse.drive`` call."""
        points = starts[:, None] + lengths[:, None] * GAUSS_NODES
        return (self.pulse.drive(points.ravel()).reshape(-1, 3)
                / (2.0 * DEFAULT_SECULAR_FREQUENCY))

    def propagators(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """exp(Omega) of one Magnus step over each [start, start + length]."""
        return _expm(self.omega(lengths, self.drive(starts, lengths)))

    def nodes(self, steps: int) -> np.ndarray:
        """S at the nodes of ``steps`` equal Magnus steps.

        One drive call covers the level.  The step propagators are built and
        accumulated one slice of at most SLICE_BYTES at a time, each slice
        by :func:`_scan` from the last node of the slice before.
        """
        n = self.basis.shape[-1]
        h = self.pulse.duration / steps
        f = self.drive(h * np.arange(steps), np.full(steps, h))
        size = max(1, SLICE_BYTES // (8 * n * n))
        out = np.empty((steps + 1, n, n))
        out[0] = np.eye(n)
        for lo in range(0, steps, size):
            hi = min(lo + size, steps)
            props = _expm(self.omega(np.full(hi - lo, h), f[lo:hi]))
            out[lo + 1:hi + 1] = _scan(props, out[lo])
        return out


def _scan(props: np.ndarray, start: np.ndarray) -> np.ndarray:
    """props[k] @ ... @ props[0] @ start for every k, by batched products.

    The stack is cut into about sqrt(len) blocks of equal width, the last
    padded with identities.  The prefix products within every block are
    taken at once, one batched product per position; then each block is
    multiplied onto the last node of the block before, one batched product
    per block.  Both loops run about sqrt(len) times.
    """
    count, n = props.shape[:2]
    width = math.isqrt(count - 1) + 1
    blocks = -(-count // width)
    grid = np.empty((blocks, width, n, n))
    flat = grid.reshape(-1, n, n)
    flat[:count] = props
    flat[count:] = np.eye(n)
    for i in range(1, width):
        grid[:, i] = grid[:, i] @ grid[:, i - 1]
    for block in grid:
        block[:] = block @ start
        start = block[-1]
    return flat[:count]


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _columns(s: np.ndarray) -> np.ndarray:
    """[A; conj B] = T^dag S T[:, :M] of a quadrature propagator S, or of
    each of a stack."""
    m = s.shape[-1] // 2
    half = s[..., :m] - 1j * s[..., m:]
    top, bottom = half[..., :m, :], half[..., m:, :]
    return 0.5 * np.concatenate([top + 1j * bottom, 1j * top + bottom], axis=-2)


def _expm(x: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack, by matrix products alone.

    The stack is scaled by 2^-s to a 1-norm of at most TAYLOR_NORM, where
    the terms that the degree-12 Taylor polynomial leaves out sum to about
    0.25^13 / 13! = 2.4e-18, below eps / 2, and squared s times.  The
    polynomial is summed in powers of x^4 with cubic coefficients (Paterson
    & Stockmeyer, SIAM J. Comput. 2, 60, 1973): five products, no solve.
    """
    norm = float(np.abs(x).sum(axis=-2).max(initial=0.0))
    squarings = max(0, math.ceil(math.log2(norm / TAYLOR_NORM))) if norm else 0
    x = x / 2.0 ** squarings
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    eye = np.eye(x.shape[-1])
    out = TAYLOR[12] * x4
    for k in (8, 4, 0):
        out += TAYLOR[k] * eye
        for j, power in enumerate((x, x2, x3), start=k + 1):
            out += TAYLOR[j] * power
        if k:
            out = x4 @ out
    for _ in range(squarings):
        out = out @ out
    return out


@dataclass(frozen=True)
class HeisenbergMap:
    """Mode operator map a -> A a + B a^dag of a window that starts at time 0.

    ``nodes`` holds the quadrature propagator S at the ``steps`` + 1 nodes
    of the accepted Magnus level; (A, B) are read from it only where used.
    ``delta``, the largest change of an entry of (A, B) from the level with
    half as many steps, certifies the map: at sixth order it is about 63
    times the error of the map.
    """

    generator: WindowGenerator
    nodes: np.ndarray
    steps: int
    delta: float

    def at(self, taus: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, B, |det A|^{-1/2}) stacks in the interaction picture at each
        offset in ``taus``, then at the window end.

        Each offset is one partial Magnus step from the node below it; all
        share one drive call, and an empty ``taus`` makes none.  The end is
        the last node.
        """
        taus = np.asarray(taus, dtype=float)
        quads = self.nodes[-1:]
        if taus.size:
            step = self.generator.pulse.duration / self.steps
            below = np.clip(np.floor(taus / step).astype(int), 0, self.steps)
            partial = self.generator.propagators(below * step, taus - below * step)
            quads = np.concatenate([partial @ self.nodes[below], quads])
        cols = _columns(quads)
        m = cols.shape[-1]
        phase = np.exp(1j * DEFAULT_SECULAR_FREQUENCY
                       * np.append(taus, self.generator.pulse.duration))[:, None, None]
        a, b = phase * cols[:, :m], phase * cols[:, m:].conj()
        return a, b, 1.0 / np.sqrt(np.abs(np.linalg.det(a)))


@dataclass(frozen=True, eq=False)
class ModeMaps:
    """Window maps of one chain, with no Fock space.

    Caches the Heisenberg map of each (pulsed-mode set, pulse) window.  The
    chain and its frame are at the model's ``DEFAULT_SECULAR_FREQUENCY``;
    a pulse designed at another w0 adds its drive there, as the designed
    waveform would in a trap it was not designed for.
    """

    couplings: CouplingMatrix
    window_coupling: str = "rwa"
    _cache: dict[tuple[frozenset[int], ShapedPulse], HeisenbergMap] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.window_coupling not in WINDOW_COUPLINGS:
            raise ValueError("window_coupling must be one of"
                             f" {', '.join(WINDOW_COUPLINGS)},"
                             f" not {self.window_coupling!r}")

    def window_map(self, modes: frozenset[int], pulse: ShapedPulse) -> HeisenbergMap:
        """The window map, by Magnus steps doubled from FIRST_STEPS.

        A level is accepted once its change from the level below, delta,
        is at most 63 times MAP_TOLERANCE; past MAX_STEPS it
        raises :class:`PropagationError`.
        """
        key = (modes, pulse)
        if key in self._cache:
            return self._cache[key]
        started = time.perf_counter()
        m = self.couplings.mode_count
        w0 = DEFAULT_SECULAR_FREQUENCY
        hop = self.couplings.kappa / 2.0
        pulsed = np.diag([float(q in modes) for q in range(m)])
        cross = hop if self.window_coupling == "full" else np.zeros((m, m))
        diagonal = w0 * np.eye(m) + hop
        generator = WindowGenerator.build(
            pulse, np.block([[cross, diagonal], [-diagonal, -cross]]),
            np.block([[pulsed, pulsed], [-pulsed, -pulsed]]))
        steps, nodes = FIRST_STEPS, generator.nodes(FIRST_STEPS)
        while True:
            # a level is compared by its last node alone, so the coarse
            # stack is dropped before the finer one is built
            coarse = _columns(nodes[-1])
            del nodes
            steps *= 2
            nodes = generator.nodes(steps)
            delta = float(np.abs(_columns(nodes[-1]) - coarse).max())
            if delta / 63.0 <= MAP_TOLERANCE:
                break
            if steps >= MAX_STEPS:
                raise PropagationError(
                    f"window map of modes {sorted(modes)} missed"
                    f" the map tolerance {MAP_TOLERANCE:.1e}: doubling"
                    f" difference {delta:.2e} at {steps} steps")
        self._cache[key] = HeisenbergMap(generator, nodes, steps, delta)
        LOG.debug("window map modes=%s steps=%d delta=%.2e time=%.3fs",
                  sorted(modes), steps, delta, time.perf_counter() - started)
        return self._cache[key]

    def window(self, start: float, modes: frozenset[int], pulse: ShapedPulse,
               t_eval: Sequence[float] = ()
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, B e^{2 i w0 start}, |det A|^{-1/2}) stacks of a window from
        ``start``.

        The maps at ``t_eval``, which must lie strictly inside the window,
        come first and the map at the window end last.
        """
        heis = self.window_map(modes, pulse)
        a, b, norms = heis.at(np.asarray(t_eval, dtype=float) - start)
        return a, b * cmath.exp(2j * DEFAULT_SECULAR_FREQUENCY * start), norms


class SchedulePropagator:
    """Engine bound to one Fock space and the mode maps of one chain.

    Holds a state in sector order: the basis sorted by total phonon number
    N, Fock index ascending within a sector, so sector N is the slice
    offsets[N]:offsets[N + 1].  ``run`` converts from and to the Fock order
    of :class:`FockSpace` at its two ends.  Caches, for each sector a state
    reaches, the eigensystem of its hopping block; then replays any
    schedule on that chain, with the window maps of ``maps``.
    The ladder ``_down``/``_up`` (M x dimension), built once from the
    base-(n_max + 1) digits of the Fock index, holds the positions of
    n - e_j and n + e_j, -1 off the cube; the sector hopping blocks, the
    pair tables and the cutoff mask are read from it.  The levels of
    Gamma(Y) are built from it on first use, up to the top sector that a
    window's input holds, and only extended after.  No call writes to a
    stored table.  Eigensystems come from ``numpy.linalg.eigh``, so every
    dense call runs on numpy's OpenBLAS and LAPACK: SciPy's second OpenBLAS
    pool slowed the numpy calls after it.
    """

    def __init__(self, space: FockSpace, maps: ModeMaps):
        if maps.couplings.mode_count != space.mode_count:
            raise ValueError("coupling matrix does not match the Fock space")
        self.space = space
        self.maps = maps
        m, cutoff = space.mode_count, space.per_mode_cutoff
        digits = np.array([space.mode_occupations(q) for q in range(m)])
        total = digits.sum(axis=0)
        sectors = [np.flatnonzero(total == n) for n in range(m * cutoff + 1)]
        # the Fock index at each sector-order position, and its inverse
        self._fock = np.concatenate(sectors)
        self._position = np.empty_like(self._fock)
        self._position[self._fock] = np.arange(space.dimension)
        self._offsets = np.cumsum([0] + [idx.size for idx in sectors])
        self._numbers = digits[:, self._fock].astype(float)
        self._total = total[self._fock]
        # the ladder: positions of n - e_j and of n + e_j, -1 off the cube
        occupied = self._numbers > 0
        steps = (cutoff + 1) ** np.arange(m)[:, None]
        lowered = np.where(occupied, self._fock - steps, 0)
        self._down = np.where(occupied, self._position[lowered], -1)
        self._up = np.full_like(self._down, -1)
        modes, positions = np.nonzero(occupied)
        self._up[modes, self._down[modes, positions]] = positions
        self._boundary = (self._up < 0).any(axis=0)
        self._parities: dict[frozenset[int], np.ndarray] = {}
        self._eigensystems: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._pair_tables: tuple | None = None
        self._raise_levels: list[tuple[np.ndarray, ...]] = []

    def _rows(self, n: int) -> slice:
        """Sector n of a sector-ordered vector."""
        return slice(self._offsets[n], self._offsets[n + 1])

    def _band(self, amps: np.ndarray) -> tuple[int, int]:
        """The lowest and highest sector holding amplitude in any row of a
        stack; (0, -1) if none."""
        nonzero = np.flatnonzero(amps.any(axis=0))
        if not nonzero.size:
            return 0, -1
        return int(self._total[nonzero[0]]), int(self._total[nonzero[-1]])

    def _hopping_block(self, n: int) -> np.ndarray:
        """sum_jk (kappa_jk / 2) a_j^dag a_k on number sector n.

        The hop k -> j takes position p to up[j, down[k, p]] with weight
        sqrt((n_j + 1) n_k); a down of -1 picks the last position, the
        corner of the cube, whose every up is -1.
        """
        rows = self._rows(n)
        occ = self._numbers[:, rows]
        kappa = self.maps.couplings.kappa
        block = np.zeros((occ.shape[1], occ.shape[1]))
        for j, k in zip(*np.nonzero(kappa)):
            dst = self._up[j][self._down[k, rows]]
            src = np.flatnonzero(dst >= 0)
            block[dst[src] - rows.start, src] = \
                0.5 * kappa[j, k] * np.sqrt((occ[j, src] + 1) * occ[k, src])
        return block

    def _free_states(self, amps: np.ndarray, dts: np.ndarray):
        """Free evolution through the sector eigensystems, sampled at offsets dts.

        Yields (n, rows, states), one state column per offset, for each sector
        n found in one pass over the nonzero amplitudes; the rest stay zero.
        A hopping block is real symmetric, so its cached eigenvectors are real.
        """
        for n in sorted(set(self._total[np.flatnonzero(amps)].tolist())):
            rows = self._rows(n)
            if n not in self._eigensystems:
                self._eigensystems[n] = np.linalg.eigh(self._hopping_block(n))
            vals, vecs = self._eigensystems[n]
            coeff = vecs.T @ amps[rows]
            yield n, rows, vecs @ (np.exp(-1j * np.outer(vals, dts)) * coeff[:, None])

    def _parity(self, modes: frozenset[int]) -> np.ndarray:
        """The ideal pulse on ``modes``: the exact real sign (-1)^(sum of their n)."""
        if modes not in self._parities:
            self._parities[modes] = (-1.0) ** sum(self._numbers[q] for q in modes)
        return self._parities[modes]

    def _pairs(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Gather tables of the pair lowerings a_i a_j and raisings (i <= j).

        Entry 0 is lowering and entry 1 raising, each (flat index of (i, j)
        in an M x M matrix per pair, source position and weight per pair
        and position n).  Lowering feeds n from n + e_i + e_j with weight
        sqrt((n_i + 1)(n_j + 1 + d_ij)), raising from n - e_i - e_j with
        weight sqrt(n_i (n_j - d_ij)); the weights carry the 1/2 of i = j,
        and where the source leaves the cube the position is 0 and the
        weight 0 removes the term.
        """
        if self._pair_tables is None:
            m = self.space.mode_count
            occ, up, down = self._numbers, self._up, self._down
            pairs = list(itertools.combinations_with_replacement(range(m), 2))
            flat = np.array([i * m + j for i, j in pairs])
            tables = []
            for raising in (False, True):
                sources, weights = [], []
                for i, j in pairs:
                    same = float(i == j)
                    if raising:
                        weight = occ[i] * (occ[j] - same)
                        source = np.where(down[j] >= 0, down[i][down[j]], -1)
                    else:
                        weight = (occ[i] + 1) * (occ[j] + 1 + same)
                        source = up[i][up[j]]
                    inside = source >= 0
                    # position 0, the vacuum, stands in off the cube
                    sources.append(np.where(inside, source, 0))
                    weights.append(np.where(inside, (1.0 - 0.5 * same)
                                            * np.sqrt(weight), 0.0))
                tables.append((flat, np.array(sources), np.array(weights)))
            self._pair_tables = tuple(tables)
        return self._pair_tables

    def _pair_series(self, amps: np.ndarray, coeffs: np.ndarray, raising: bool,
                     floors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exp(1/2 a^dag C a^dag) or exp(1/2 a C a) on each row, terms taken
        per row, tail bound per row).

        Row r of the stack ``amps`` takes C = ``coeffs[r]``, and all rows
        share one band of sectors.  Term k is one gather of term k - 1
        through the pair tables, scaled by sym(C)[i, j] per pair and summed
        over the pairs, on the band of sectors it can reach: those of
        ``amps`` shifted by 2k, up for raising and down for lowering.  The
        series is exact once the band leaves the cube.  A row stops after
        term k instead, and leaves the batch, once the bound |t_k| r / (1 - r)
        on all its later terms falls below its entry of ``floors``, with
        r = g / (k + 1) < 1 and g = n_max sum_ij |sym(C)_ij| / 2 >= the norm
        of its pair operator on the cube (see the module docstring).  A
        floor of 0 never stops a row early.  Each gather runs in row chunks
        of at most SLICE_BYTES.
        """
        flat, sources, weights = self._pairs()[int(raising)]
        sym = 0.5 * (coeffs + coeffs.swapaxes(1, 2))
        pair_coeffs = sym.reshape(len(sym), -1)[:, None, flat]
        gains = 0.5 * self.space.per_mode_cutoff * np.abs(sym).sum(axis=(1, 2))
        off = self._offsets
        shift, top = (2 if raising else -2), off.size - 2
        lo, hi = self._band(amps)
        out = amps.copy()
        terms, tails = np.zeros(len(out), dtype=int), np.zeros(len(out))
        live = np.arange(len(out))  # the rows still summing
        # term k - 1 on its band, which starts at position ``start``
        term, start = amps[:, off[lo]:off[hi + 1]], off[lo]
        for k in itertools.count(1):
            lo, hi = max(lo + shift, 0), min(hi + shift, top)
            if lo > hi:
                terms[live] = k - 1
                return out, terms, tails
            rows = slice(off[lo], off[hi + 1])
            # every source lies in the band of term k - 1, or off the cube
            # with weight 0, where the clip reads any entry
            src, scale = sources[:, rows] - start, weights[:, rows]
            band = np.empty((live.size, src.shape[1]), dtype=complex)
            size = max(1, SLICE_BYTES // (16 * src.size))
            for c in range(0, live.size, size):
                gathered = np.take(term[c:c + size], src, axis=1, mode="clip")
                gathered *= scale
                np.matmul(pair_coeffs[live[c:c + size]], gathered,
                          out=band[c:c + size, None])
            band /= k
            out[live, rows] += band
            term, start = band, rows.start
            if not floors.any():
                continue
            ratio = gains[live] / (k + 1)
            tail = np.divide(np.linalg.norm(band, axis=1) * ratio, 1.0 - ratio,
                             out=np.full(live.size, np.inf), where=ratio < 1.0)
            stop = tail < floors[live]
            if stop.any():
                terms[live[stop]], tails[live[stop]] = k, tail[stop]
                live, term = live[~stop], term[~stop]
                if not live.size:
                    return out, terms, tails

    def _levels(self, top: int) -> list[tuple[np.ndarray, ...]]:
        """Per sector N = 1 .. ``top``: how each of its states is raised from
        sector N-1.

        Entry N-1 holds, for each state n of sector N, the lowest occupied
        mode i and 1/sqrt(n_i); for each mode j, sqrt(n_j); and the flat
        index into the sector N-1 matrix of the element (n - e_j, m - e_i)
        that feeds element (n, m) through a_j^dag.  Where n_j = 0 the index
        is 0 and the weight sqrt(n_j) removes the term.  The list is kept
        and only extended, up to the highest ``top`` asked for, so it may
        hold more entries than ``top``.
        """
        off = self._offsets
        for n in range(len(self._raise_levels) + 1, top + 1):
            occ = self._numbers[:, self._rows(n)]
            below = self._down[:, self._rows(n)]
            cols = np.arange(occ.shape[1])
            first = np.argmax(occ > 0, axis=0)
            # the position of n - e_j within sector N-1
            rows = np.where(below >= 0, below - off[n - 1], 0)
            parent = rows[first, cols]
            flat = rows[:, :, None] * (off[n] - off[n - 1]) + parent[None, None, :]
            self._raise_levels.append(
                (first, 1.0 / np.sqrt(occ[first, cols]), np.sqrt(occ), flat))
        return self._raise_levels

    def _passive(self, amps: np.ndarray, y: np.ndarray) -> np.ndarray:
        """P Gamma(Y_r) P applied to each row r of ``amps``, Y_r = ``y[r]``,
        one number sector at a time.

        Column n of sector N is Gamma|n> = r_i Gamma|n - e_i> / sqrt(n_i)
        with r_i = sum_j Y_ji a_j^dag; raising never leaves the cube and
        comes back, so the cube columns need only cube rows.  The blocks of
        each sector up to the highest occupied one are one gather over all
        modes from the blocks below them, in row chunks of at most
        SLICE_BYTES, through the levels up to that sector.
        """
        lo, hi = self._band(amps)
        levels = self._levels(hi)
        count = len(amps)
        out = np.zeros_like(amps)
        gamma = np.ones((count, 1, 1), dtype=complex)
        for n in range(hi + 1):
            if n:
                first, scale, weight, flat = levels[n - 1]
                below = gamma.reshape(count, -1)
                gamma = np.empty((count,) + flat.shape[1:], dtype=complex)
                size = max(1, SLICE_BYTES // (16 * flat.size))
                for c in range(0, count, size):
                    terms = np.take(below[c:c + size], flat, axis=1)
                    terms *= weight[:, :, None]
                    terms *= (y[c:c + size, :, first] * scale)[:, :, None, :]
                    terms.sum(axis=1, out=gamma[c:c + size])
            if n >= lo:
                rows = self._rows(n)
                out[:, rows] = (gamma @ amps[:, rows, None])[..., 0]
        return out

    def _apply(self, amps: np.ndarray, maps: tuple[np.ndarray, np.ndarray, np.ndarray]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P U P amps, raising terms taken, bound on the raising terms left
        out, at most eps |amps|), one row each, for the stacks of maps
        (A, B, |det A|^{-1/2}), normal ordered; only the raising, applied
        last, stops early, each row after its own term."""
        a, b, norms = maps
        y = np.linalg.inv(a.conj().swapaxes(1, 2))
        rows = np.broadcast_to(amps, (norms.size, amps.size))
        lowered, _, _ = self._pair_series(rows, -b.conj().swapaxes(1, 2) @ y, False,
                                          np.zeros(norms.size))
        passive = self._passive(lowered, y)
        floors = EPS * float(np.linalg.norm(amps)) / norms
        raised, terms, tails = self._pair_series(passive, y @ b.swapaxes(1, 2), True,
                                                 floors)
        raised *= norms[:, None]
        return raised, terms, norms * tails

    def _trim(self, amps: np.ndarray) -> tuple[np.ndarray, int, float]:
        """(amps, top sector kept, weight dropped) after zeroing the highest
        sectors of joint weight at most eps^2 |amps|^2, eps of float64.
        The top sector kept is the highest holding amplitude, -1 if none:
        the weight from it up exceeds the weight from the sector above."""
        weights = np.bincount(self._total, weights=np.abs(amps) ** 2)
        tail = np.append(np.cumsum(weights[::-1])[::-1], 0.0)  # weight from N up
        floor = EPS ** 2 * tail[0]
        top = int(np.flatnonzero(tail > floor).max(initial=-1))
        trimmed = amps.copy()
        trimmed[self._offsets[top + 1]:] = 0.0
        return trimmed, top, float(tail[top + 1])

    def run(self, schedule: PulseSchedule, initial: PhononState,
            reference: PhononState | None = None,
            record_samples: int = 2) -> SimulationResult:
        """Execute the schedule and collect the error metrics.

        ``error_E`` is one minus the overlap magnitude with the initial
        state; ``error_EB`` the same against ``reference`` when given.
        The default ``record_samples`` of 2 records the endpoints only.
        Norm drift and cutoff leakage are checked at the end of every
        segment and window and at every sample recorded inside a window.

        Free steps and parity pulses keep the total phonon number N and a
        window moves it in steps of 2, so the run reaches only the sectors
        of the initial state and, if the schedule has windows, every
        sector of the same parity; populations are recorded on those
        sectors alone, in ``SimulationResult.columns``.
        """
        check_record_samples(record_samples)
        if initial.space != self.space:
            raise ValueError("initial state lives in a different Fock space")
        started = time.perf_counter()
        # distinct: a schedule that takes no time has one grid point
        times = np.array(sorted(set(np.linspace(0.0, schedule.total_evolve_time,
                                                record_samples).tolist())))
        inside = times[:-1]  # the last row holds the final state
        amps = initial.amplitudes[self._fock]
        # the sectors the run can reach, see above
        reach = np.zeros(self._offsets.size - 1, dtype=bool)
        start_sectors = self._total[np.flatnonzero(amps)]
        reach[start_sectors] = True
        if schedule.pulse_model == "shaped":
            reach[np.isin(np.arange(reach.size) % 2, start_sectors % 2)] = True
        # the recorded positions, in sector order, are the record columns;
        # the record width up to each sector is entry N + 1 for sector N,
        # so sector N fills record columns widths[N]:widths[N + 1]
        recorded = np.flatnonzero(reach[self._total])
        widths = np.cumsum(np.append(0, reach * np.diff(self._offsets)))
        # bands of amplitude magnitudes, squared in place once at the end,
        # and the highest sector the state holds: only a window moves it,
        # and the trim at the window end returns it
        bands: list[np.ndarray] = []
        state_top = int(start_sectors.max(initial=-1))

        def keep(rows: np.ndarray, top: int) -> None:
            """Record a stack of states up to sector ``top``."""
            bands.append(np.abs(np.take(rows, recorded[:widths[top + 1]], axis=1)))

        norm_drift = abs(np.linalg.norm(amps) - 1.0)
        boundary = np.flatnonzero(self._boundary)
        leakage = float(np.sum(np.abs(amps[boundary]) ** 2))
        k, t = 0, 0.0  # first grid point not yet recorded, and the clock
        applies, top, trimmed = 0, -1, 0.0  # window applies, and trims at their ends
        raised, bound = 0, 0.0  # raising terms taken, and their tail bounds

        for kind, duration, shift in schedule.steps():
            if kind == "parity":
                amps = amps * self._parity(shift.modes)
                continue
            # grid points up to t hold the state after every event at t
            start = np.searchsorted(inside, t, side="right")
            if start > k:
                keep(np.broadcast_to(amps, (start - k, amps.size)), state_top)
            k = np.searchsorted(inside, t + duration)
            inner = inside[start:k]
            if kind == "free":
                # a free step writes only its occupied sectors
                after = np.zeros_like(amps)
                band = np.zeros((k - start, widths[state_top + 1]))
                dts = np.append(inner - t, duration)  # samples, then the end
                for n, rows, states in self._free_states(amps, dts):
                    band[:, widths[n]:widths[n + 1]] = np.abs(states[:, :-1].T)
                    after[rows] = states[:, -1]
                if len(band):
                    bands.append(band)
                amps = after
                checked = amps[None]
            else:
                maps = self.maps.window(t, shift.modes, shift.pulse, inner)
                checked, terms, tails = self._apply(amps, maps)
                if len(inner):
                    keep(checked[:-1], self._band(checked[:-1])[1])
                amps, state_top, dropped = self._trim(checked[-1])
                applies += len(checked)
                raised, bound = raised + int(terms.sum()), bound + float(tails.sum())
                top, trimmed = max(top, state_top), trimmed + dropped
            norm_drift = max(norm_drift, float(np.abs(_norms(checked) - 1.0).max()))
            edge = np.abs(np.take(checked, boundary, axis=1)) ** 2
            leakage = max(leakage, float(edge.sum(axis=1).max()))
            t += duration

        keep(np.broadcast_to(amps, (times.size - k, amps.size)), state_top)
        for band in bands:
            band **= 2
        LOG.debug("run window_applies=%d top_kept_sector=%d trimmed_weight=%.2e"
                  " raise_terms=%d raise_bound=%.2e record_values=%d/%d",
                  applies, top, trimmed, raised, bound,
                  sum(band.size for band in bands), times.size * recorded.size)
        times[-1] = t
        final = PhononState(self.space, amps[self._position])
        err = error_overlap(initial, final)
        err_b = error_overlap(reference, final) if reference is not None else None
        return SimulationResult(times=times, bands=bands, columns=self._fock[recorded],
                                space=self.space, final_state=final,
                                norm_drift=norm_drift,
                                boundary_leakage=leakage,
                                wall_time=time.perf_counter() - started,
                                error_E=err, error_EB=err_b)


def _norms(rows: np.ndarray) -> np.ndarray:
    """|row| of each row of a stack, summed as ``numpy.linalg.norm`` sums
    one vector: a BLAS dot of the real parts plus one of the imaginary."""
    re, im = rows.real[:, None], rows.imag[:, None]
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


def error_overlap(initial: PhononState, final: PhononState) -> float:
    """1 - |<initial|final>|, insensitive to global phase."""
    if initial.space != final.space:
        raise ValueError("states live in different spaces")
    return 1.0 - abs(np.vdot(initial.amplitudes, final.amplitudes))


def check_record_samples(record_samples: int) -> None:
    """Raise ValueError unless ``record_samples`` is an integer of at least 2."""
    if is_integer(record_samples) and record_samples < 2:
        raise ValueError("record_samples must be at least 2")
    check_count(record_samples=record_samples)


def check_beam_splitter_pair(pair: tuple[int, int], mode_count: int) -> None:
    """Raise ValueError unless ``pair`` names two distinct modes of the chain."""
    if len(pair) != 2 or pair[0] == pair[1] or not all(
            is_integer(q) and 0 <= q < mode_count for q in pair):
        raise ValueError("beam_splitter_pair must name two distinct modes in"
                         f" 0..{mode_count - 1}, not {pair}")


def beam_splitter_reference(state: PhononState, pair: tuple[int, int],
                            angle: float = math.pi / 4.0) -> PhononState:
    """Exact 50:50 target: exp(-i angle (a_j^dag a_k + a_k^dag a_j)) |state>.

    The mixer is the hopping operator with kappa = 2 on the pair alone, so
    the target is free evolution for a time ``angle`` on an engine with that
    coupling: its sector blocks hop quanta along the engine's ladder and
    its one free kernel evolves the sectors the state occupies.
    """
    m = state.space.mode_count
    check_beam_splitter_pair(pair, m)
    j, k = pair
    mixer = np.zeros((m, m))
    mixer[j, k] = mixer[k, j] = 2.0
    engine = SchedulePropagator(state.space, ModeMaps(CouplingMatrix(mixer)))
    amps = np.zeros_like(state.amplitudes)
    for _, rows, states in engine._free_states(state.amplitudes[engine._fock],
                                               np.array([angle])):
        amps[rows] = states[:, 0]
    return PhononState(state.space, amps[engine._position])
