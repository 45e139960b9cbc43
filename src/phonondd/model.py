"""Physical model of coupled local phonon modes in a linear ion chain.

Each ion contributes one radial local mode, a harmonic oscillator at the
secular frequency.  The Coulomb interaction between ions at distance d
exchanges vibrational quanta between modes at the hopping rate

    kappa = e^2 / (4 pi eps0 d^3 m omega0)

which falls off with the cube of the distance.  This module builds those
rates, the truncated multimode Fock space with its base-(n_max + 1)
occupation-digit index, and Fock states on it.  The propagator reads
those digits once, into a table of the states one quantum up and down.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# CODATA 2018
ELEMENTARY_CHARGE = 1.602176634e-19     # C
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
ATOMIC_MASS_UNIT = 1.66053906660e-27    # kg
HBAR = 1.054571817e-34                  # J s

DEFAULT_ION_MASS = 40.0 * ATOMIC_MASS_UNIT          # 40Ca+
DEFAULT_SECULAR_FREQUENCY = 2.0 * math.pi * 2.2e6   # rad/s


def check_positive(**values: float) -> None:
    """Raise ValueError naming the first argument not in (0, inf)."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, not {value!r}")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(**values: int) -> None:
    """Raise ValueError naming the first argument not an integer of at least 1."""
    for name, value in values.items():
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be at least 1, not {value!r}")


@dataclass(frozen=True)
class IonChainConfig:
    """Geometry and single-ion parameters of the chain.

    ``positions`` are equilibrium coordinates along the trap axis in meters,
    strictly increasing.  ``truncation_distance`` limits which mode pairs
    are considered coupled: pairs with index distance ``|j - k|`` above it
    get a zero hopping rate (``None`` keeps every pair).
    """

    mode_count: int
    positions: tuple[float, ...]
    ion_mass: float = DEFAULT_ION_MASS
    secular_frequency: float = DEFAULT_SECULAR_FREQUENCY
    truncation_distance: int | None = None

    def __post_init__(self) -> None:
        eta = self.truncation_distance
        check_count(mode_count=self.mode_count, truncation_distance=1 if eta is None else eta)
        if len(self.positions) != self.mode_count:
            raise ValueError("positions length must equal mode_count")
        if not all(map(math.isfinite, self.positions)):
            raise ValueError("positions must be finite")
        if any(b - a <= 0 for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly increasing")
        check_positive(ion_mass=self.ion_mass,
                        secular_frequency=self.secular_frequency)

    @classmethod
    def equidistant(cls, mode_count: int, spacing: float,
                    ion_mass: float = DEFAULT_ION_MASS,
                    secular_frequency: float = DEFAULT_SECULAR_FREQUENCY,
                    truncation_distance: int | None = None) -> "IonChainConfig":
        """Chain with uniform spacing, the layout used by every built-in scenario."""
        check_positive(spacing=spacing)
        return cls(mode_count=mode_count,
                   positions=tuple(j * spacing for j in range(mode_count)),
                   ion_mass=ion_mass,
                   secular_frequency=secular_frequency,
                   truncation_distance=truncation_distance)

    def distance(self, j: int, k: int) -> float:
        return abs(self.positions[j] - self.positions[k])


def coupling_rate(spacing: float, ion_mass: float, secular_frequency: float) -> float:
    """Phonon hopping rate (rad/s) between two modes a distance ``spacing`` apart.

    Raises ValueError unless the rate is a finite positive float: a spacing
    whose cube overflows or underflows has none.
    """
    check_positive(spacing=spacing, ion_mass=ion_mass,
                    secular_frequency=secular_frequency)
    e = ELEMENTARY_CHARGE
    try:
        rate = e * e / (4.0 * math.pi * VACUUM_PERMITTIVITY
                        * spacing ** 3 * ion_mass * secular_frequency)
    except ArithmeticError:  # spacing ** 3 overflows, or the product is 0
        rate = math.nan
    if not 0 < rate < math.inf:
        raise ValueError(f"spacing {spacing!r} m gives no finite positive"
                         " hopping rate")
    return rate


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric matrix of pairwise hopping rates (rad/s), zero diagonal."""

    kappa: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.kappa, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("kappa must be square")
        if not np.array_equal(k, k.T) or np.any(np.diag(k) != 0.0):
            raise ValueError("kappa must be symmetric with zero diagonal")
        object.__setattr__(self, "kappa", k)

    @property
    def mode_count(self) -> int:
        return self.kappa.shape[0]


def build_coupling_matrix(config: IonChainConfig) -> CouplingMatrix:
    """Hopping rates for every mode pair, honoring the truncation distance."""
    m = config.mode_count
    kappa = np.zeros((m, m))
    eta = config.truncation_distance
    for j in range(m):
        for k in range(j):
            if eta is not None and j - k > eta:
                continue
            rate = coupling_rate(config.distance(j, k), config.ion_mass,
                                 config.secular_frequency)
            kappa[j, k] = kappa[k, j] = rate
    return CouplingMatrix(kappa)


@dataclass(frozen=True)
class FockSpace:
    """Truncated occupation-number basis for ``mode_count`` modes.

    Basis states are labeled by occupation tuples written high mode first,
    (n_{M-1}, ..., n_1, n_0), matching the ket notation used in outputs.
    The dense index is sum_j n_j (n_max + 1)^j, i.e. mode 0 is the least
    significant digit; ``mode_occupations`` reads the digits back.
    """

    mode_count: int
    per_mode_cutoff: int

    def __post_init__(self) -> None:
        check_count(mode_count=self.mode_count, per_mode_cutoff=self.per_mode_cutoff)

    @property
    def dimension(self) -> int:
        return (self.per_mode_cutoff + 1) ** self.mode_count

    def index(self, occupations: Sequence[int]) -> int:
        """Dense index of the basis state with the given (n_{M-1},...,n_0)."""
        if len(occupations) != self.mode_count:
            raise ValueError("occupation tuple has wrong length")
        base = self.per_mode_cutoff + 1
        idx = 0
        for j, n in enumerate(reversed(occupations)):
            if not (is_integer(n) and 0 <= n <= self.per_mode_cutoff):
                raise ValueError(f"occupation {n} is not an integer"
                                 f" in [0, {self.per_mode_cutoff}]")
            idx += n * base ** j
        return idx

    def labels(self) -> list[str]:
        """Compact text label of every basis index, digits high mode first.

        '210' is n2=2, n1=1, n0=0; past n_max = 9 the digits are joined by
        '-'.  Built from the occupation digits of the whole basis at once.
        """
        digits = [str(n) for n in range(self.per_mode_cutoff + 1)]
        columns = [[digits[n] for n in self.mode_occupations(q).tolist()]
                   for q in reversed(range(self.mode_count))]
        sep = "" if self.per_mode_cutoff <= 9 else "-"
        return [sep.join(occ) for occ in zip(*columns)]

    def mode_occupations(self, mode: int) -> np.ndarray:
        """Occupation of one mode for every basis index, as an int array."""
        if not 0 <= mode < self.mode_count:
            raise ValueError("mode out of range")
        base = self.per_mode_cutoff + 1
        idx = np.arange(self.dimension)
        return (idx // base ** mode) % base


@dataclass
class PhononState:
    """Complex amplitude vector over a :class:`FockSpace` basis."""

    space: FockSpace
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.space.dimension,):
            raise ValueError("amplitude vector has wrong length")
        self.amplitudes = amp


def basis_state(space: FockSpace, occupations: Sequence[int]) -> PhononState:
    """Unit-amplitude Fock state |n_{M-1},...,n_0>."""
    amp = np.zeros(space.dimension, dtype=complex)
    amp[space.index(occupations)] = 1.0
    return PhononState(space, amp)

