"""The population record of a run: built dense from its bands, scattered
into the whole Fock cube, or built as a banded result from a dense record."""

import numpy as np

from phonondd.model import basis_state
from phonondd.propagation import SimulationResult


def record(result):
    """The dense record, (times x columns): column i is the basis state
    ``result.columns[i]``, zero past each band's width."""
    dense = np.zeros((result.times.size, result.columns.size))
    start = 0
    for band in result.bands:
        dense[start:start + len(band), :band.shape[1]] = band
        start += len(band)
    return dense


def dense_populations(result):
    """(times x dimension) populations: the record on ``result.columns``,
    zero on every other basis state."""
    dense = np.zeros((len(result.times), result.space.dimension))
    dense[:, result.columns] = record(result)
    return dense


def banded_result(space, times, populations, columns, occupations, splits=()):
    """A result whose dense record is ``populations`` on the basis states
    ``columns``, held as bands cut before the rows ``splits``.

    Each band is as wide as its rows need: it ends at the last column that
    is nonzero on one of them.
    """
    populations = np.asarray(populations, dtype=float)
    bands = []
    for rows in np.split(populations, sorted(splits)):
        used = np.flatnonzero(rows.any(axis=0))
        bands.append(rows[:, :used[-1] + 1 if used.size else 0].copy())
    return SimulationResult(
        times=np.asarray(times, dtype=float), bands=bands,
        columns=np.asarray(columns, dtype=int), space=space,
        final_state=basis_state(space, occupations),
        norm_drift=0.0, boundary_leakage=0.0, wall_time=0.0)
