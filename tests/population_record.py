"""The population record of a run scattered into the whole Fock cube."""

import numpy as np


def dense_populations(result):
    """(times x dimension) populations: the record on ``result.columns``,
    zero on every other basis state."""
    dense = np.zeros((len(result.times), result.space.dimension))
    dense[:, result.columns] = result.populations
    return dense
