"""The label of one basis state, built from its occupation tuple: the
reference that the digit-built ``FockSpace.labels`` is checked against."""

from phonondd.model import FockSpace


def label(space: FockSpace, index: int) -> str:
    """Compact text label, digits high mode first ('210' for n2=2,n1=1,n0=0)."""
    occ = space.occupations(index)
    if space.per_mode_cutoff <= 9:
        return "".join(str(n) for n in occ)
    return "-".join(str(n) for n in occ)
