"""The occupation tuple and label of one basis state: the references that
``FockSpace.index`` and the digit-built ``FockSpace.labels`` are checked
against."""

from phonondd.model import FockSpace


def occupations(space: FockSpace, index: int) -> tuple[int, ...]:
    """Occupation tuple (n_{M-1},...,n_0) of a dense index."""
    if not 0 <= index < space.dimension:
        raise IndexError("basis index out of range")
    base = space.per_mode_cutoff + 1
    out = []
    for _ in range(space.mode_count):
        out.append(index % base)
        index //= base
    return tuple(reversed(out))


def label(space: FockSpace, index: int) -> str:
    """Compact text label, digits high mode first ('210' for n2=2,n1=1,n0=0)."""
    occ = occupations(space, index)
    if space.per_mode_cutoff <= 9:
        return "".join(str(n) for n in occ)
    return "-".join(str(n) for n in occ)
