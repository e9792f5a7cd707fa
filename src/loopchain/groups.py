"""Small finite groups used by fixtures and the simplicial suites."""


class FiniteGroup:
    """Finite group with hashable elements and explicit operations."""

    def __init__(self, name, elements, mul, unit):
        self.name = name
        self.elements = list(elements)
        self._mul = mul
        self.unit = unit

    def mul(self, g, h):
        return self._mul(g, h)

    def __repr__(self):
        return "FiniteGroup(%s)" % self.name


def cyclic(n):
    return FiniteGroup("C%d" % n, range(n), lambda a, b: (a + b) % n, 0)


def symmetric_3():
    """S_3 as permutation tuples of (0, 1, 2)."""
    import itertools
    elements = [tuple(p) for p in itertools.permutations(range(3))]

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    return FiniteGroup("S3", elements, mul, (0, 1, 2))


BUILTIN_GROUPS = {"c2": cyclic(2), "c4": cyclic(4), "s3": symmetric_3()}
