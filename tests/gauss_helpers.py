"""Dense helpers that only the tests use: products and kernels of plain
K-matrices (lists of rows of raw values), on top of `equicode.gauss`."""

from equicode import gauss
from equicode.errors import DimMismatch


def matmul(ctx, a, b):
    if a and b and len(a[0]) != len(b):
        raise DimMismatch("inner dimensions %d and %d differ"
                          % (len(a[0]), len(b)))
    bt = gauss.transpose(b)
    return [[ctx.dot(row, col) for col in bt] for row in a]


def kernel_basis(ctx, m):
    """Basis of the right kernel of m, one vector per free column."""
    return gauss.kernel_and_solution(ctx, m, [[] for _ in m])[0]
