"""Naive dense matrix algebra: the reference the circulant route is checked against.

Only small matrices are materialized; the circulant route itself never
forms one.
"""

#: Largest dimension :func:`to_dense` will materialize.
DENSE_DIM_LIMIT = 64


def to_dense(a, limit=DENSE_DIM_LIMIT):
    """The full matrix of the circulant ``a``: entry (i, j) is first_row[(j - i) mod N]."""
    if a.dim > limit:
        raise ValueError(f"refusing to materialize dim {a.dim} > {limit}")
    return [[a.first_row[(j - i) % a.dim] for j in range(a.dim)] for i in range(a.dim)]


def dense_product(a, b):
    n = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


def dense_power(matrix, n):
    size = len(matrix)
    result = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(n):
        result = dense_product(result, matrix)
    return result
