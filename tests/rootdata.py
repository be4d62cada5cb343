"""Exponents of the simple Lie algebras, from the classification tables
(Bourbaki, Lie groups and Lie algebras, Ch. VI, Planches I-IX).

The root-system tests compare the package's closure against these values,
so nothing here is computed from the package.
"""

EXPONENTS = {
    "A": lambda n: range(1, n + 1),
    "B": lambda n: range(1, 2 * n, 2),
    "C": lambda n: range(1, 2 * n, 2),
    "D": lambda n: list(range(1, 2 * n - 2, 2)) + [n - 1],
    "E": lambda n: {6: [1, 4, 5, 7, 8, 11],
                    7: [1, 5, 7, 9, 11, 13, 17],
                    8: [1, 7, 11, 13, 17, 19, 23, 29]}[n],
    "F": lambda n: [1, 5, 7, 11],
    "G": lambda n: [1, 5],
}
