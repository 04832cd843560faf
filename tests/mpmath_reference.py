"""40-digit mpmath reference values of the normalized radial functions.

Run from the repository root to rewrite the table that
tests/test_specfun.py reads:

    python tests/mpmath_reference.py

The table's first lines record this command and the mpmath version.
"""

import pathlib

import mpmath

DATA = pathlib.Path(__file__).parent / "data" / "mpmath_radial.csv"
COMMAND = "python tests/mpmath_reference.py"

# (orders m, coordinates, l_max) of each family's table
PROLATE_POINTS = ((0, 1, 3, 8), (1.0001, 1.05, 1.5, 4.0), 25)
OBLATE_POINTS = ((0, 1, 4), (0.05, 0.3, 1.0, 3.0), 20)


def _normalized(l, m, P, Q):
    """sqrt((l - m)! / (l + m)!) times the real parts of P and Q, as floats."""
    norm = mpmath.sqrt(mpmath.factorial(l - m) / mpmath.factorial(l + m))
    return float(norm * mpmath.re(P)), float(norm * mpmath.re(Q))


def mp_prolate(l, m, x):
    """Reference normalized radial pair via arbitrary precision."""
    with mpmath.workdps(40):
        P = mpmath.legenp(l, m, x, type=3)
        Q = mpmath.legenq(l, m, x, type=3)
        return _normalized(l, m, P, Q)


def mp_oblate(l, m, zeta):
    """Oblate continuation: P(i zeta) = i^l p, Q(i zeta) = (-i)^(l+1) q."""
    with mpmath.workdps(40):
        P = mpmath.legenp(l, m, mpmath.mpc(0, zeta), type=3)
        Q = mpmath.legenq(l, m, mpmath.mpc(0, zeta), type=3)
        i = mpmath.mpc(0, 1)
        return _normalized(l, m, i ** (-l) * P, i ** (l + 1) * Q)


def load() -> dict:
    """{(family, m, coord, l): (P, Q)} from the table."""
    table = {}
    with open(DATA, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("family,"):
                continue
            family, m, coord, l, P, Q = line.split(",")
            table[family, int(m), float(coord), int(l)] = (float(P), float(Q))
    return table


def main() -> None:
    lines = [
        f"# written by: {COMMAND}",
        f"# mpmath {mpmath.__version__}, 40 digits",
        "family,m,coord,l,P,Q",
    ]
    for family, reference, (orders, coords, l_max) in (
        ("prolate", mp_prolate, PROLATE_POINTS),
        ("oblate", mp_oblate, OBLATE_POINTS),
    ):
        for m in orders:
            for coord in coords:
                for l in range(m, l_max + 1):
                    P, Q = reference(l, m, coord)
                    lines.append(f"{family},{m},{coord!r},{l},{P!r},{Q!r}")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
