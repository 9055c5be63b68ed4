"""Reference data shared across the test modules.

The size-12 coefficient matrix with its triangular halves and their
exact inverses, the first eight odd-index basis representations (gamma
listed ascending: the zeta(0,s) coefficient first), one basis line in
display LaTeX, byte-exact CLI renderings of basis and relation lines,
and independently sourced high-precision Riemann zeta samples for
validating the floating-point reference path.
"""

from fractions import Fraction as F

A_12 = (
    (1, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (1, -2, 0, 0, 0, 0),
    (1, -3, 0, 0, 0, 0),
    (1, -4, 2, 0, 0, 0),
    (1, -5, 5, 0, 0, 0),
    (1, -6, 9, -2, 0, 0),
    (1, -7, 14, -7, 0, 0),
    (1, -8, 20, -16, 2, 0),
    (1, -9, 27, -30, 9, 0),
    (1, -10, 35, -50, 25, -2),
    (1, -11, 44, -77, 55, -11),
)

A1_12 = tuple(A_12[2 * i] for i in range(6))
A2_12 = tuple(A_12[2 * i + 1] for i in range(6))

A1_INV_12 = (
    (1, 0, 0, 0, 0, 0),
    (F(1, 2), F(-1, 2), 0, 0, 0, 0),
    (F(1, 2), -1, F(1, 2), 0, 0, 0),
    (F(5, 4), -3, F(9, 4), F(-1, 2), 0, 0),
    (F(13, 2), -16, 13, -4, F(1, 2), 0),
    (F(227, 4), -140, 115, F(-75, 2), F(25, 4), F(-1, 2)),
)

A2_INV_12 = (
    (1, 0, 0, 0, 0, 0),
    (F(1, 3), F(-1, 3), 0, 0, 0, 0),
    (F(2, 15), F(-1, 3), F(1, 5), 0, 0, 0),
    (F(8, 105), F(-1, 3), F(2, 5), F(-1, 7), 0, 0),
    (F(8, 105), F(-4, 9), F(11, 15), F(-10, 21), F(1, 9), 0),
    (F(32, 231), F(-8, 9), F(5, 3), F(-29, 21), F(5, 9), F(-1, 11)),
)

# gamma[k] multiplies zeta(-2k, s+2k); gamma[0] multiplies zeta(0,s)
GAMMA = {
    0: (F(1, 2),),
    1: (F(-1, 4), F(3, 2)),
    2: (F(1, 2), F(-5, 2), F(5, 2)),
    3: (F(-17, 8), F(21, 2), F(-35, 4), F(7, 2)),
    4: (F(31, 2), F(-153, 2), F(63), F(-21), F(9, 2)),
    5: (F(-691, 4), F(1705, 2), F(-2805, 4), F(231), F(-165, 4), F(11, 2)),
    6: (
        F(5461, 2), F(-26949, 2), F(22165, 2), F(-7293, 2),
        F(1287, 2), F(-143, 2), F(13, 2),
    ),
    7: (
        F(-929569, 16), F(573405, 2), F(-943215, 4), F(155155, 2),
        F(-109395, 8), F(3003, 2), F(-455, 4), F(15, 2),
    ),
}

BASIS_LATEX_M5 = (
    "\\zeta(-11, s + 11) = 11 \\zeta(-10, s + 10)/2 - 165 \\zeta(-8, s + 8)/4 "
    "+ 231 \\zeta(-6, s + 6) - 2805 \\zeta(-4, s + 4)/4 "
    "+ 1705 \\zeta(-2, s + 2)/2 - 691 \\zeta(0, s)/4"
)

# byte-exact CLI stdout (trailing newline included), pinning the spacing
# that the whitespace-insensitive comparisons above do not see
CLI_STDOUT = {
    ("basis", "--m", "5"): (
        "zeta(-11,s+11) = 11/2 zeta(-10,s+10) - 165/4 zeta(-8,s+8) "
        "+ 231 zeta(-6,s+6) - 2805/4 zeta(-4,s+4) + 1705/2 zeta(-2,s+2) "
        "- 691/4 zeta(0,s)\n"
    ),
    ("basis", "--m", "5", "--format", "latex"): (
        "\\zeta(-11,s+11) = 11 \\zeta(-10,s+10)/2 - 165 \\zeta(-8,s+8)/4 "
        "+ 231 \\zeta(-6,s+6) - 2805 \\zeta(-4,s+4)/4 + 1705 \\zeta(-2,s+2)/2 "
        "- 691 \\zeta(0,s)/4\n"
    ),
    ("relations", "--n", "4"): (
        "r1: 1/2 zeta(0,s) - zeta(-1,s+1) = 0\n"
        "r2: 1/4 zeta(0,s) - 1/3 zeta(-1,s+1) - 1/2 zeta(-2,s+2) "
        "+ 1/3 zeta(-3,s+3) = 0\n"
    ),
    ("relations", "--n", "4", "--format", "latex"): (
        "\\zeta(0,s)/2 - \\zeta(-1,s+1) = 0 \\\\\n"
        "\\zeta(0,s)/4 - \\zeta(-1,s+1)/3 - \\zeta(-2,s+2)/2 "
        "+ \\zeta(-3,s+3)/3 = 0 \\\\\n"
    ),
}

# zeta at off-table points, 17 significant digits
ZETA_5_HALVES = 1.3414872572509172
ZETA_7_HALVES = 1.1267338673170566
ZETA_4_PLUS_3I = complex(0.95681765888965906, -0.04728837670878143)
