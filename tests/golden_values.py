"""Reference data shared across the test modules.

The size-12 coefficient matrix with its triangular halves and their
exact inverses, the first eight odd-index basis representations (gamma
listed ascending: the zeta(0,s) coefficient first), one basis line in
display LaTeX, byte-exact CLI renderings of basis and relation lines,
stdout digests of the matrix commands, and independently sourced
high-precision Riemann zeta samples for validating the floating-point
reference path.
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

# sha256 of the stdout of `matrix` and `invert --oracle` (a1 and a2) at
# N in {2, 3, 7, 12, 13, 20, 100} in all four formats, every one exiting 0;
# recorded from the Fraction-grid CoeffMatrix, which rendered through rat_to_str
MATRIX_CLI_SHA256 = {
    "matrix --n 2 --format text":
        "ad0fadf63cc7cd779ce475e345bf4063565b63a3c2efef1eebc89790aaa6acba",
    "invert --n 2 --which a1 --oracle --format text":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "invert --n 2 --which a2 --oracle --format text":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "matrix --n 2 --format json":
        "fe78708a325102ddab8215fd49a540e45264d6222f35c97e97daac5b8b3e0dc1",
    "invert --n 2 --which a1 --oracle --format json":
        "d99840013a80796a11e1f950c1b88f29336dfbb58fb9ded8f38c3aad8ec9f642",
    "invert --n 2 --which a2 --oracle --format json":
        "d99840013a80796a11e1f950c1b88f29336dfbb58fb9ded8f38c3aad8ec9f642",
    "matrix --n 2 --format latex":
        "afb34baf6375f2ad097ed531080651bfc9b7817e41197f7319337dc1d2e197ca",
    "invert --n 2 --which a1 --oracle --format latex":
        "3c9d08b8abaceee3efdc6b557f5d8736c6d92a4431552b1299bd1cb7afdc727d",
    "invert --n 2 --which a2 --oracle --format latex":
        "3c9d08b8abaceee3efdc6b557f5d8736c6d92a4431552b1299bd1cb7afdc727d",
    "matrix --n 2 --format csv":
        "4447ca4878368718f054a555a56f53ce295cca4d30d3b82c37c9434eb71d2230",
    "invert --n 2 --which a1 --oracle --format csv":
        "c433369fa9a9399b11a1029bea18525a93085c3946f114d95bd156bae301e4e9",
    "invert --n 2 --which a2 --oracle --format csv":
        "c433369fa9a9399b11a1029bea18525a93085c3946f114d95bd156bae301e4e9",
    "matrix --n 3 --format text":
        "ad0fadf63cc7cd779ce475e345bf4063565b63a3c2efef1eebc89790aaa6acba",
    "invert --n 3 --which a1 --oracle --format text":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "invert --n 3 --which a2 --oracle --format text":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "matrix --n 3 --format json":
        "fe78708a325102ddab8215fd49a540e45264d6222f35c97e97daac5b8b3e0dc1",
    "invert --n 3 --which a1 --oracle --format json":
        "d99840013a80796a11e1f950c1b88f29336dfbb58fb9ded8f38c3aad8ec9f642",
    "invert --n 3 --which a2 --oracle --format json":
        "d99840013a80796a11e1f950c1b88f29336dfbb58fb9ded8f38c3aad8ec9f642",
    "matrix --n 3 --format latex":
        "afb34baf6375f2ad097ed531080651bfc9b7817e41197f7319337dc1d2e197ca",
    "invert --n 3 --which a1 --oracle --format latex":
        "3c9d08b8abaceee3efdc6b557f5d8736c6d92a4431552b1299bd1cb7afdc727d",
    "invert --n 3 --which a2 --oracle --format latex":
        "3c9d08b8abaceee3efdc6b557f5d8736c6d92a4431552b1299bd1cb7afdc727d",
    "matrix --n 3 --format csv":
        "4447ca4878368718f054a555a56f53ce295cca4d30d3b82c37c9434eb71d2230",
    "invert --n 3 --which a1 --oracle --format csv":
        "c433369fa9a9399b11a1029bea18525a93085c3946f114d95bd156bae301e4e9",
    "invert --n 3 --which a2 --oracle --format csv":
        "c433369fa9a9399b11a1029bea18525a93085c3946f114d95bd156bae301e4e9",
    "matrix --n 7 --format text":
        "1dd790aaf266f8c8ff72d42433bafbf63cf527b281faca008cc25295e8c724a3",
    "invert --n 7 --which a1 --oracle --format text":
        "71ad30ac5ea2c73ffbbc0336801719bf33993a68ffb53286fd4dbcbd07933c74",
    "invert --n 7 --which a2 --oracle --format text":
        "f037b7b4a75207430b92392e73fda4b8e7714edef30b4d6b19632aa7c7800ddc",
    "matrix --n 7 --format json":
        "bf43d06ad7da473c81c7d96c624781409584ed57e8cbf925ca6fb309f4d5fd54",
    "invert --n 7 --which a1 --oracle --format json":
        "81010ee131ece63cf01e1ed3f83ab22e93bcdcd47750188f23624cbb7965dc89",
    "invert --n 7 --which a2 --oracle --format json":
        "f5db86e7bb89a433da8398bc4705633f725ef119fde75754613ed004354005b6",
    "matrix --n 7 --format latex":
        "032ee997df55ac6e12aa74e31867c8e11e627a0087759baf224142e9e3bb63ce",
    "invert --n 7 --which a1 --oracle --format latex":
        "b0953b0df98d4cc81066f94f065af9185caa16cf0e5743754f7270eb488d7c96",
    "invert --n 7 --which a2 --oracle --format latex":
        "37c47ca69a70b8efba82e09f61640e135a94fdeae1e067c50fecc01d84956ed0",
    "matrix --n 7 --format csv":
        "f63726b6a2a7bbd719fda2868b69891d105bcf88e40e2aeebaca66ad2f5acdb9",
    "invert --n 7 --which a1 --oracle --format csv":
        "e81dd4b06b76f738393f5c5742d52f9f1740032388ac6efe027f873be37f6f6d",
    "invert --n 7 --which a2 --oracle --format csv":
        "26719871fec7212b3757be2519ce9fe1a6c3c39cacdf9c624b2e1b8f5d3cc75c",
    "matrix --n 12 --format text":
        "a026f1401bed17f090148546b7758551d1adf29bf03292d4360e229f8d3b5b40",
    "invert --n 12 --which a1 --oracle --format text":
        "688fff7e1bafbb35cecbf61ee8c523f41294959813edf9a1ae05755c27b32d75",
    "invert --n 12 --which a2 --oracle --format text":
        "ecb3e464b66c2b76d3a4918b1b8763d5d260bb15c4b4d36b343b371f4392667a",
    "matrix --n 12 --format json":
        "15027b67de104e0ea034e405beeb4a543c551d1d0f9bf214d116b66fb34934d3",
    "invert --n 12 --which a1 --oracle --format json":
        "2342cb37c70fbb6eb633c3822f4abe07e2f9631d862ae3bd8aa5798cd85d629c",
    "invert --n 12 --which a2 --oracle --format json":
        "e302f9e40b5a434b9ff4901ed3f28b77fa385ff224d35cd5a5d2b659ad078e88",
    "matrix --n 12 --format latex":
        "55de5c43b401e1094ad05d21188a634d639743696c5f245d0c666c9bd235cb18",
    "invert --n 12 --which a1 --oracle --format latex":
        "9dea3c0db47f6ad6956a6fae88324de63b07af3b35eca12d77944455e014e709",
    "invert --n 12 --which a2 --oracle --format latex":
        "f7aebfdcb068ad921697f2bac8211a0dbc672903f04128ee87360a560fdcde20",
    "matrix --n 12 --format csv":
        "e42f2c461df7f9485ade9dcee3f5e08de9500224118e29f2f63417dbb5356a5c",
    "invert --n 12 --which a1 --oracle --format csv":
        "b390fb4c964bfa2d857d0f2640d4d069cbfb12a316ba67260cc1112f508e3b62",
    "invert --n 12 --which a2 --oracle --format csv":
        "87268172831b7e988d5afe586a9b3872b4ccaebcdaaff4726235879c36667c1a",
    "matrix --n 13 --format text":
        "a026f1401bed17f090148546b7758551d1adf29bf03292d4360e229f8d3b5b40",
    "invert --n 13 --which a1 --oracle --format text":
        "688fff7e1bafbb35cecbf61ee8c523f41294959813edf9a1ae05755c27b32d75",
    "invert --n 13 --which a2 --oracle --format text":
        "ecb3e464b66c2b76d3a4918b1b8763d5d260bb15c4b4d36b343b371f4392667a",
    "matrix --n 13 --format json":
        "15027b67de104e0ea034e405beeb4a543c551d1d0f9bf214d116b66fb34934d3",
    "invert --n 13 --which a1 --oracle --format json":
        "2342cb37c70fbb6eb633c3822f4abe07e2f9631d862ae3bd8aa5798cd85d629c",
    "invert --n 13 --which a2 --oracle --format json":
        "e302f9e40b5a434b9ff4901ed3f28b77fa385ff224d35cd5a5d2b659ad078e88",
    "matrix --n 13 --format latex":
        "55de5c43b401e1094ad05d21188a634d639743696c5f245d0c666c9bd235cb18",
    "invert --n 13 --which a1 --oracle --format latex":
        "9dea3c0db47f6ad6956a6fae88324de63b07af3b35eca12d77944455e014e709",
    "invert --n 13 --which a2 --oracle --format latex":
        "f7aebfdcb068ad921697f2bac8211a0dbc672903f04128ee87360a560fdcde20",
    "matrix --n 13 --format csv":
        "e42f2c461df7f9485ade9dcee3f5e08de9500224118e29f2f63417dbb5356a5c",
    "invert --n 13 --which a1 --oracle --format csv":
        "b390fb4c964bfa2d857d0f2640d4d069cbfb12a316ba67260cc1112f508e3b62",
    "invert --n 13 --which a2 --oracle --format csv":
        "87268172831b7e988d5afe586a9b3872b4ccaebcdaaff4726235879c36667c1a",
    "matrix --n 20 --format text":
        "2ff48f74a524e7dc732db0057d7110c3d3cc85692ed6ce5b472e380925dfa871",
    "invert --n 20 --which a1 --oracle --format text":
        "7a747e5194df9c0215244bc3a77c51db02bac3506ce6b8f84fd5943fd1dfa2a3",
    "invert --n 20 --which a2 --oracle --format text":
        "9e1390105bb4eff09efa6c40f710857f099a3c07b835177d9e8d768c89ec5168",
    "matrix --n 20 --format json":
        "0b793538ddb8822fff42fe7f84813febc572e6652b8ef076f66506d08d9912d5",
    "invert --n 20 --which a1 --oracle --format json":
        "decbd874b28a853ad875091df8ce39363cba61e535edb8717fd8cec00018d9ee",
    "invert --n 20 --which a2 --oracle --format json":
        "84089529c9bed089b21226ee983c2abbe5dfdcfc6c1b34cc080a5ff27ed6f806",
    "matrix --n 20 --format latex":
        "cbd9993238d0a0f79cd47f8cdfcc0f3ddc98a376831d9c8c16f762b709561240",
    "invert --n 20 --which a1 --oracle --format latex":
        "008761fb90216857234bf1dfb7d173791178282d88b6b75d11e07d5ff5a11dca",
    "invert --n 20 --which a2 --oracle --format latex":
        "1b10e738acf91ba6f031954841c768cd5c3b385acaf3fb178ec9134c92b5b237",
    "matrix --n 20 --format csv":
        "b0d2ab58cc6363664b0459c4af1c45063817af45dba7b565b037cd97a35fe75d",
    "invert --n 20 --which a1 --oracle --format csv":
        "0c029e5391db0e9b2f846f96f9793f07aec52824640476fc59aef9deefb38a91",
    "invert --n 20 --which a2 --oracle --format csv":
        "453b00db1230eb20425c684fc1edb6383bb6b28adbc1cf1e624c27618923f2db",
    "matrix --n 100 --format text":
        "1798956fb07247ffd8480a02ff6c226e14f9c99b44f5ec19c10c7cfcf5ddb354",
    "invert --n 100 --which a1 --oracle --format text":
        "31912f1d96163441c92e995c7e06b698d9c2739d17d351f70aea320c2370cc20",
    "invert --n 100 --which a2 --oracle --format text":
        "270032a69f68ec21863c5249daa08a5c3fdb34409820a88fc3f92f9a9fa6b9aa",
    "matrix --n 100 --format json":
        "07a21bb27f7dc9b9069068c83d3d081375b018d90a9c0fe5b20c0ce0961c3099",
    "invert --n 100 --which a1 --oracle --format json":
        "7348541e5eba3763b2e6422c6b8b7a896460ea725b7698bd82e01df8cc109917",
    "invert --n 100 --which a2 --oracle --format json":
        "e162f73b2c8ae0fa69fecded14c8962ea838b0fbd995604e4708946af3fe33c5",
    "matrix --n 100 --format latex":
        "bc1a639fdb72d73f1673d1623561d78b3cf70ac3bafa941c960d3993c291f369",
    "invert --n 100 --which a1 --oracle --format latex":
        "247632f02a03350e9f82c29641bd418af7763c1ed93a1e15a051427bf9f76fa3",
    "invert --n 100 --which a2 --oracle --format latex":
        "a6ca7b08cb7482b023c91455242390a17bc84607e7fe65f6463cea19086a8436",
    "matrix --n 100 --format csv":
        "6fd630318d13fe4db0023834e1cd7c78df55838533dd46d6abf597c609590759",
    "invert --n 100 --which a1 --oracle --format csv":
        "5065cfb4f5fdb0004a5a31e3b7b502f634300d91cb909ad84e89612430a8ac6e",
    "invert --n 100 --which a2 --oracle --format csv":
        "af38fd1fce8eb769c03eedab72c500b802a65de4f1011651a9c8a7f937040d40",
}

# zeta at off-table points, 17 significant digits
ZETA_5_HALVES = 1.3414872572509172
ZETA_7_HALVES = 1.1267338673170566
ZETA_4_PLUS_3I = complex(0.95681765888965906, -0.04728837670878143)
