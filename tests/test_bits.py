"""Pinned float bits of the K_p, sn_p and tau_k chain.

Each value below is ``float.hex`` of what the library returned when the
literal was recorded.  Work on speed must leave every one of them bit for
bit; a change that moves a last digit on purpose updates the literal and
lists the moved values in CHANGES.md.  ``python tests/test_bits.py``
(with ``src`` on the path) prints the current values in the layout of
``EXPECTED``, to paste over it.
"""

import functools
import math

import numpy as np
import pytest

import pelliptic.certify as ct
import pelliptic.eigen as eg
import pelliptic.elliptic as el
import pelliptic.fourier as fr
import pelliptic.qtheta as qt
import pelliptic.quadrature as quad
from pelliptic.errors import DomainError, SingularPoint

# (p, mu) pairs: p below and above 2, mu up to the last double below 1
PAIRS = [(2.0, 0.5), (3.5, 0.9), (1.5, 1.0 - 1e-6), (2.5, math.nextafter(1.0, 0.0))]
# y = f K_p: both signs, every quarter, next to K_p and past one period
FRACTIONS = [-1.7, 0.05, 0.37, 0.8, 0.999, 1.3, 2.6, 3.7, 9.2]
TAU_PAIRS = [(2.0, 0.5), (3.5, 0.9)]
# a 4 x 4 tile of K_p rows, from p = 1.02 up
TILE_P = [1.02, 1.5, 2.0, 5.0]
TILE_MU = [0.0, 0.3, 0.9, 0.999999]
# stop levels 3 (2.0, 0.5 and 6.0, 0.1), 4, 5, 6, 7 (1.2, ...) and 8; no
# K_p row stops at level 2
QUAD_PAIRS = [
    (2.0, 0.5),
    (1.2, 1.0 - 1e-12),
    (6.0, 0.1),
    (1.02, 0.5),
    (1.3, 0.99),
    (2.0, 0.999999),
    (1.005, 1.0 - 1e-13),
]
# tau_k rows that stop at levels 6 and 7
TAU_LONG_PAIRS = [(2.0, 0.5), (1.5, 0.9)]
# 16 rows at one p, moduli geometric in 1 - mu from 1e-6 to 0.999 (the
# grid the boundary search once batched)
BOUNDARY_MUS = 1.0 - np.geomspace(1.0 - 1e-6, 1.0 - 0.999, 16)
BOUNDARY_MUS[[0, -1]] = 1e-6, 0.999
# one batch with p repeated in rows that are not adjacent
REPEAT_P = [1.3, 2.5, 1.3, 4.0, 2.5, 1.3, 4.0, 2.5]
REPEAT_MU = [0.2, 0.9, 0.999999, 0.5, 0.0, 0.95, 1.0 - 1e-12, 0.6]
# sn_p paths the pairs above miss: at mu = 0, w_p' has B = 1; at p = 1.5,
# mu = 0.99 the start takes a second Newton pass at small and large z
# (fractions 0.002, 0.05 and 0.895 of K_p) and one in between
MU0_PAIR = (2.5, 0.0)
SECOND_PASS_PAIR = (1.5, 0.99)
SECOND_PASS_FRACTIONS = [0.002, 0.05, 0.5, 0.895, 0.97]
# y at the fold's endpoints, 0, K_p, 2 K_p and 4 K_p exactly, and one ulp
# below K_p, which the fold snaps to K_p
ENDPOINT_PAIRS = [(2.0, 0.5), MU0_PAIR, SECOND_PASS_PAIR]
# one array that every point leaves on its first Newton pass, and one
# that holds both endpoints of [0, K_p] after the fold
FIRST_PASS_FRACTIONS = [0.1, 0.45, 0.77, 1.6, -0.3]
BOTH_ENDS_FRACTIONS = [0.0, 0.3, 1.0, 0.7, 2.0, -1.0]
# snp_value across several periods: (value, period index) per y
PERIOD_FRACTIONS = [-9.2, -4.0, -0.5, 0.0, 3.99, 4.0, 9.2]
# eigenpairs (p, mu, n) whose residual maxima on the 101-point grid of
# the pipeline_cold benchmark are pinned
RESIDUAL_CASES = [(2.0, 0.5, 1), (3.5, 0.9, 2), (1.5, 0.99, 1), (2.5, 0.3, 3)]
# one row of the tanh-sinh driver, F x**(ea-1), at stop levels 2, 3, 4
# and later: F is (name, F(x, cx), ea, tol).  The ea = 0.5 rows are the
# pins first recorded as (1-s)**(-1/2) times F(s), mirrored to the left
# end; their bits did not move
DRIVER = [
    ("exp(cx)", lambda x, cx: np.exp(cx), 0.5, 1e-4),
    ("exp(cx)", lambda x, cx: np.exp(cx), 0.5, 1e-10),
    ("exp(cx)", lambda x, cx: np.exp(cx), 0.5, 1e-14),
    ("1/(1+900cx)", lambda x, cx: 1.0 / (1.0 + 900.0 * cx), 0.5, 1e-13),
    ("1/(1+30x)", lambda x, cx: 1.0 / (1.0 + 30.0 * x), 0.75, 1e-8),
]
# invertibility certificates over several moduli: (p, set, K)
CERTIFICATES = [
    (1.5, ct.ModulusSet.explicit([0.2, 0.6, 0.9]), 21),
    (2.0, ct.ModulusSet.grid(0.05, 0.95, 7), 31),
]


def compute() -> dict:
    """Every pinned value, as lists of floats keyed by name."""
    out = {}
    for p, mu in PAIRS:
        K = el.kp(p, mu)
        y = np.array(FRACTIONS) * K
        key = f"{p!r},{mu!r}"
        out[f"kp {key}"] = [K]
        # the "_many" keys pin the array calls; they keep the names under
        # which they were recorded
        out[f"snp_many {key}"] = el.snp(p, mu, y).tolist()
        out[f"snp_deriv_many {key}"] = el.snp_deriv(p, mu, y).tolist()
        out[f"snp_second_deriv_many {key}"] = el.snp_second_deriv(p, mu, y).tolist()
        out[f"snp {key}"] = [el.snp(p, mu, float(v)) for v in y]
        out[f"wp {key}"] = [el.wp(p, mu, 0.6), el.wp(p, mu, math.nextafter(0.6, 1.0))]
    for p, mu in (MU0_PAIR, SECOND_PASS_PAIR):
        K = el.kp(p, mu)
        key = f"{p!r},{mu!r}"
        fractions = FRACTIONS if mu == 0.0 else SECOND_PASS_FRACTIONS
        y = np.array(fractions) * K
        out[f"snp array {key}"] = el.snp(p, mu, y).tolist()
        out[f"snp_deriv array {key}"] = el.snp_deriv(p, mu, y).tolist()
        out[f"snp_second_deriv array {key}"] = el.snp_second_deriv(p, mu, y).tolist()
        out[f"snp {key}"] = [el.snp(p, mu, float(v)) for v in y]
    for p, mu in ENDPOINT_PAIRS:
        K = el.kp(p, mu)
        key = f"{p!r},{mu!r}"
        ends = [0.0, K, 2.0 * K, 4.0 * K, math.nextafter(K, 0.0)]
        out[f"snp endpoints {key}"] = [el.snp(p, mu, v) for v in ends]
        out[f"snp_deriv endpoints {key}"] = [el.snp_deriv(p, mu, v) for v in ends]
        out[f"snp first pass {key}"] = el.snp(
            p, mu, np.array(FIRST_PASS_FRACTIONS) * K
        ).tolist()
        out[f"snp both ends {key}"] = el.snp(
            p, mu, np.array(BOTH_ENDS_FRACTIONS) * K
        ).tolist()
        values = [el.snp_value(p, mu, f * K) for f in PERIOD_FRACTIONS]
        out[f"snp_value {key}"] = [
            x for v in values for x in (v.value, float(v.branch_period_index))
        ]
    grid = np.linspace(0.0, 1.0, 101)
    for p, mu, n in RESIDUAL_CASES:
        e = eg.eigenpair(p, mu, n)
        out[f"residual maxima {p!r},{mu!r},{n}"] = [
            eg.first_integral_residual(e, grid).max_abs_residual,
            eg.ode_residual(e, grid).max_abs_residual,
        ]
    for p, mu in TAU_PAIRS:
        out[f"tau_k {p!r},{mu!r}"] = fr.tau_k(p, mu, np.arange(1, 22)).tolist()
    P, M = np.meshgrid(TILE_P, TILE_MU, indexing="ij")
    out["_kp_rows"] = el._kp_rows(P.ravel(), M.ravel())[0].tolist()
    for p, mu in QUAD_PAIRS:
        r = el.kp_quadrature(p, mu)
        out[f"kp_quadrature {p!r},{mu!r}"] = [
            r.value, r.abs_error_estimate, float(r.nodes_used)
        ]
    for p, mu in TAU_LONG_PAIRS:
        out[f"tau_k 1..201 {p!r},{mu!r}"] = fr.tau_k(p, mu, np.arange(1, 202)).tolist()
    out["_kp_rows 1.63 boundary"] = el._kp_rows([1.63] * 16, BOUNDARY_MUS)[0].tolist()
    out["_kp_rows repeated p"] = el._kp_rows(REPEAT_P, REPEAT_MU)[0].tolist()
    for name, fn, ea, tol in DRIVER:
        row = quad._tanh_sinh(lambda lev, x, cx, rows: fn(x, cx), ea, tol)
        out[f"_tanh_sinh {name},{ea!r},{tol!r}"] = [float(v) for v in row]
    for p, ms, K in CERTIFICATES:
        r = ct.certify_invertibility(p, ms, K)
        key = f"certify_invertibility {p!r},{ms.kind},{len(ms.values)},{K}"
        out[key] = [r.lhs, r.rhs, r.margin, r.tail_bound]
    out["q0"] = [qt.solve_q0()]
    out["mu0"] = [qt.mu0()]
    return out


EXPECTED = {
    "_kp_rows": [
        "0x1.9040c9f347398p+5",
        "0x1.173940c4ea784p+6",
        "0x1.c12d6fe8e069ep+8",
        "0x1.b4010931601a2p+24",
        "0x1.358e1a79ed7e2p+1",
        "0x1.4f215e00de976p+1",
        "0x1.5c55312206fd0p+2",
        "0x1.334a98e504cd4p+8",
        "0x1.921fb54442d18p+0",
        "0x1.9ba91308fabfap+0",
        "0x1.23e908bf392fep+1",
        "0x1.fca3823440a3ep+2",
        "0x1.11a7519c30c38p+0",
        "0x1.11ae22566b55ap+0",
        "0x1.1a3819dc846d0p+0",
        "0x1.2ca0b2642e5ccp+0",
    ],
    "_kp_rows 1.63 boundary": [
        "0x1.074295f2b7762p+1",
        "0x1.1db8b0d1c94a9p+1",
        "0x1.455433af98587p+1",
        "0x1.776e2c46dc56bp+1",
        "0x1.b2e02e2ad026cp+1",
        "0x1.f7944b62f5be2p+1",
        "0x1.22ef99efcf1d6p+2",
        "0x1.4f29916ba3bcap+2",
        "0x1.80d8ba8ace56cp+2",
        "0x1.b873235245749p+2",
        "0x1.f683f1ec99838p+2",
        "0x1.1dd5fc69a1842p+3",
        "0x1.4451646afa40fp+3",
        "0x1.6f1c11b089696p+3",
        "0x1.9eaae36c6cd08p+3",
        "0x1.d380cb7dda6c1p+3",
    ],
    "_kp_rows repeated p": [
        "0x1.f83590c28453dp+1",
        "0x1.9ec0082bd081cp+0",
        "0x1.80de8064caa8ap+12",
        "0x1.1d7bbc3454ff0p+0",
        "0x1.524122de9c6b3p+0",
        "0x1.186bbac142fd8p+4",
        "0x1.4f9f8aed007d4p+0",
        "0x1.63df0d0b56b4fp+0",
    ],
    "_tanh_sinh 1/(1+30x),0.75,1e-08": [
        "0x1.b68cd0a763ab2p-3",
        "0x1.6c00000000000p-49",
        "0x1.8600000000000p+7",
    ],
    "_tanh_sinh 1/(1+900cx),0.5,1e-13": [
        "0x1.29feebb2a4bb1p-7",
        "0x1.0000000000000p-59",
        "0x1.8700000000000p+8",
    ],
    "_tanh_sinh exp(cx),0.5,0.0001": [
        "0x1.03d99c7cf0b78p+2",
        "0x1.ac8aa57900000p-17",
        "0x1.8800000000000p+5",
    ],
    "_tanh_sinh exp(cx),0.5,1e-10": [
        "0x1.03d99c7ceed1ep+2",
        "0x1.e5a0000000000p-38",
        "0x1.8400000000000p+6",
    ],
    "_tanh_sinh exp(cx),0.5,1e-14": [
        "0x1.03d99c7ceed1ep+2",
        "0x1.0000000000000p-50",
        "0x1.8600000000000p+7",
    ],
    "certify_invertibility 1.5,explicit-list,3,21": [
        "0x1.49c9dc91fd531p-2",
        "0x1.934346c369ff0p-1",
        "0x1.dcbcb0f4d6aafp-2",
        "0x1.303a90573ed8ep-4",
    ],
    "certify_invertibility 2.0,interval-grid,7,31": [
        "0x1.cc6abf680e299p-4",
        "0x1.6a1865be33628p-1",
        "0x1.308b0dd1319d5p-1",
        "0x1.8849c152b3028p-6",
    ],
    "kp 1.5,0.999999": [
        "0x1.334a98e504cd4p+8",
    ],
    "kp 2.0,0.5": [
        "0x1.af8d55d323f7ap+0",
    ],
    "kp 2.5,0.9999999999999999": [
        "0x1.5df4830e5ea91p+1",
    ],
    "kp 3.5,0.9": [
        "0x1.3f0e45a05a0a4p+0",
    ],
    "kp_quadrature 1.005,0.9999999999999": [
        "0x1.4fdf524b96eb7p+50",
        "0x1.000000008fddap-2",
        "0x1.8660000000000p+11",
    ],
    "kp_quadrature 1.02,0.5": [
        "0x1.8085746397cc6p+6",
        "0x1.c000000011f87p-43",
        "0x1.8600000000000p+7",
    ],
    "kp_quadrature 1.2,0.999999999999": [
        "0x1.d5f2c40b22c55p+28",
        "0x1.0000000000000p-24",
        "0x1.8640000000000p+10",
    ],
    "kp_quadrature 1.3,0.99": [
        "0x1.53d31751f5c70p+5",
        "0x1.0000000000000p-47",
        "0x1.8700000000000p+8",
    ],
    "kp_quadrature 2.0,0.5": [
        "0x1.af8d55d323f7ap+0",
        "0x1.0000000000000p-52",
        "0x1.8400000000000p+6",
    ],
    "kp_quadrature 2.0,0.999999": [
        "0x1.fca3823440a3ep+2",
        "0x1.0000005c46575p-50",
        "0x1.8680000000000p+9",
    ],
    "kp_quadrature 6.0,0.1": [
        "0x1.0c1523ffc6b84p+0",
        "0x1.0000000000000p-52",
        "0x1.8400000000000p+6",
    ],
    "mu0": [
        "0x1.ffffffffffffcp-1",
    ],
    "q0": [
        "0x1.893f7b3444c13p-1",
    ],
    "residual maxima 1.5,0.99,1": [
        "0x1.0000000000000p-37",
        "0x1.8000000000000p-42",
    ],
    "residual maxima 2.0,0.5,1": [
        "0x1.8000000000000p-46",
        "0x1.8000000000000p-47",
    ],
    "residual maxima 2.5,0.3,3": [
        "0x1.4000000000000p-39",
        "0x1.2000000000000p-40",
    ],
    "residual maxima 3.5,0.9,2": [
        "0x1.4000000000000p-34",
        "0x1.4000000000000p-35",
    ],
    "snp 1.5,0.99": [
        "0x1.a901b7498c5aep-6",
        "0x1.0670d81df42dap-1",
        "0x1.fc93cf7696d31p-1",
        "0x1.fff9c48f00b22p-1",
        "0x1.ffffdadf96b59p-1",
    ],
    "snp 1.5,0.999999": [
        "-0x1.ffff35dee088fp-1",
        "0x1.ff6af502c6490p-1",
        "0x1.ffff9aa165684p-1",
        "0x1.fffffe81daf84p-1",
        "0x1.fffffffffffcfp-1",
        "0x1.fffffab063863p-1",
        "-0x1.fffff1fffe968p-1",
        "-0x1.ffff35dee088fp-1",
        "0x1.fffffe81daf84p-1",
    ],
    "snp 2.0,0.5": [
        "-0x1.eb7ca1c2f5008p-2",
        "0x1.58bb39ab4bff0p-4",
        "0x1.272790543d497p-1",
        "0x1.ea20fcc4690afp-1",
        "0x1.ffffdc3e11792p-1",
        "0x1.ceb11bccaf9f7p-1",
        "-0x1.a833d3eb7edc0p-1",
        "-0x1.eb7ca1c2f4ffap-2",
        "0x1.ea20fcc4690b1p-1",
    ],
    "snp 2.5,0.0": [
        "-0x1.914fee30901e5p-2",
        "0x1.0e91a08aeac26p-4",
        "0x1.eb0a76da967d5p-2",
        "0x1.d4e3a957375bep-1",
        "0x1.fffe5c45e64ddp-1",
        "0x1.ac8ece6ca88c8p-1",
        "-0x1.7bc86b33a17abp-1",
        "-0x1.914fee30901ddp-2",
        "0x1.d4e3a957375c0p-1",
    ],
    "snp 2.5,0.9999999999999999": [
        "-0x1.71dfc55e017e1p-1",
        "0x1.1785d669c3db9p-3",
        "0x1.a70d6f10150eap-1",
        "0x1.ffaf0b6194318p-1",
        "0x1.fffffffffff95p-1",
        "0x1.fd9cbddaa1346p-1",
        "-0x1.f607f83b09271p-1",
        "-0x1.71dfc55e017dbp-1",
        "0x1.ffaf0b6194318p-1",
    ],
    "snp 3.5,0.9": [
        "-0x1.7d8e90a6a6264p-2",
        "0x1.fe7c632618c85p-5",
        "0x1.d4d91c0e38628p-2",
        "0x1.cd07c583de2b1p-1",
        "0x1.fff8c0f642054p-1",
        "0x1.a2a8a9647038cp-1",
        "-0x1.708527183f424p-1",
        "-0x1.7d8e90a6a6254p-2",
        "0x1.cd07c583de2b4p-1",
    ],
    "snp array 1.5,0.99": [
        "0x1.a901b7498c5aep-6",
        "0x1.0670d81df42dap-1",
        "0x1.fc93cf7696d31p-1",
        "0x1.fff9c48f00b22p-1",
        "0x1.ffffdadf96b59p-1",
    ],
    "snp array 2.5,0.0": [
        "-0x1.914fee30901e5p-2",
        "0x1.0e91a08aeac26p-4",
        "0x1.eb0a76da967d5p-2",
        "0x1.d4e3a957375bep-1",
        "0x1.fffe5c45e64ddp-1",
        "0x1.ac8ece6ca88c8p-1",
        "-0x1.7bc86b33a17abp-1",
        "-0x1.914fee30901ddp-2",
        "0x1.d4e3a957375c0p-1",
    ],
    "snp both ends 1.5,0.99": [
        "0x0.0p+0",
        "0x1.efd9adf7f46cap-1",
        "0x1.0000000000000p+0",
        "0x1.ff66c3cc4b54cp-1",
        "0x0.0p+0",
        "-0x1.0000000000000p+0",
    ],
    "snp both ends 2.0,0.5": [
        "0x0.0p+0",
        "0x1.eb7ca1c2f5004p-2",
        "0x1.0000000000000p+0",
        "0x1.ceb11bccaf9f8p-1",
        "0x0.0p+0",
        "-0x1.0000000000000p+0",
    ],
    "snp both ends 2.5,0.0": [
        "0x0.0p+0",
        "0x1.914fee30901e7p-2",
        "0x1.0000000000000p+0",
        "0x1.ac8ece6ca88c8p-1",
        "0x0.0p+0",
        "-0x1.0000000000000p+0",
    ],
    "snp endpoints 1.5,0.99": [
        "0x0.0p+0",
        "0x1.0000000000000p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p+0",
    ],
    "snp endpoints 2.0,0.5": [
        "0x0.0p+0",
        "0x1.0000000000000p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p+0",
    ],
    "snp endpoints 2.5,0.0": [
        "0x0.0p+0",
        "0x1.0000000000000p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p+0",
    ],
    "snp first pass 1.5,0.99": [
        "0x1.83370056a6155p-1",
        "0x1.fafde8fd54ddcp-1",
        "0x1.ffbd0484a3c90p-1",
        "0x1.f8ae538314c1dp-1",
        "-0x1.efd9adf7f46cap-1",
    ],
    "snp first pass 2.0,0.5": [
        "0x1.573550c6cff67p-3",
        "0x1.5a28b3ccbcfe1p-1",
        "0x1.e30efac8f8dd9p-1",
        "0x1.3affb8b93461ap-1",
        "-0x1.eb7ca1c2f5008p-2",
    ],
    "snp first pass 2.5,0.0": [
        "0x1.0e684371af5cap-3",
        "0x1.26eb67a0b3aedp-1",
        "0x1.c9cf09b150c5fp-1",
        "0x1.084fb5de0d1c5p-1",
        "-0x1.914fee30901edp-2",
    ],
    "snp_deriv array 1.5,0.99": [
        "0x1.fd2bd025b69d8p-1",
        "0x1.17e4f0361de83p-1",
        "0x1.0307f199fd2e4p-8",
        "0x1.b75e62247a0e2p-14",
        "0x1.1da0c39c569edp-17",
    ],
    "snp_deriv array 2.5,0.0": [
        "-0x1.ebb58566671f3p-1",
        "0x1.ffc52e93396c2p-1",
        "0x1.ddaebbcfce4ffp-1",
        "0x1.0b8cf5aa1ef24p-1",
        "0x1.028321c17af7ep-6",
        "-0x1.53df08def6626p-1",
        "-0x1.8c026f5cab109p-1",
        "0x1.ebb58566671f4p-1",
        "-0x1.0b8cf5aa1ef20p-1",
    ],
    "snp_deriv endpoints 1.5,0.99": [
        "0x1.0000000000000p+0",
        "-0x0.0p+0",
        "-0x1.0000000000000p+0",
        "0x1.0000000000000p+0",
        "0x0.0p+0",
    ],
    "snp_deriv endpoints 2.0,0.5": [
        "0x1.0000000000000p+0",
        "0x0.0p+0",
        "-0x1.0000000000000p+0",
        "0x1.0000000000000p+0",
        "-0x0.0p+0",
    ],
    "snp_deriv endpoints 2.5,0.0": [
        "0x1.0000000000000p+0",
        "-0x0.0p+0",
        "-0x1.0000000000000p+0",
        "0x1.0000000000000p+0",
        "0x0.0p+0",
    ],
    "snp_deriv_many 1.5,0.999999": [
        "-0x1.bfbcc218fbe95p-23",
        "0x1.ab7954ee15c4ep-13",
        "0x1.85b6a417122dap-24",
        "0x1.31049ef029e97p-29",
        "0x1.de63e27c0f876p-45",
        "-0x1.7ccc0bb1336c4p-28",
        "-0x1.9fa404043c64fp-27",
        "0x1.bfbcc218fbe95p-23",
        "-0x1.31049ef029e97p-29",
    ],
    "snp_deriv_many 2.0,0.5": [
        "-0x1.b40b5c424a8a5p-1",
        "0x1.fdbb4377e51b1p-1",
        "0x1.909b87999652ap-1",
        "0x1.03f8edb87ee58p-2",
        "0x1.4b6e9a805ecfap-10",
        "-0x1.87245138d1760p-2",
        "-0x1.04f10434aac74p-1",
        "0x1.b40b5c424a8aap-1",
        "-0x1.03f8edb87ee4cp-2",
    ],
    "snp_deriv_many 2.5,0.9999999999999999": [
        "-0x1.4054e5c351110p-1",
        "0x1.fd2dddb762bb0p-1",
        "0x1.d79b1b84cd29ap-2",
        "0x1.7132e5bc108d0p-8",
        "0x1.0a25db8c7915dp-36",
        "-0x1.d0029906efda8p-6",
        "-0x1.68ad516a98061p-4",
        "0x1.4054e5c351119p-1",
        "-0x1.7132e5bc108d0p-8",
    ],
    "snp_deriv_many 3.5,0.9": [
        "-0x1.f822f340422e0p-1",
        "0x1.fffc2c5fafe1cp-1",
        "0x1.efb7d9d7f2cf3p-1",
        "0x1.2f4eb1a9ac2bcp-1",
        "0x1.fcc4e1413627dp-5",
        "-0x1.75e0555acad05p-1",
        "-0x1.abffa6f6b02e3p-1",
        "0x1.f822f340422e1p-1",
        "-0x1.2f4eb1a9ac2b5p-1",
    ],
    "snp_many 1.5,0.999999": [
        "-0x1.ffff35dee088fp-1",
        "0x1.ff6af502c6490p-1",
        "0x1.ffff9aa165684p-1",
        "0x1.fffffe81daf84p-1",
        "0x1.fffffffffffcfp-1",
        "0x1.fffffab063863p-1",
        "-0x1.fffff1fffe968p-1",
        "-0x1.ffff35dee088fp-1",
        "0x1.fffffe81daf84p-1",
    ],
    "snp_many 2.0,0.5": [
        "-0x1.eb7ca1c2f5008p-2",
        "0x1.58bb39ab4bff0p-4",
        "0x1.272790543d497p-1",
        "0x1.ea20fcc4690afp-1",
        "0x1.ffffdc3e11792p-1",
        "0x1.ceb11bccaf9f7p-1",
        "-0x1.a833d3eb7edc0p-1",
        "-0x1.eb7ca1c2f4ffap-2",
        "0x1.ea20fcc4690b1p-1",
    ],
    "snp_many 2.5,0.9999999999999999": [
        "-0x1.71dfc55e017e1p-1",
        "0x1.1785d669c3db9p-3",
        "0x1.a70d6f10150eap-1",
        "0x1.ffaf0b6194318p-1",
        "0x1.fffffffffff95p-1",
        "0x1.fd9cbddaa1346p-1",
        "-0x1.f607f83b09271p-1",
        "-0x1.71dfc55e017dbp-1",
        "0x1.ffaf0b6194318p-1",
    ],
    "snp_many 3.5,0.9": [
        "-0x1.7d8e90a6a6264p-2",
        "0x1.fe7c632618c85p-5",
        "0x1.d4d91c0e38628p-2",
        "0x1.cd07c583de2b1p-1",
        "0x1.fff8c0f642054p-1",
        "0x1.a2a8a9647038cp-1",
        "-0x1.708527183f424p-1",
        "-0x1.7d8e90a6a6254p-2",
        "0x1.cd07c583de2b4p-1",
    ],
    "snp_second_deriv array 1.5,0.99": [
        "-0x1.451fbc699d12dp-2",
        "-0x1.560d6b69155c0p-1",
        "-0x1.1cd96426d3280p-9",
        "-0x1.442a2e988fba5p-13",
        "-0x1.6e477dab93e03p-15",
    ],
    "snp_second_deriv array 2.5,0.0": [
        "0x1.005ccc3e1cea3p-2",
        "-0x1.16394750328c3p-6",
        "-0x1.600a312a620ecp-2",
        "-0x1.365d65c67f18ep+0",
        "-0x1.fd7f1dab96a83p+2",
        "-0x1.e13c173746c5ap-1",
        "0x1.73ebaed6fea81p-1",
        "0x1.005ccc3e1ce9cp-2",
        "-0x1.365d65c67f192p+0",
    ],
    "snp_second_deriv_many 1.5,0.999999": [
        "0x1.330f8bc31e853p-27",
        "-0x1.9863269c327d1p-15",
        "-0x1.b5509d7e59392p-29",
        "-0x1.526fa38b9e94ap-34",
        "-0x1.85367dda7c831p-42",
        "-0x1.43459fd4f4e60p-33",
        "0x1.4cc33765a1362p-32",
        "0x1.330f8bc31e853p-27",
        "-0x1.526fa38b9e94ap-34",
    ],
    "snp_second_deriv_many 2.0,0.5": [
        "0x1.16df9ab0e49edp-1",
        "-0x1.adb178e89c480p-4",
        "-0x1.3fe667615d257p-1",
        "-0x1.841619f3e1de2p-1",
        "-0x1.800008f077e2cp-1",
        "-0x1.856ec9a3b98c7p-1",
        "0x1.80a831d9fce70p-1",
        "0x1.16df9ab0e49e7p-1",
        "-0x1.841619f3e1de2p-1",
    ],
    "snp_second_deriv_many 2.5,0.9999999999999999": [
        "0x1.ba4e75a52fe18p-1",
        "-0x1.9b5bfe905088fp-4",
        "-0x1.adfa4382218f5p-1",
        "-0x1.509757c9e873fp-5",
        "-0x1.07939feecfe26p-26",
        "-0x1.18cc87e4ae406p-3",
        "0x1.416ebcee76926p-2",
        "0x1.ba4e75a52fe17p-1",
        "-0x1.509757c9e873fp-5",
    ],
    "snp_second_deriv_many 3.5,0.9": [
        "0x1.24bf9338693f8p-3",
        "-0x1.add9a61505f07p-10",
        "-0x1.e870226e67785p-3",
        "-0x1.3cc8ccd42b5bdp+0",
        "-0x1.3f0eb0b5f127ep+4",
        "-0x1.f3f0b912d3394p-1",
        "0x1.713a2c83ff884p-1",
        "0x1.24bf9338693d9p-3",
        "-0x1.3cc8ccd42b5c4p+0",
    ],
    "snp_value 1.5,0.99": [
        "-0x1.ffd454799f218p-1",
        "-0x1.8000000000000p+1",
        "0x0.0p+0",
        "-0x1.0000000000000p+0",
        "-0x1.fc93cf7696d31p-1",
        "-0x1.0000000000000p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "-0x1.03cb5d21a0d96p-3",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p+0",
        "0x1.ffd454799f218p-1",
        "0x1.0000000000000p+1",
    ],
    "snp_value 2.0,0.5": [
        "-0x1.ea20fcc4690b5p-1",
        "-0x1.8000000000000p+1",
        "0x0.0p+0",
        "-0x1.0000000000000p+0",
        "-0x1.76cf5d0b09954p-1",
        "-0x1.0000000000000p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "-0x1.142d4f0ca1ad6p-6",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p+0",
        "0x1.ea20fcc4690b1p-1",
        "0x1.0000000000000p+1",
    ],
    "snp_value 2.5,0.0": [
        "-0x1.d4e3a957375bcp-1",
        "-0x1.8000000000000p+1",
        "0x0.0p+0",
        "-0x1.0000000000000p+0",
        "-0x1.447dce23965efp-1",
        "-0x1.0000000000000p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "-0x1.b0f6f5cb87fb8p-7",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p+0",
        "0x1.d4e3a957375c0p-1",
        "0x1.0000000000000p+1",
    ],
    "tau_k 1..201 1.5,0.9": [
        "0x1.b2eb20524786ep-1",
        "0x1.ce831db917399p-55",
        "0x1.84a6314ea533cp-3",
        "0x1.e74403d96137fp-55",
        "0x1.17769a59cfd8dp-4",
        "0x1.69e14563f9338p-56",
        "0x1.f32f5c0b5eebap-6",
        "0x1.1380b63082cc2p-56",
        "0x1.e5aafc3946ff3p-7",
        "0x1.be6766ee8aa9cp-58",
        "0x1.048a387f9c9dcp-7",
        "0x1.3c3a74356a3c8p-54",
        "0x1.266e0af837c56p-8",
        "-0x1.09bdddc007df9p-57",
        "0x1.6463d4b687b99p-9",
        "0x1.9c55fafd79c3cp-57",
        "0x1.bf9d9de5e5982p-10",
        "0x1.55b6f51be17a4p-57",
        "0x1.289b6e928ca1bp-10",
        "0x1.06f3d7c357f24p-55",
        "0x1.938a17e6ad2aap-11",
        "0x1.2d65e987646a1p-54",
        "0x1.1e9e8440ffd91p-11",
        "0x1.989c526caea78p-57",
        "0x1.9e814698d6533p-12",
        "0x1.abc72392cd83bp-57",
        "0x1.36753b3e2c95ap-12",
        "0x1.43f2fb0ab0fdap-55",
        "0x1.d6762927e7e47p-13",
        "0x1.41d327ce004b6p-54",
        "0x1.6f0372eb68f05p-13",
        "0x1.a970796639b05p-56",
        "0x1.204b52e2dbe56p-13",
        "-0x1.3a8884886ed3ap-56",
        "0x1.d03bcf561925ap-14",
        "-0x1.e3000ae25382cp-56",
        "0x1.771a9709484bap-14",
        "-0x1.9e97d8a59088cp-55",
        "0x1.359e047eb8931p-14",
        "-0x1.dba91e217e434p-58",
        "0x1.ffb9dce59c0b9p-15",
        "-0x1.17786bbc996c7p-57",
        "0x1.aee602313c26ap-15",
        "0x1.7d5aade94b976p-54",
        "0x1.6aa4bd5342d2cp-15",
        "0x1.270893be7c480p-54",
        "0x1.366080981cc80p-15",
        "0x1.5d2a32594bc9ep-56",
        "0x1.092ca086120b6p-15",
        "-0x1.a2f2ec3ca5c0bp-61",
        "0x1.cc16127b9b49fp-16",
        "-0x1.e9d67140dfd69p-57",
        "0x1.8e11dc01418b5p-16",
        "-0x1.5f80a8fe06e9fp-55",
        "0x1.5d489d08ca39bp-16",
        "-0x1.9e051292a40d0p-56",
        "0x1.31755da7ff034p-16",
        "0x1.78307e8206cc2p-57",
        "0x1.0ea2f18acdf10p-16",
        "-0x1.21f567b630c48p-56",
        "0x1.ddbd92ff982b6p-17",
        "-0x1.16c33cfcd45bap-57",
        "0x1.aad68d5131c48p-17",
        "-0x1.5b25a3d0cb5d9p-55",
        "0x1.7bc43086081b2p-17",
        "0x1.fbd1bf475a928p-58",
        "0x1.55c9c72bed62ap-17",
        "0x1.e046f94efc2b5p-59",
        "0x1.323d342ade849p-17",
        "0x1.ebe5f667c9924p-56",
        "0x1.1563558cd3e6bp-17",
        "0x1.a659d4080469ap-57",
        "0x1.f42bcbe1ef8d3p-18",
        "-0x1.1e9e84e7c0fbdp-57",
        "0x1.c7a1ea7afeb34p-18",
        "0x1.a0296ac145499p-56",
        "0x1.9d1094951daadp-18",
        "0x1.49bea18d5fc3ep-58",
        "0x1.7a3235a8a03efp-18",
        "-0x1.f68cb38b4efb4p-59",
        "0x1.589150bd14e4cp-18",
        "-0x1.25004f94e7101p-55",
        "0x1.3cebc2c050d91p-18",
        "-0x1.500961f7976cbp-57",
        "0x1.2208fb0642c04p-18",
        "0x1.ac187ca8520e3p-55",
        "0x1.0bdcd4a525166p-18",
        "0x1.35bcd2526dd0dp-54",
        "0x1.ec44c048fb192p-19",
        "0x1.6ea1ff3d81f5fp-56",
        "0x1.c8559c7f28441p-19",
        "-0x1.620e4e2205860p-61",
        "0x1.a4de5244357a3p-19",
        "0x1.803694893e1b7p-55",
        "0x1.877979ca2b7fap-19",
        "-0x1.770da014712d0p-55",
        "0x1.6a4537958b1c6p-19",
        "-0x1.46c674335064bp-55",
        "0x1.5204c8a3319d4p-19",
        "0x1.8a46ebeb2b198p-56",
        "0x1.39c602714b409p-19",
        "-0x1.039b60980599bp-56",
        "0x1.259b229aa00dap-19",
        "0x1.5ff44871b8fa0p-55",
        "0x1.11537152e7d79p-19",
        "-0x1.fce6b292d3acfp-57",
        "0x1.006ec2aee3c60p-19",
        "-0x1.fc0951fe699d8p-57",
        "0x1.deb3ed529d6c6p-20",
        "0x1.2b382be56c9a5p-58",
        "0x1.c236095d54636p-20",
        "0x1.65f860bb3c3f6p-57",
        "0x1.a54090af9567ep-20",
        "0x1.acf84bd5e736cp-57",
        "0x1.8d13645d5fc97p-20",
        "0x1.21bdfddeb7905p-60",
        "0x1.7461acf5d32e5p-20",
        "-0x1.699374063b37ep-58",
        "0x1.5fbf7ef1b316ep-20",
        "-0x1.283ad2a2f3089p-54",
        "0x1.4a92dde8a113fp-20",
        "-0x1.14e6290f88d11p-55",
        "0x1.38de74757611cp-20",
        "-0x1.690548cd92394p-56",
        "0x1.269e7114f29c4p-20",
        "-0x1.d89ad5cd23657p-58",
        "0x1.1759caa3a8eb2p-20",
        "0x1.9d3fd0987edeep-57",
        "0x1.078b8b73e0d8dp-20",
        "0x1.55a7dd4e9a51ep-57",
        "0x1.f4a1dba555961p-21",
        "0x1.4d0de00877b63p-56",
        "0x1.d921888d625cap-21",
        "0x1.c33488980b748p-55",
        "0x1.c21afd4a83176p-21",
        "0x1.1608026794814p-57",
        "0x1.aa13ff3c21118p-21",
        "0x1.99710bd37cbabp-56",
        "0x1.95f4d794dfff3p-21",
        "0x1.9d6628671d900p-56",
        "0x1.80e15a8c9fd8ap-21",
        "0x1.ba73d42658d65p-59",
        "0x1.6f3a3b1f64a02p-21",
        "0x1.390ca2a9c7ddap-56",
        "0x1.5cab9e05e185ap-21",
        "0x1.b464fd3461bfap-56",
        "0x1.4d205a5d8f566p-21",
        "-0x1.a9d1437e068b8p-57",
        "0x1.3cbaa8cb4cb44p-21",
        "0x1.0e0e7d755ab74p-56",
        "0x1.2efe8c9080d3dp-21",
        "0x1.830213f203483p-54",
        "0x1.2074f249ac2b2p-21",
        "0x1.424be634456eep-56",
        "0x1.1447d5d4865b6p-21",
        "0x1.85938a07f94f6p-54",
        "0x1.0759d142545e4p-21",
        "0x1.21d841c76a9f7p-58",
        "0x1.f90b943ef8533p-22",
        "-0x1.173f77b4a09ddp-58",
        "0x1.e1f9e3eb11a3bp-22",
        "-0x1.a1f7f79b9352bp-58",
        "0x1.cea8f7bd7573cp-22",
        "-0x1.ad5d03c7f1b28p-57",
        "0x1.ba056dec0a0eap-22",
        "0x1.40db77a0e0c77p-56",
        "0x1.a8be74ef87055p-22",
        "0x1.1acf6776f0ce3p-57",
        "0x1.963aa1c4293fbp-22",
        "0x1.ded5b06a36a06p-57",
        "0x1.86bbe6adf8918p-22",
        "0x1.26bce0dc61273p-57",
        "0x1.7614cb2d8ea3cp-22",
        "0x1.b02a436edbe9ep-55",
        "0x1.682625c8da81dp-22",
        "0x1.518de0d134171p-57",
        "0x1.5922513d26e97p-22",
        "-0x1.9118e6b6eb3e9p-62",
        "0x1.4c93956f3fe3ap-22",
        "-0x1.1c75dc33af95fp-58",
        "0x1.3f019b0cc7b58p-22",
        "0x1.106c885769580p-55",
        "0x1.33a950c207753p-22",
        "0x1.457440b715255p-58",
        "0x1.275e83e4b65c8p-22",
        "-0x1.c5fedb9055163p-55",
        "0x1.1d18d96af345ep-22",
        "-0x1.0fd0b9b1646c2p-54",
        "0x1.11f04291cd582p-22",
        "0x1.c0d81f89ae9dcp-57",
        "0x1.089e2df7511f6p-22",
        "0x1.0ad086707c8d6p-55",
        "0x1.fcef5b3264527p-23",
        "0x1.131135438421bp-58",
        "0x1.ebfc68336803bp-23",
        "0x1.4e9ae7ce2fe7fp-55",
        "0x1.d97b95677c746p-23",
        "-0x1.b09b4717774f4p-59",
        "0x1.ca0ace1f8a61ap-23",
        "-0x1.1036d321762f3p-57",
        "0x1.b92537185a3efp-23",
    ],
    "tau_k 1..201 2.0,0.5": [
        "0x1.706d28e637b40p-1",
        "0x1.97de315ab0460p-59",
        "0x1.a0298aa1ceca7p-7",
        "0x1.194cc3fe9a6c5p-57",
        "0x1.deae429c345f0p-13",
        "0x1.0cc01bae2d0c5p-56",
        "0x1.134c0fbcc0a78p-18",
        "0x1.d0062efa1bd05p-57",
        "0x1.3ca7e0136d85dp-24",
        "0x1.70ef40ead1f9ep-56",
        "0x1.6c3a53c343fdap-30",
        "-0x1.671cb2c023c97p-56",
        "0x1.a2f253c678ddep-36",
        "0x1.6832fa00735dfp-58",
        "0x1.e1e2c83ab796ep-42",
        "0x1.04fd57b4e5708p-62",
        "0x1.1584110164ea8p-47",
        "0x1.1571fe9510ee7p-57",
        "0x1.238350707c6e8p-53",
        "0x1.4307894a492d0p-56",
        "0x1.b702ea1a92450p-62",
        "0x1.373e718b48a13p-55",
        "0x1.81ce1bec38792p-57",
        "0x1.c608e5694ebd9p-57",
        "0x1.9edda2591c252p-58",
        "-0x1.d8ad9b56a078dp-59",
        "-0x1.99be7418ccc90p-62",
        "-0x1.2b871f1cf497ep-56",
        "-0x1.7589c337b646bp-57",
        "-0x1.e5d7fb3d514c9p-60",
        "-0x1.73be56bfca4f2p-58",
        "-0x1.03c4ee97760aap-57",
        "0x1.57f9b3a4d1bbap-58",
        "-0x1.4cd773b2ad555p-59",
        "0x1.591aa6aae338cp-56",
        "0x1.4ed4f481a29d1p-57",
        "-0x1.c6bb94bc63452p-57",
        "-0x1.140197add34c1p-57",
        "-0x1.334ed7129996cp-62",
        "0x1.a160d7efd46d2p-59",
        "0x1.2f8f708c2114fp-59",
        "-0x1.9de8d6f3ac1c1p-56",
        "-0x1.b38078f9fca2bp-57",
        "0x1.ef5c7d072aba8p-56",
        "0x1.972edcf8a51afp-58",
        "0x1.ebea7898a3138p-57",
        "-0x1.4d763b142ed49p-58",
        "0x1.18702c56ab45fp-57",
        "-0x1.3eacdbc349b81p-57",
        "0x1.f0f60b8db2e23p-57",
        "0x1.213b24c636339p-58",
        "-0x1.c242174162843p-58",
        "-0x1.f419a8de44cfep-59",
        "0x1.d0a5ea3a44045p-56",
        "0x1.233e8031a0b00p-58",
        "-0x1.8f465d0079a9ap-58",
        "0x1.7606b18e3790dp-57",
        "0x1.4cd70bfa52677p-55",
        "-0x1.01d3805fe050fp-58",
        "0x1.8086557be8d93p-59",
        "-0x1.3f45d81a24d09p-59",
        "0x1.00a88207c4693p-56",
        "0x1.726a75866b6a4p-58",
        "-0x1.6ebde50acf014p-59",
        "0x1.bc1e7e34ba06fp-58",
        "0x1.d01bdfa7e55b7p-57",
        "-0x1.ef5cb2909bdffp-63",
        "0x1.c47feb361f9a6p-59",
        "-0x1.de7fa0f8177eep-59",
        "-0x1.18b88a37f887bp-55",
        "-0x1.7c36638f7696dp-58",
        "0x1.1759bf7343e6fp-59",
        "0x1.6659be4d5c4e1p-58",
        "-0x1.2e78db8c06dd2p-58",
        "0x1.397441c62c055p-58",
        "-0x1.afc91a31ec9d8p-55",
        "0x1.5b37d51503fa2p-60",
        "-0x1.2601bfc37b279p-56",
        "-0x1.72852218db34fp-58",
        "0x1.9be41e892db65p-56",
        "-0x1.707c2a2f310dap-59",
        "-0x1.8b4221d593487p-57",
        "0x1.652d14620d4ebp-58",
        "0x1.e52a84c457c25p-56",
        "-0x1.3678afdff7c81p-59",
        "0x1.e342d0feb3f9dp-56",
        "-0x1.123161000b3ecp-58",
        "0x1.8da81067019aep-55",
        "-0x1.28d7640fe627dp-59",
        "-0x1.2ff593be328f8p-56",
        "-0x1.4bca9267c62d5p-60",
        "0x1.e8a53fcd332dcp-55",
        "-0x1.b38f3a1f01f22p-58",
        "-0x1.1f7eb1fcc09e8p-55",
        "0x1.e05ef1e0716e5p-62",
        "-0x1.a3bc782c5fed6p-58",
        "0x1.0fc3fd5f8aa12p-57",
        "-0x1.5ac4401c343ecp-57",
        "0x1.e43e2c1d4f1c0p-63",
        "0x1.2d7cbf27413d9p-57",
        "-0x1.1e3f423be6455p-57",
        "-0x1.486ba4e0e972bp-60",
        "0x1.8dbf5ce4587f9p-59",
        "-0x1.a679a40ac83ffp-57",
        "-0x1.82547c1761ff5p-64",
        "0x1.3bbb8bf6f0a08p-58",
        "0x1.f62861625b1f4p-58",
        "-0x1.359126cdd2d70p-59",
        "-0x1.ab214011a1ce1p-62",
        "-0x1.47e4f5feaf4ebp-59",
        "-0x1.0ce4fc304663ep-59",
        "0x1.eee4cd837d036p-57",
        "-0x1.8592f4542e50ap-60",
        "0x1.1e04d580c03b5p-55",
        "0x1.39a7906249d6cp-60",
        "-0x1.be6895db46005p-56",
        "-0x1.0d630f67b07b9p-57",
        "0x1.49d8ae1f31349p-57",
        "0x1.33f41d70c1b5cp-60",
        "0x1.7a01f18a32121p-58",
        "0x1.22cf42a66b68cp-57",
        "-0x1.0578e0c543e67p-55",
        "-0x1.9087ed638f348p-58",
        "0x1.9217c52560977p-58",
        "-0x1.551ca1ee3ef6bp-58",
        "0x1.2c1dcbe995277p-56",
        "-0x1.49635ef776c41p-60",
        "0x1.a2ea5d1f1ddf8p-57",
        "0x1.233a57b9d0106p-57",
        "-0x1.ca9a05c2ef37ep-57",
        "-0x1.5fe11d59b1d1cp-63",
        "-0x1.02a4d3e9b147dp-56",
        "0x1.2f96e0ebd93bfp-57",
        "0x1.be94a1ca246d0p-57",
        "-0x1.c80db648efa9ep-58",
        "0x1.053be44f02398p-56",
        "0x1.7943f0e8b3e91p-58",
        "0x1.0054ab47e968ep-56",
        "0x1.2686c8b7a3a95p-58",
        "0x1.83d44ac4eedd9p-55",
        "-0x1.be0bcb92ff44ep-58",
        "-0x1.d82de16d12892p-56",
        "-0x1.1bab3caeb528bp-60",
        "0x1.287f4a9044644p-58",
        "0x1.b38791e9cf145p-60",
        "-0x1.0c5e0c5c98322p-56",
        "0x1.2ca4f7a232571p-58",
        "-0x1.285a9a43bf4dbp-57",
        "0x1.a3326af694843p-61",
        "-0x1.e4429d28a442ap-57",
        "0x1.3d7bd5b7aa8adp-63",
        "0x1.c74bae5cf0411p-57",
        "0x1.6f907ebbe4e17p-61",
        "0x1.c505398e1732bp-57",
        "-0x1.79b10012bb1d3p-60",
        "-0x1.061cc2a0d9d07p-58",
        "0x1.b28991f32ab49p-62",
        "-0x1.c88cc660049b7p-55",
        "-0x1.95e0e21890e41p-59",
        "0x1.97e692ade558bp-60",
        "0x1.bea578314b5a5p-61",
        "-0x1.13073407163c5p-55",
        "0x1.042cc2a6852c6p-61",
        "-0x1.1971ae38cb669p-54",
        "0x1.65984015a4c21p-63",
        "0x1.1d957de939625p-58",
        "-0x1.f239b03baa0f8p-60",
        "-0x1.a51b33b3be965p-56",
        "-0x1.57acffac47c9ep-60",
        "-0x1.2479c1619f249p-58",
        "0x1.514c25e2bb1a8p-58",
        "0x1.27b5f876f7307p-55",
        "0x1.9faa44f1345e7p-61",
        "0x1.40af622587603p-55",
        "-0x1.0ff7b18a0f9b4p-58",
        "-0x1.5c1065800df02p-56",
        "0x1.816fe6b3883aep-58",
        "-0x1.ad8497672d2adp-56",
        "0x1.2b5e24d2a7dafp-59",
        "0x1.73467d9f6b545p-59",
        "-0x1.45aa71e32e417p-57",
        "-0x1.68bcc5585d8d4p-57",
        "0x1.44f0bda4743cdp-61",
        "0x1.02d9cf2f9f19ap-59",
        "-0x1.61d1c731173c2p-60",
        "-0x1.c6f2bffde5a80p-58",
        "0x1.0198acc08845ep-58",
        "0x1.d899da9cf0e2ep-54",
        "0x1.24ac9c11b6d8bp-60",
        "0x1.f41774cb8ecfdp-57",
        "-0x1.15170bb9b1458p-57",
        "0x1.752dc342d108fp-58",
        "-0x1.9f95104794039p-61",
        "-0x1.0a27f866609d9p-56",
        "-0x1.3d5ac57d0ddf3p-58",
        "-0x1.086e5141a671fp-56",
        "0x1.42d590847e773p-57",
        "0x1.0e9bf184151efp-55",
        "0x1.88a0deaf3dcc8p-58",
        "0x1.29bd1af6459f8p-56",
        "-0x1.9b14ed12ac055p-61",
    ],
    "tau_k 2.0,0.5": [
        "0x1.706d28e637b40p-1",
        "0x1.97de315ab0460p-59",
        "0x1.a0298aa1ceca7p-7",
        "0x1.194cc3fe9a6c5p-57",
        "0x1.deae429c345f0p-13",
        "0x1.0cc01bae2d0c5p-56",
        "0x1.134c0fbcc0a78p-18",
        "0x1.d0062efa1bd05p-57",
        "0x1.3ca7e0136d85dp-24",
        "0x1.70ef40ead1f9ep-56",
        "0x1.6c3a53c343fdap-30",
        "-0x1.671cb2c023c97p-56",
        "0x1.a2f253c678ddep-36",
        "0x1.6832fa00735dfp-58",
        "0x1.e1e2c83ab796ep-42",
        "0x1.04fd57b4e5708p-62",
        "0x1.1584110164ea8p-47",
        "0x1.1571fe9510ee7p-57",
        "0x1.238350707c6e8p-53",
        "0x1.4307894a492d0p-56",
        "0x1.b702ea1a92450p-62",
    ],
    "tau_k 3.5,0.9": [
        "0x1.4d7eb8ca88c7bp-1",
        "0x1.01586eb04079dp-56",
        "-0x1.32d30a41f0e74p-5",
        "0x1.741f61ccf5cabp-56",
        "0x1.db371383b6a37p-8",
        "-0x1.5b0e96bad88cdp-57",
        "-0x1.c14632b5ee649p-9",
        "0x1.3deaf52d86387p-64",
        "0x1.f9b1d0e517d23p-10",
        "0x1.57db7d87364c6p-59",
        "-0x1.4262b6d47c424p-10",
        "-0x1.1e623bf06bec5p-55",
        "0x1.b5fe716ecd6bbp-11",
        "0x1.b94f5c19a2303p-57",
        "-0x1.3b09386e9b26ep-11",
        "-0x1.665aafdfbbc10p-56",
        "0x1.d6284d9599114p-12",
        "0x1.4ee1be3eaa5ccp-57",
        "-0x1.6ab4b14e2d627p-12",
        "-0x1.00bbd745a69c1p-56",
        "0x1.1e902d30e7b59p-12",
    ],
    "wp 1.5,0.999999": [
        "0x1.a961102f7b774p-1",
        "0x1.a961102f7b776p-1",
    ],
    "wp 2.0,0.5": [
        "0x1.4eef3f179a458p-1",
        "0x1.4eef3f179a459p-1",
    ],
    "wp 2.5,0.9999999999999999": [
        "0x1.4a4fd757bbe7ep-1",
        "0x1.4a4fd757bbe7fp-1",
    ],
    "wp 3.5,0.9": [
        "0x1.391b830dafdc9p-1",
        "0x1.391b830dafdcap-1",
    ],
}


@functools.lru_cache(maxsize=None)
def _computed() -> dict:
    return compute()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bits_unchanged(name):
    assert [v.hex() for v in _computed()[name]] == EXPECTED[name]


def test_every_pin_is_computed():
    assert set(_computed()) == set(EXPECTED)


# the seeded grid on which a float call must have an array call's bits:
# p from 1.05 to 50, these moduli, and at each (p, mu) the y of
# _grid_ys, 10,080 (p, mu, y) in all
GRID_SEED = 20261019
GRID_P = 20
GRID_MUS = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-12]
GRID_SEEDED_YS = 73


def _fold_limit(K: float) -> float:
    """The smallest positive y with ulp(y) >= K, which the fold refuses;
    the double below it is the largest that the fold accepts."""
    m = 0
    while 2.0 ** (m + 1) < K:
        m += 1
    return 2.0 ** (53 + m)


def _grid_ys(K: float, rng) -> np.ndarray:
    """0, -0.0, +-K, 2K, 4K, the double below K, 1e-300 and -1e-300,
    the double below the fold limit and its negative, and seeded y:
    fractions of K over three periods either side of 0, and y within
    1e-9 K of K, of 2 K and of 0."""
    limit = math.nextafter(_fold_limit(K), 0.0)
    special = [0.0, -0.0, K, -K, 2.0 * K, 4.0 * K, math.nextafter(K, 0.0),
               1e-300, -1e-300, limit, -limit]
    n = GRID_SEEDED_YS - (GRID_SEEDED_YS // 4) * 3
    near = rng.uniform(-1e-9, 1e-9, (3, GRID_SEEDED_YS // 4)) * K
    seeded = [rng.uniform(-12.0, 12.0, n) * K, K + near[0], 2.0 * K + near[1], near[2]]
    return np.concatenate([special, *seeded])


def _hexes(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def test_float_and_array_calls_agree_bit_for_bit():
    # a float y gives a float, an array gives an array of its shape, and
    # each element has the bits of the float call at that y
    for fn in (el.snp, el.snp_deriv, el.snp_second_deriv):
        for p, mu in PAIRS:
            K = el.kp(p, mu)
            for f in FRACTIONS:
                y = f * K
                assert type(fn(p, mu, y)) is float
                grid = np.array([[y, -y], [y + 4.0 * K, 2.0 * K - y]])
                rows = fn(p, mu, grid)
                assert isinstance(rows, np.ndarray) and rows.shape == (2, 2)
                want = [[fn(p, mu, v).hex() for v in row] for row in grid.tolist()]
                assert [[v.hex() for v in row] for row in rows.tolist()] == want
    # and so over the seeded grid: the hex of snp, snp_deriv and
    # snp_second_deriv (off the singular margin for p > 2), of snp_value's
    # value and period, and of wp at z = |sn_p(y)| in (0, 1) against
    # wp_many on the array of those z.  Every hex holds the sign of a zero
    rng = np.random.default_rng(GRID_SEED)
    ps = np.concatenate(([1.05, 2.0, 50.0], np.exp(rng.uniform(
        math.log(1.05), math.log(50.0), GRID_P - 3))))
    count = 0
    for p in ps.tolist():
        for mu in GRID_MUS:
            K = el.kp(p, mu)
            ys = _grid_ys(K, rng)
            count += ys.size
            eng, u, _, _, period = el._fold(p, mu, ys)
            values = el.snp(p, mu, ys)
            points = [el.snp(p, mu, y) for y in ys.tolist()]
            assert _hexes(points) == _hexes(values), (p, mu)
            assert _hexes(el.snp_deriv(p, mu, ys)) == _hexes(
                [el.snp_deriv(p, mu, y) for y in ys.tolist()]), (p, mu)
            off = ys[~eng.singular(u)] if p > 2.0 else ys
            assert _hexes(el.snp_second_deriv(p, mu, off)) == _hexes(
                [el.snp_second_deriv(p, mu, y) for y in off.tolist()]), (p, mu)
            sv = [el.snp_value(p, mu, y) for y in ys.tolist()]
            assert _hexes([v.value for v in sv]) == _hexes(values), (p, mu)
            assert [v.branch_period_index for v in sv] == period.astype(int).tolist()
            z = np.abs(values)
            z = z[(z > 0.0) & (z < 1.0)]
            assert _hexes([el.wp(p, mu, v) for v in z.tolist()]) == _hexes(
                eng.wp_many(z)), (p, mu)
    assert count >= 10_000


def _failure(call) -> tuple:
    """The class and message of the DomainError that ``call`` raises."""
    with pytest.raises(DomainError) as info:
        call()
    return type(info.value), str(info.value)


def test_float_and_array_calls_fail_alike():
    # a y that a float call refuses is refused, with the same class and
    # message, in an array of one: NaN, +-inf, an int beyond the largest
    # double, a y past the fold's ulp limit, and for p > 2 the singular
    # point of sn_p''
    p, mu = 3.5, 0.9
    K = el.kp(p, mu)
    bad = [math.nan, math.inf, -math.inf, 10**400, -(10**400),
           _fold_limit(K), -_fold_limit(K)]
    for fn in (el.snp, el.snp_deriv, el.snp_second_deriv):
        for y in bad:
            point = _failure(lambda: fn(p, mu, y))
            assert point[0] is DomainError, (fn, y, point)
            assert _failure(lambda: fn(p, mu, np.array([y]))) == point, (fn, y)
            assert _failure(lambda: el.snp_value(p, mu, y)) == point, y
    for y in [K, -K, 3.0 * K, K + 1e-7]:
        point = _failure(lambda: el.snp_second_deriv(p, mu, y))
        assert point[0] is SingularPoint, (y, point)
        assert _failure(lambda: el.snp_second_deriv(p, mu, np.array([y]))) == point


if __name__ == "__main__":
    print("EXPECTED = {")
    for name, values in sorted(compute().items()):
        print(f'    "{name}": [')
        for v in values:
            print(f'        "{v.hex()}",')
        print("    ],")
    print("}")
