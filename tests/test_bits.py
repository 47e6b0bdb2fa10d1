"""Pinned float bits of the K_p, sn_p and tau_k chain.

Each value below is ``float.hex`` of what the library returned when the
literal was recorded.  Work on speed must leave every one of them bit for
bit; a change that moves a last digit on purpose updates the literal and
lists the moved values in CHANGES.md.
"""

import functools
import math

import numpy as np
import pytest

import pelliptic.elliptic as el
import pelliptic.fourier as fr

# (p, mu) pairs: p below and above 2, mu up to the last double below 1
PAIRS = [(2.0, 0.5), (3.5, 0.9), (1.5, 1.0 - 1e-6), (2.5, math.nextafter(1.0, 0.0))]
# y = f K_p: both signs, every quarter, next to K_p and past one period
FRACTIONS = [-1.7, 0.05, 0.37, 0.8, 0.999, 1.3, 2.6, 3.7, 9.2]
TAU_PAIRS = [(2.0, 0.5), (3.5, 0.9)]
# a 4 x 4 tile of K_p rows; p = 1.02 fails in the batch and goes through kp
TILE_P = [1.02, 1.5, 2.0, 5.0]
TILE_MU = [0.0, 0.3, 0.9, 0.999999]
QUAD_PAIRS = [(2.0, 0.5), (1.2, 1.0 - 1e-12), (6.0, 0.1)]


def compute() -> dict:
    """Every pinned value, as lists of floats keyed by name."""
    out = {}
    for p, mu in PAIRS:
        K = el.kp(p, mu)
        y = np.array(FRACTIONS) * K
        key = f"{p!r},{mu!r}"
        out[f"kp {key}"] = [K]
        out[f"snp_many {key}"] = el.snp_many(p, mu, y).tolist()
        out[f"snp_deriv_many {key}"] = el.snp_deriv_many(p, mu, y).tolist()
        second = el.snp_second_deriv_many(p, mu, y)
        out[f"snp_second_deriv_many {key}"] = second.tolist()
        out[f"snp {key}"] = [el.snp(p, mu, float(v)) for v in y]
        out[f"wp {key}"] = [el.wp(p, mu, 0.6), el.wp(p, mu, math.nextafter(0.6, 1.0))]
    for p, mu in TAU_PAIRS:
        out[f"tau_k {p!r},{mu!r}"] = fr.tau_k(p, mu, np.arange(1, 22)).tolist()
    P, M = np.meshgrid(TILE_P, TILE_MU, indexing="ij")
    out["_kp_rows"] = el._kp_rows(P.ravel(), M.ravel()).tolist()
    for p, mu in QUAD_PAIRS:
        r = el.kp_quadrature(p, mu)
        out[f"kp_quadrature {p!r},{mu!r}"] = [
            r.value, r.abs_error_estimate, float(r.nodes_used)
        ]
    return out


EXPECTED = {
    "_kp_rows": [
        "0x1.9040c9f347372p+5",
        "0x1.173940c4ea767p+6",
        "0x1.c12d6fe8e0678p+8",
        "0x1.b401093160174p+24",
        "0x1.358e1a79ed7e1p+1",
        "0x1.4f215e00de974p+1",
        "0x1.5c55312206fcfp+2",
        "0x1.334a98e504ccep+8",
        "0x1.921fb54442d18p+0",
        "0x1.9ba91308fabfap+0",
        "0x1.23e908bf39300p+1",
        "0x1.fca3823440a3fp+2",
        "0x1.11a7519c30c38p+0",
        "0x1.11ae22566b55ap+0",
        "0x1.1a3819dc846d0p+0",
        "0x1.2ca0b2642e5ccp+0",
    ],
    "kp 1.5,0.999999": [
        "0x1.334a98e504ccep+8",
    ],
    "kp 2.0,0.5": [
        "0x1.af8d55d323f79p+0",
    ],
    "kp 2.5,0.9999999999999999": [
        "0x1.5df4830e5ea92p+1",
    ],
    "kp 3.5,0.9": [
        "0x1.3f0e45a05a0a4p+0",
    ],
    "kp_quadrature 1.2,0.999999999999": [
        "0x1.d5f2c40b22c5dp+28",
        "0x1.0000000000000p-24",
        "0x1.8640000000000p+10",
    ],
    "kp_quadrature 2.0,0.5": [
        "0x1.af8d55d323f79p+0",
        "0x1.0000000000000p-52",
        "0x1.8600000000000p+7",
    ],
    "kp_quadrature 6.0,0.1": [
        "0x1.0c1523ffc6b84p+0",
        "0x1.0000000000000p-52",
        "0x1.8600000000000p+7",
    ],
    "snp 1.5,0.999999": [
        "-0x1.ffff35dee088fp-1",
        "0x1.ff6af502c6490p-1",
        "0x1.ffff9aa165684p-1",
        "0x1.fffffe81daf84p-1",
        "0x1.fffffffffffd2p-1",
        "0x1.fffffab063863p-1",
        "-0x1.fffff1fffe968p-1",
        "-0x1.ffff35dee088fp-1",
        "0x1.fffffe81daf84p-1",
    ],
    "snp 2.0,0.5": [
        "-0x1.eb7ca1c2f5008p-2",
        "0x1.58bb39ab4bfefp-4",
        "0x1.272790543d497p-1",
        "0x1.ea20fcc4690afp-1",
        "0x1.ffffdc3e11792p-1",
        "0x1.ceb11bccaf9f8p-1",
        "-0x1.a833d3eb7edbep-1",
        "-0x1.eb7ca1c2f4ff8p-2",
        "0x1.ea20fcc4690b0p-1",
    ],
    "snp 2.5,0.9999999999999999": [
        "-0x1.71dfc55e017dep-1",
        "0x1.1785d669c3dbap-3",
        "0x1.a70d6f10150e5p-1",
        "0x1.ffaf0b6194318p-1",
        "0x1.fffffffffff95p-1",
        "0x1.fd9cbddaa1346p-1",
        "-0x1.f607f83b09272p-1",
        "-0x1.71dfc55e017d7p-1",
        "0x1.ffaf0b6194318p-1",
    ],
    "snp 3.5,0.9": [
        "-0x1.7d8e90a6a6265p-2",
        "0x1.fe7c632618c85p-5",
        "0x1.d4d91c0e38628p-2",
        "0x1.cd07c583de2b2p-1",
        "0x1.fff8c0f642054p-1",
        "0x1.a2a8a9647038cp-1",
        "-0x1.708527183f424p-1",
        "-0x1.7d8e90a6a6255p-2",
        "0x1.cd07c583de2b5p-1",
    ],
    "snp_deriv_many 1.5,0.999999": [
        "-0x1.bfbcc218fbe95p-23",
        "0x1.ab7954ee15c4ep-13",
        "0x1.85b6a417122dap-24",
        "0x1.31049ef029e97p-29",
        "0x1.caa8bfb421f50p-45",
        "-0x1.7ccc0bb1336c4p-28",
        "-0x1.9fa404043c64fp-27",
        "0x1.bfbcc218fbe95p-23",
        "-0x1.31049ef029e97p-29",
    ],
    "snp_deriv_many 2.0,0.5": [
        "-0x1.b40b5c424a8a5p-1",
        "0x1.fdbb4377e51b2p-1",
        "0x1.909b87999652ap-1",
        "0x1.03f8edb87ee58p-2",
        "0x1.4b6e9a805ecfap-10",
        "-0x1.87245138d175bp-2",
        "-0x1.04f10434aac77p-1",
        "0x1.b40b5c424a8aap-1",
        "-0x1.03f8edb87ee52p-2",
    ],
    "snp_deriv_many 2.5,0.9999999999999999": [
        "-0x1.4054e5c351115p-1",
        "0x1.fd2dddb762bb0p-1",
        "0x1.d79b1b84cd2acp-2",
        "0x1.7132e5bc108d0p-8",
        "0x1.0a25db8c7915dp-36",
        "-0x1.d0029906efda8p-6",
        "-0x1.68ad516a98045p-4",
        "0x1.4054e5c35111ep-1",
        "-0x1.7132e5bc108d0p-8",
    ],
    "snp_deriv_many 3.5,0.9": [
        "-0x1.f822f340422e0p-1",
        "0x1.fffc2c5fafe1cp-1",
        "0x1.efb7d9d7f2cf3p-1",
        "0x1.2f4eb1a9ac2b9p-1",
        "0x1.fcc4e1413627dp-5",
        "-0x1.75e0555acad05p-1",
        "-0x1.abffa6f6b02e3p-1",
        "0x1.f822f340422e1p-1",
        "-0x1.2f4eb1a9ac2b3p-1",
    ],
    "snp_many 1.5,0.999999": [
        "-0x1.ffff35dee088fp-1",
        "0x1.ff6af502c6490p-1",
        "0x1.ffff9aa165684p-1",
        "0x1.fffffe81daf84p-1",
        "0x1.fffffffffffd2p-1",
        "0x1.fffffab063863p-1",
        "-0x1.fffff1fffe968p-1",
        "-0x1.ffff35dee088fp-1",
        "0x1.fffffe81daf84p-1",
    ],
    "snp_many 2.0,0.5": [
        "-0x1.eb7ca1c2f5008p-2",
        "0x1.58bb39ab4bfefp-4",
        "0x1.272790543d497p-1",
        "0x1.ea20fcc4690afp-1",
        "0x1.ffffdc3e11792p-1",
        "0x1.ceb11bccaf9f8p-1",
        "-0x1.a833d3eb7edbep-1",
        "-0x1.eb7ca1c2f4ff8p-2",
        "0x1.ea20fcc4690b0p-1",
    ],
    "snp_many 2.5,0.9999999999999999": [
        "-0x1.71dfc55e017dep-1",
        "0x1.1785d669c3dbap-3",
        "0x1.a70d6f10150e5p-1",
        "0x1.ffaf0b6194318p-1",
        "0x1.fffffffffff95p-1",
        "0x1.fd9cbddaa1346p-1",
        "-0x1.f607f83b09272p-1",
        "-0x1.71dfc55e017d7p-1",
        "0x1.ffaf0b6194318p-1",
    ],
    "snp_many 3.5,0.9": [
        "-0x1.7d8e90a6a6265p-2",
        "0x1.fe7c632618c85p-5",
        "0x1.d4d91c0e38628p-2",
        "0x1.cd07c583de2b2p-1",
        "0x1.fff8c0f642054p-1",
        "0x1.a2a8a9647038cp-1",
        "-0x1.708527183f424p-1",
        "-0x1.7d8e90a6a6255p-2",
        "0x1.cd07c583de2b5p-1",
    ],
    "snp_second_deriv_many 1.5,0.999999": [
        "0x1.330f8bc31e853p-27",
        "-0x1.9863269c327d1p-15",
        "-0x1.b5509d7e59392p-29",
        "-0x1.526fa38b9e94ap-34",
        "-0x1.7d1a1513ff256p-42",
        "-0x1.43459fd4f4e60p-33",
        "0x1.4cc33765a1362p-32",
        "0x1.330f8bc31e853p-27",
        "-0x1.526fa38b9e94ap-34",
    ],
    "snp_second_deriv_many 2.0,0.5": [
        "0x1.16df9ab0e49edp-1",
        "-0x1.adb178e89c47fp-4",
        "-0x1.3fe667615d257p-1",
        "-0x1.841619f3e1de2p-1",
        "-0x1.800008f077e2cp-1",
        "-0x1.856ec9a3b98c6p-1",
        "0x1.80a831d9fce70p-1",
        "0x1.16df9ab0e49e6p-1",
        "-0x1.841619f3e1de2p-1",
    ],
    "snp_second_deriv_many 2.5,0.9999999999999999": [
        "0x1.ba4e75a52fe19p-1",
        "-0x1.9b5bfe9050892p-4",
        "-0x1.adfa4382218fcp-1",
        "-0x1.509757c9e873fp-5",
        "-0x1.07939feecfe26p-26",
        "-0x1.18cc87e4ae406p-3",
        "0x1.416ebcee76914p-2",
        "0x1.ba4e75a52fe15p-1",
        "-0x1.509757c9e873fp-5",
    ],
    "snp_second_deriv_many 3.5,0.9": [
        "0x1.24bf9338693fap-3",
        "-0x1.add9a61505f07p-10",
        "-0x1.e870226e67785p-3",
        "-0x1.3cc8ccd42b5bfp+0",
        "-0x1.3f0eb0b5f127ep+4",
        "-0x1.f3f0b912d3394p-1",
        "0x1.713a2c83ff884p-1",
        "0x1.24bf9338693dbp-3",
        "-0x1.3cc8ccd42b5c5p+0",
    ],
    "tau_k 2.0,0.5": [
        "0x1.706d28e637b3fp-1",
        "0x1.f754773243fe4p-55",
        "0x1.a0298aa1cec8fp-7",
        "0x1.d3ec7c63971aap-55",
        "0x1.deae429c34206p-13",
        "0x1.46bcfbf968cc5p-57",
        "0x1.134c0fbcc38c6p-18",
        "0x1.f04b908f2f91bp-56",
        "0x1.3ca7e0140a60cp-24",
        "-0x1.29617df60f07dp-57",
        "0x1.6c3a53cd552fep-30",
        "-0x1.e5cad4ad7b691p-56",
        "0x1.a2f26cfbf0827p-36",
        "0x1.20dfd4646115ap-57",
        "0x1.e1d9c1a856830p-42",
        "-0x1.0888e82774255p-62",
        "0x1.15bbfdf1013dfp-47",
        "-0x1.23c7c73c60ac8p-57",
        "0x1.1fa09b5a03984p-53",
        "-0x1.a165054734324p-58",
        "0x1.7528e09695edep-58",
    ],
    "tau_k 3.5,0.9": [
        "0x1.4d7eb8ca88c7bp-1",
        "0x1.5aa1ef078009ap-55",
        "-0x1.32d30a41f0e77p-5",
        "0x1.a9aac3cefd95ep-60",
        "0x1.db371383b6a14p-8",
        "0x1.103ba3315f5b6p-55",
        "-0x1.c14632b5ee63cp-9",
        "-0x1.adccb1deeb0e8p-62",
        "0x1.f9b1d0e517d39p-10",
        "0x1.b87b59ddf27b2p-58",
        "-0x1.4262b6d47c479p-10",
        "-0x1.957599decaf41p-59",
        "0x1.b5fe716ecd66bp-11",
        "0x1.63a4a0e51b7a0p-57",
        "-0x1.3b09386e9b1c9p-11",
        "0x1.58614458dac58p-58",
        "0x1.d6284d959909ep-12",
        "0x1.cc15cb259bcabp-57",
        "-0x1.6ab4b14e2d6a4p-12",
        "0x1.bba303712aacep-58",
        "0x1.1e902d30e7c39p-12",
    ],
    "wp 1.5,0.999999": [
        "0x1.a961102f7b774p-1",
        "0x1.a961102f7b400p-1",
    ],
    "wp 2.0,0.5": [
        "0x1.4eef3f179a458p-1",
        "0x1.4eef3f179a458p-1",
    ],
    "wp 2.5,0.9999999999999999": [
        "0x1.4a4fd757bbe7ep-1",
        "0x1.4a4fd757bbe88p-1",
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
