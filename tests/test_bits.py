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

import pelliptic.elliptic as el
import pelliptic.fourier as fr

# (p, mu) pairs: p below and above 2, mu up to the last double below 1
PAIRS = [(2.0, 0.5), (3.5, 0.9), (1.5, 1.0 - 1e-6), (2.5, math.nextafter(1.0, 0.0))]
# y = f K_p: both signs, every quarter, next to K_p and past one period
FRACTIONS = [-1.7, 0.05, 0.37, 0.8, 0.999, 1.3, 2.6, 3.7, 9.2]
TAU_PAIRS = [(2.0, 0.5), (3.5, 0.9)]
# a 4 x 4 tile of K_p rows, from p = 1.02 up
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
        # the "_many" keys pin the array calls; they keep the names under
        # which they were recorded
        out[f"snp_many {key}"] = el.snp(p, mu, y).tolist()
        out[f"snp_deriv_many {key}"] = el.snp_deriv(p, mu, y).tolist()
        out[f"snp_second_deriv_many {key}"] = el.snp_second_deriv(p, mu, y).tolist()
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
    "kp_quadrature 1.2,0.999999999999": [
        "0x1.d5f2c40b22c55p+28",
        "0x1.0000000000000p-24",
        "0x1.8640000000000p+10",
    ],
    "kp_quadrature 2.0,0.5": [
        "0x1.af8d55d323f7ap+0",
        "0x1.0000000000000p-52",
        "0x1.8400000000000p+6",
    ],
    "kp_quadrature 6.0,0.1": [
        "0x1.0c1523ffc6b84p+0",
        "0x1.0000000000000p-52",
        "0x1.8400000000000p+6",
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
    "tau_k 2.0,0.5": [
        "0x1.706d28e637b40p-1",
        "0x1.97de315ab0460p-59",
        "0x1.a0298aa1ceca5p-7",
        "0x1.194cc3fe9a6c5p-57",
        "0x1.deae429c34572p-13",
        "0x1.0cc01bae2d0c5p-56",
        "0x1.134c0fbcc2936p-18",
        "0x1.d0062efa1bd05p-57",
        "0x1.3ca7e012f0addp-24",
        "0x1.70ef40ead1f9ep-56",
        "0x1.6c3a536e3a03cp-30",
        "-0x1.671cb2c023c97p-56",
        "0x1.a2f25950d10d5p-36",
        "0x1.6832fa00735dfp-58",
        "0x1.e1e20829712b4p-42",
        "0x1.04fd57b4e5708p-62",
        "0x1.15ccf06828db2p-47",
        "0x1.1571fe9510ee7p-57",
        "0x1.0a96a15d36de9p-53",
        "0x1.4307894a492d0p-56",
        "-0x1.ccf6429be6621p-58",
    ],
    "tau_k 3.5,0.9": [
        "0x1.4d7eb8ca88c7bp-1",
        "0x1.01586eb04079dp-56",
        "-0x1.32d30a41f0e76p-5",
        "0x1.741f61ccf5cabp-56",
        "0x1.db371383b6a24p-8",
        "-0x1.5b0e96bad88cdp-57",
        "-0x1.c14632b5ee649p-9",
        "0x1.3deaf52d86387p-64",
        "0x1.f9b1d0e517d10p-10",
        "0x1.57db7d87364c6p-59",
        "-0x1.4262b6d47c478p-10",
        "-0x1.1e623bf06bec5p-55",
        "0x1.b5fe716ecd728p-11",
        "0x1.b94f5c19a2303p-57",
        "-0x1.3b09386e9b2d9p-11",
        "-0x1.665aafdfbbc10p-56",
        "0x1.d6284d95990fcp-12",
        "0x1.4ee1be3eaa5ccp-57",
        "-0x1.6ab4b14e2d5d8p-12",
        "-0x1.00bbd745a69c1p-56",
        "0x1.1e902d30e7b4dp-12",
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


if __name__ == "__main__":
    print("EXPECTED = {")
    for name, values in sorted(compute().items()):
        print(f'    "{name}": [')
        for v in values:
            print(f'        "{v.hex()}",')
        print("    ],")
    print("}")
