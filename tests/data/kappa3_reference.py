"""30-digit reference values of the moment and main-term integrals at
kappa = 3, u = 3 - 1/9, l = 6, P(w) = 1 + w/4, written to
kappa3_reference.json next to this file.

    python tests/data/kappa3_reference.py

The integrals run over w in [0, u], that is v = u - w in [0, u], which
spans three solver intervals:

- v in (0, 1]: j = c v^3, so j' = 3 c v^2, with c = exp(-3 gamma)/3!;
- v in (1, 2]: q = j/c solves v q' = 3 q - 3 (v - 1)^3 with q(1) = 1, so
      q1(v) = 13/2 v^3 - 3 v^3 log v - 9 v^2 + 9/2 v - 1;
- v in (2, u]: q2(v) = v^3 (q1(2)/8 - 3 int_2^v q1(t - 1) t^-4 dt), the
  method-of-steps update of the scaled solution q v^-3, integrated here
  by mpmath.

j' = 3 c (q(v) - q(v - 1))/v on the last two.  Each integral is split at
the knots v = 1 and 2, and the inner integral of the last piece is
memoized by v, because mpmath samples the same nodes for each
integrand.  The inner I2 integral is exact for this P:
P(w) - P(w - t) = t/4, so int_0^w (t/4)^2 (1 - t/l) dt/t = w^2/32 -
w^3/(48 l).  Nothing here calls sievekit.  The run takes well under a
minute.
"""

import json
from pathlib import Path

import mpmath as mp

DPS = 30


def main():
    mp.mp.dps = DPS
    kappa = 3
    u = mp.mpf(26) / 9
    l = mp.mpf(6)
    c = mp.exp(-kappa * mp.euler) / mp.factorial(kappa)

    def q1(v):
        return (mp.mpf(13) / 2 * v ** 3 - 3 * v ** 3 * mp.log(v) - 9 * v ** 2
                + mp.mpf(9) / 2 * v - 1)

    g2 = q1(mp.mpf(2)) / 8
    memo = {}

    def q2(v):
        if v not in memo:
            memo[v] = v ** 3 * (g2 - 3 * mp.quad(lambda t: q1(t - 1) / t ** 4, [2, v]))
        return memo[v]

    def jp(v):
        if v <= 1:
            return kappa * c * v ** 2
        if v <= 2:
            return kappa * c * (q1(v) - (v - 1) ** 3) / v
        return kappa * c * (q2(v) - q1(v - 1)) / v

    def integral(weight):
        """int_0^u weight(w) j'(u - w) dw, as int over v of weight(u - v) j'(v)."""
        return mp.quad(lambda v: weight(u - v) * jp(v), [0, 1]) + \
            mp.quad(lambda v: weight(u - v) * jp(v), [1, 2]) + \
            mp.quad(lambda v: weight(u - v) * jp(v), [2, u])

    def P(w):
        return 1 + w / 4

    values = {
        "J1(0)": integral(lambda w: 1),
        "J1(1)": integral(lambda w: w),
        "J2(0)": integral(mp.log),
        "I1": integral(lambda w: P(w) ** 2),
        "I2": integral(lambda w: w ** 2 / 32 - w ** 3 / (48 * l)),
        "I3": integral(lambda w: P(w) ** 2 * (mp.log(l / w) - 1 + w / l)),
    }
    out = {
        "kappa": kappa,
        "u": "26/9",
        "l": 6,
        "P": [1.0, 0.25],
        "dps": DPS,
        "values": {k: mp.nstr(v, DPS) for k, v in values.items()},
    }
    path = Path(__file__).with_suffix(".json")
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
