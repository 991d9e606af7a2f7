"""numpy's `Generator(PCG64(seed)).binomial(n, p)`, bit for bit, in the standard library.

Four pieces, each as numpy does it:

- `SeedSequence(seed).generate_state(4, uint64)` hashes the seed's 32-bit
  words into the generator's 128-bit state and increment: 24 hashmix steps
  written out on four locals with their constants inlined (4 fill, 12
  mixing, 8 read-out), and a seed of 2**128 or more mixes each further
  word into the pool in a loop between mixing and read-out;
- PCG64 steps a 128-bit LCG and outputs XSL-RR (O'Neill, HMC-CS-2014-0905):
  the two halves xor-ed, rotated right by the state's top 6 bits;
- a uniform double is the output's top 53 bits over 2**53;
- `random_binomial` draws by inversion while n * min(p, 1 - p) <= 30 and by
  BTPE above it (Kachitvichyanukul & Schmeiser, CACM 31(2), 1988), and for
  p > 1/2 draws n - binomial(n, 1 - p).

Every floating-point operation runs in numpy's order on the same libm
calls, so each draw and the state it leaves match numpy's.  The uniform's
PCG step is written out inside the inversion and BTPE loops, on a state
held in a local.
"""

from __future__ import annotations

from math import exp, floor, inf, log, sqrt

from .errors import InvalidParams

_M32 = (1 << 32) - 1
_M53 = (1 << 53) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
_SCALE = 1.0 / 9007199254740992.0  # 2**-53


def _seed_state(seed: int) -> tuple[int, int]:
    """`SeedSequence(seed).generate_state(4, uint64)` as PCG64 reads it: 128-bit (state, increment).

    numpy's hash, written out on the four pool words a, b, c, d.  Each
    hashmix step is v = (x ^ h) * (h * mult), xor-shifted right by 16,
    with h a running constant that does not depend on the seed: it starts
    at 0x43B0D7E5 and is multiplied by 0x931E8875 each step through the
    fill, the mixing and any further words, and starts at 0x8B51F9DD,
    multiplied by 0x58F38DED, through the read-out.  Each step's pair
    (h, h * mult) is inlined.  mix(x, y) is 0xCA01F9DD * x - 0x4973F715 * y,
    also xor-shifted; all mod 2**32.
    """
    # fill: the seed's 32-bit words 0-3, least significant first, one hashmix each (0 past the top word)
    v = ((seed & _M32) ^ 0x43B0D7E5) * 0xAE5A53A9 & _M32
    a = v ^ v >> 16
    v = ((seed >> 32 & _M32) ^ 0xAE5A53A9) * 0x8488043D & _M32
    b = v ^ v >> 16
    v = ((seed >> 64 & _M32) ^ 0x8488043D) * 0x5A9057E1 & _M32
    c = v ^ v >> 16
    v = ((seed >> 96 & _M32) ^ 0x5A9057E1) * 0x9205B1D5 & _M32
    d = v ^ v >> 16
    # mixing: each pool word hashmixed into the other three
    v = (a ^ 0x9205B1D5) * 0xE9096E59 & _M32
    v = (0xCA01F9DD * b - 0x4973F715 * (v ^ v >> 16)) & _M32
    b = v ^ v >> 16
    v = (a ^ 0xE9096E59) * 0x8D5CB6AD & _M32
    v = (0xCA01F9DD * c - 0x4973F715 * (v ^ v >> 16)) & _M32
    c = v ^ v >> 16
    v = (a ^ 0x8D5CB6AD) * 0x9BB16511 & _M32
    v = (0xCA01F9DD * d - 0x4973F715 * (v ^ v >> 16)) & _M32
    d = v ^ v >> 16
    v = (b ^ 0x9BB16511) * 0x00C238C5 & _M32
    v = (0xCA01F9DD * a - 0x4973F715 * (v ^ v >> 16)) & _M32
    a = v ^ v >> 16
    v = (b ^ 0x00C238C5) * 0x4D029A09 & _M32
    v = (0xCA01F9DD * c - 0x4973F715 * (v ^ v >> 16)) & _M32
    c = v ^ v >> 16
    v = (b ^ 0x4D029A09) * 0xCC132E1D & _M32
    v = (0xCA01F9DD * d - 0x4973F715 * (v ^ v >> 16)) & _M32
    d = v ^ v >> 16
    v = (c ^ 0xCC132E1D) * 0x83A97B41 & _M32
    v = (0xCA01F9DD * a - 0x4973F715 * (v ^ v >> 16)) & _M32
    a = v ^ v >> 16
    v = (c ^ 0x83A97B41) * 0xFA8DDCB5 & _M32
    v = (0xCA01F9DD * b - 0x4973F715 * (v ^ v >> 16)) & _M32
    b = v ^ v >> 16
    v = (c ^ 0xFA8DDCB5) * 0xAC4C06B9 & _M32
    v = (0xCA01F9DD * d - 0x4973F715 * (v ^ v >> 16)) & _M32
    d = v ^ v >> 16
    v = (d ^ 0xAC4C06B9) * 0x26FF5A8D & _M32
    v = (0xCA01F9DD * a - 0x4973F715 * (v ^ v >> 16)) & _M32
    a = v ^ v >> 16
    v = (d ^ 0x26FF5A8D) * 0x0E554A71 & _M32
    v = (0xCA01F9DD * b - 0x4973F715 * (v ^ v >> 16)) & _M32
    b = v ^ v >> 16
    v = (d ^ 0x0E554A71) * 0x78C50DA5 & _M32
    v = (0xCA01F9DD * c - 0x4973F715 * (v ^ v >> 16)) & _M32
    c = v ^ v >> 16
    if seed >> 128:  # each further 32-bit word, zero words included, hashmixed into every pool word
        pool, hm = [a, b, c, d], 0x78C50DA5  # h after the mixing's last step
        for i in range(4, -(-seed.bit_length() // 32)):
            w = seed >> 32 * i & _M32
            for dst in range(4):
                h, hm = hm, hm * 0x931E8875 & _M32
                v = (w ^ h) * hm & _M32
                v = (0xCA01F9DD * pool[dst] - 0x4973F715 * (v ^ v >> 16)) & _M32
                pool[dst] = v ^ v >> 16
        a, b, c, d = pool
    # read-out: eight 32-bit words, two rounds over the pool; as four little-endian uint64s
    # w0 = o0 | o1 << 32, ..., w3 = o6 | o7 << 32, the state is w0 << 64 | w1 and the increment w2 << 64 | w3
    v = (a ^ 0x8B51F9DD) * 0x464A0A99 & _M32
    o0 = v ^ v >> 16
    v = (b ^ 0x464A0A99) * 0x819D14A5 & _M32
    o1 = v ^ v >> 16
    v = (c ^ 0x819D14A5) * 0xD369FDC1 & _M32
    o2 = v ^ v >> 16
    v = (d ^ 0xD369FDC1) * 0x501638AD & _M32
    o3 = v ^ v >> 16
    v = (a ^ 0x501638AD) * 0xA600C129 & _M32
    o4 = v ^ v >> 16
    v = (b ^ 0xA600C129) * 0x8B0167F5 & _M32
    o5 = v ^ v >> 16
    v = (c ^ 0x8B0167F5) * 0x5C1E2ED1 & _M32
    o6 = v ^ v >> 16
    v = (d ^ 0x5C1E2ED1) * 0x301D747D & _M32
    o7 = v ^ v >> 16
    return o0 << 64 | o1 << 96 | o2 | o3 << 32, o4 << 64 | o5 << 96 | o6 | o7 << 32


class PCG64:
    """The bit generator of `numpy.random.Generator(numpy.random.PCG64(seed))` and its binomial."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int) -> None:
        if type(seed) is not int or seed < 0:  # a bool would seed as 0 or 1, a float fail untyped
            raise InvalidParams(f"seed must be an int >= 0, got {seed!r}")
        initstate, initseq = _seed_state(seed)
        self.inc = inc = (initseq << 1 | 1) & _M128
        self.state = ((inc + initstate) * _MULT + inc) & _M128

    def random(self) -> float:
        """The next uniform double in [0, 1), as `Generator.random()`: the step the binomial loops write out."""
        self.state = state = (self.state * _MULT + self.inc) & _M128
        o = (state ^ state >> 64) & _M64
        return ((o << 64 | o) >> ((state >> 122) + 11) & _M53) * _SCALE

    def binomial(self, n: int, p: float) -> int:
        """`Generator.binomial(n, p)` for an int 0 <= n < 2**63 and a float 0 <= p <= 1.

        numpy's n is an int64: it raises OverflowError from 2**63 on, where
        this gives a count no reference reproduces, so callers refuse it.
        """
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            if p * n <= 30.0:
                return self._inversion(n, p)
            return self._btpe(n, p)
        q = 1.0 - p
        if q * n <= 30.0:
            return n - self._inversion(n, q)
        return n - self._btpe(n, q)

    def _inversion(self, n: int, p: float) -> int:
        """numpy's `random_binomial_inversion`: walk the pmf from 0, restarting past `bound`.

        The counter k runs as a float: n + 1 - k and k are exact as floats,
        so every product and quotient equals numpy's int-to-double one.
        """
        q = 1.0 - p
        qn = exp(n * log(q))
        np_ = n * p
        bound = float(int(min(n, np_ + 10.0 * sqrt(np_ * q + 1))))
        n1 = float(n + 1)
        mult, inc, m128, m64, m53, scale = _MULT, self.inc, _M128, _M64, _M53, _SCALE
        state = self.state
        while True:
            state = (state * mult + inc) & m128
            o = (state ^ state >> 64) & m64
            u = ((o << 64 | o) >> ((state >> 122) + 11) & m53) * scale
            k = 0.0
            px = qn
            while u > px:
                k += 1.0
                if k > bound:
                    break
                u -= px
                px = ((n1 - k) * p * px) / (k * q)
            else:
                self.state = state
                return int(k)

    def _btpe(self, n: int, p: float) -> int:
        """numpy's `random_binomial_btpe` for p <= 1/2: triangle, parallelograms, exponential tails."""
        r = p  # min(p, 1 - p)
        q = 1.0 - r
        fm = n * r + r
        m = floor(fm)
        p1 = floor(2.195 * sqrt(n * r * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl = xm - p1
        xr = xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * r)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        nrq = n * r * q
        mult, inc, m128, m64, m53, scale = _MULT, self.inc, _M128, _M64, _M53, _SCALE
        state = self.state
        while True:
            state = (state * mult + inc) & m128
            o = (state ^ state >> 64) & m64
            u = ((o << 64 | o) >> ((state >> 122) + 11) & m53) * scale * p4
            state = (state * mult + inc) & m128
            o = (state ^ state >> 64) & m64
            v = ((o << 64 | o) >> ((state >> 122) + 11) & m53) * scale
            if u <= p1:  # triangle: accept at once
                y = floor(xm - p1 * v + u)
                break
            if u <= p2:  # parallelograms
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = floor(x)
            elif u <= p3:  # left exponential tail
                if v == 0.0:
                    continue
                y = floor(xl + log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:  # right exponential tail
                if v == 0.0:
                    continue
                y = floor(xr - log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if k <= 20 or k >= nrq / 2.0 - 1:
                # explicit pmf ratio f(y) / f(m); i runs as an exact float
                s = r / q
                a = s * (n + 1)
                f = 1.0
                if m < y:
                    i = float(m)
                    for _ in range(k):
                        i += 1.0
                        f *= a / i - s
                elif m > y:
                    i = float(y)
                    for _ in range(k):
                        i += 1.0
                        f /= a / i - s
                if v > f:
                    continue
                break
            # squeeze, then Stirling's bound on log f(y) / f(m)
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = -k * k / (2 * nrq)
            big_a = log(v) if v > 0.0 else -inf  # C's log gives -inf or nan: both accept
            if big_a < t - rho:
                break
            if big_a > t + rho:
                continue
            x1 = float(y + 1)
            f1 = float(m + 1)
            z = float(n + 1 - m)
            w = float(n - y + 1)
            x2 = x1 * x1
            f2 = f1 * f1
            z2 = z * z
            w2 = w * w
            if big_a > (
                xm * log(f1 / x1)
                + (n - m + 0.5) * log(z / w)
                + (y - m) * log(w * r / (x1 * q))
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / f2) / f2) / f2) / f2) / f1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / z2) / z2) / z2) / z2) / z / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / w2) / w2) / w2) / w2) / w / 166320.0
            ):
                continue
            break
        self.state = state
        return y
