"""Counter-based random streams for reproducible, parallel-safe simulation.

Every random quantity in the package is derived from a single 64-bit seed
through named Philox streams.  A stream is addressed by (seed, label); within
a stream, draws live in fixed-size *blocks* of four raw 64-bit words (one
Philox counter tick), so any contiguous range of blocks can be produced
independently of how the work is chunked.  This is what makes a sampled
panel bit-identical for any chunk size, and its first k firms equal to a
k-firm panel.

Normal deviates use inverse-CDF sampling.  The inverse normal CDF is
Wichura's algorithm AS 241 (routine PPND16): three rational approximations in
p - 0.5, sqrt(-log(p)) <= 5 and > 5, accurate to about 1e-16 relative, so
cross-platform reproducibility is limited only by IEEE arithmetic.
Exponential deviates use -log1p(-u)/rate.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import SortCyclesError

#: raw 64-bit words per counter block (Philox-4x64 produces 4 words per tick)
WORDS_PER_BLOCK = 4

_INV_2_53 = 2.0 ** -53
#: the largest double below 1
_BELOW_ONE = 1.0 - _INV_2_53


def derive_key(seed: int, label: str) -> int:
    """128-bit Philox key from the run seed and a stream label.

    SHA-256 of (little-endian seed || label) keeps distinct labels
    statistically independent and documents the exact derivation.
    """
    digest = hashlib.sha256(int(seed).to_bytes(8, "little", signed=False) + label.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def block_uniforms(seed: int, label: str, start_block: int, n_blocks: int) -> np.ndarray:
    """Uniforms in the open interval (0, 1), shape (n_blocks, 4).

    Block b of a stream is always the same four numbers no matter which call
    produced it; callers may therefore split [0, n) into chunks freely.  A
    count whose raw words would exceed the largest array numpy can describe,
    2^63 - 1 bytes, raises SortCyclesError before anything is drawn.
    """
    if n_blocks <= 0:
        return np.empty((0, WORDS_PER_BLOCK), dtype=np.float64)
    if n_blocks * WORDS_PER_BLOCK * 8 > np.iinfo(np.intp).max:  # 8 bytes per raw word
        raise SortCyclesError(f"{n_blocks} blocks of {WORDS_PER_BLOCK} draws exceed the "
                              f"largest array numpy can describe")
    bitgen = np.random.Philox(key=derive_key(seed, label))
    bitgen.advance(int(start_block))
    raw = bitgen.random_raw(n_blocks * WORDS_PER_BLOCK)
    return _word_uniforms(raw).reshape(n_blocks, WORDS_PER_BLOCK)


def _word_uniforms(raw: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1) from raw 64-bit words: the top 53 bits, half a step off
    zero; the top word, whose (2^53 - 1/2) 2^-53 rounds to 1, is clamped below 1."""
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
    return np.minimum(u, _BELOW_ONE, out=u)


def latin_hypercube(seed: int, label: str, n: int, d: int, batch: int = 0) -> np.ndarray:
    """n points in (0, 1)^d, shape (n, d), one in each of the n equal strata
    of every axis (McKay, Beckman & Conover 1979).

    Each axis takes a random permutation of the strata (the ranks of n
    uniforms) and a uniform position inside each stratum.  Batch b reads the
    b-th run of 2·n·d uniforms of the (seed, label) stream, so successive
    batches are independent hypercubes of one stream.
    """
    k = 2 * n * d
    n_blocks = -(-k // WORDS_PER_BLOCK)
    u = block_uniforms(seed, label, batch * n_blocks, n_blocks).ravel()[:k]
    keys, jitter = u[:n * d].reshape(d, n), u[n * d:].reshape(d, n)
    strata = np.argsort(keys, axis=1, kind="stable")
    return ((strata + jitter) / n).T


def normal_icdf(p):
    """Inverse standard-normal CDF, AS 241 (PPND16), vectorized.

    Valid for p strictly inside (0, 1); block_uniforms guarantees that.  The
    central rational is evaluated on every point, where it is finite, and
    then overwritten at the tail points alone; of the two tail rationals, the
    one for r > 5 is evaluated only where r > 5.
    """
    p = np.asarray(p, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    q = p - 0.5
    r = 0.180625 - q * q
    num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
              + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
            + 1.3314166789178437745e2) * r + 3.3871328727963666080e0)
    den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
              + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
            + 4.2313330701600911252e1) * r + 1.0)
    out = q * num / den

    tails = np.flatnonzero(np.abs(q) > 0.425)
    if tails.size:
        qt = q[tails]
        r = np.sqrt(-np.log(np.where(qt < 0.0, p[tails], 1.0 - p[tails])))
        r1 = r - 1.6
        num = (((((((7.74545014278341407640e-4 * r1 + 2.27238449892691845833e-2) * r1
                    + 2.41780725177450611770e-1) * r1 + 1.27045825245236838258e0) * r1
                  + 3.64784832476320460504e0) * r1 + 5.76949722146069140550e0) * r1
                + 4.63033784615654529590e0) * r1 + 1.42343711074968357734e0)
        den = (((((((1.05075007164441684324e-9 * r1 + 5.47593808499534494600e-4) * r1
                    + 1.51986665636164571966e-2) * r1 + 1.48103976427480074590e-1) * r1
                  + 6.89767334985100004550e-1) * r1 + 1.67638483018380384940e0) * r1
                + 2.05319162663775882187e0) * r1 + 1.0)
        val = num / den
        far = np.flatnonzero(r > 5.0)
        if far.size:
            r2 = r[far] - 5.0
            num = (((((((2.01033439929228813265e-7 * r2 + 2.71155556874348757815e-5) * r2
                        + 1.24266094738807843860e-3) * r2 + 2.65321895265761230930e-2) * r2
                      + 2.96560571828504891230e-1) * r2 + 1.78482653991729133580e0) * r2
                    + 5.46378491116411436990e0) * r2 + 6.65790464350110377720e0)
            den = (((((((2.04426310338993978564e-15 * r2 + 1.42151175831644588870e-7) * r2
                        + 1.84631831751005468180e-5) * r2 + 7.86869131145613259100e-4) * r2
                      + 1.48753612908506148525e-2) * r2 + 1.36929880922735805310e-1) * r2
                    + 5.99832206555887937690e-1) * r2 + 1.0)
            val[far] = num / den
        out[tails] = np.where(qt < 0.0, -val, val)

    return out[0] if scalar else out


def exponential_icdf(u, rate: float):
    """Exponential(rate) deviate from a uniform in (0, 1)."""
    return -np.log1p(-np.asarray(u)) / rate

