"""The one reference the tests hold relaysec to, from the model as the README states it.

It imports nothing from relaysec. It holds the layout-6 stream (`stream_words`,
`decode`), the two-hop protocol over (T, n) gain arrays (`two_hop`) and the
first-hit law (`intercept_law`, `first_hits`); configs are read by attribute.
"""

import math
from collections import namedtuple

import numpy as np

# T transmissions: (T,) relays, (T, n) masks of the relays that jam hop 1 and
# hop 2, (T, 2) SINRs at the relay and at D, (T, 2) K1, K2 and (T,) k = |J1 & J2|
Hops = namedtuple("Hops", "selected jam1 jam2 sinr jammers both")


def stream_words(seed, first_word, words):
    """Uniforms u = (x >> 11) 2**-53 of the words x [first_word, first_word + words) of seed's
    stream, the outputs of a fresh PCG64DXSM seeded by SeedSequence([seed mod 2**64, 6])."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence([seed & (1 << 64) - 1, 6]))
    bits.advance(first_word)
    return (bits.random_raw(words) >> np.uint64(11)) * 2.0 ** -53


def trial_words(n, maxmin, independent):
    """W by the README table: the words a trial reads."""
    return (3 * n - 1 if maxmin else 2 * n + 1) + (n if maxmin and independent else 0) + 3


def decode(seed, trials, n, maxmin, independent):
    """`two_hop`'s gains of trials [0, trials) of seed's stream, and their (T, 3) eavesdropper
    uniforms: max-min reads s_r, r_d with independent legs (else r_d2 is r_d), toward, r_d2,
    eve; random selection a relay floor(u n) and its s_r, then toward, r_d2, eve."""
    width = trial_words(n, maxmin, independent)
    u = stream_words(seed, 0, trials * width).reshape(trials, width)
    g = -np.log1p(-u)
    at = (2 if independent else 1) * n if maxmin else 2
    toward, r_d2 = g[:, at:at + n - 1], g[:, at + n - 1:at + 2 * n - 1]
    if maxmin:
        return (g[:, :n], g[:, n:at] if independent else r_d2, toward, r_d2, None), u[:, -3:]
    pick = (u[:, 0] * n).astype(np.intp)
    s_r = np.full((trials, n), math.nan)  # the other relays' words are not drawn
    s_r[np.arange(trials), pick] = g[:, 1]
    return (s_r, r_d2, toward, r_d2, pick), u[:, -3:]


def noise(config):
    return 0.0 if config.noise_mode == "interference-limited" else config.n0 / 2.0


def sinr(signal, interference, config):
    """g / (I + N0/2 / Es), and +inf where that denominator is 0 or the quotient overflows."""
    denom = interference + noise(config) / config.es
    out = np.full(np.shape(denom), math.inf)
    with np.errstate(over="ignore"):
        return np.divide(signal, denom, out=out, where=denom > 0.0)


def interference(gains, jam):
    """(T,) the jammers' gains toward the receiver, added one relay at a time in relay order."""
    total = np.zeros(len(gains))
    for j in range(gains.shape[1]):
        total += np.where(jam[:, j], gains[:, j], 0.0)
    return total


def two_hop(s_r, r_d, toward, r_d2, pick, tau, config):
    """T transmissions (`Hops`) from (T, n) gains s_r, r_d (as selection reads it) and r_d2 (as
    hop 2 does), (T, n - 1) gains of the other relays toward the selected one, and random
    selection's (T,) relays `pick`, or None: max-min picks the largest min(s_r, r_d), ties to
    the lowest. Every other relay whose gain toward a hop's receiver is below tau jams it.
    """
    t, n = r_d2.shape
    rows = np.arange(t)
    selected = np.argmax(np.minimum(s_r, r_d), axis=1) if pick is None else pick
    to_relay = np.full((t, n), math.nan)  # NaN at the selected relay: it never jams
    cols = np.arange(n - 1)
    to_relay[rows[:, None], cols + (cols >= selected[:, None])] = toward
    jam1, jam2 = to_relay < tau, r_d2 < tau
    jam2[rows, selected] = False
    sinrs = (sinr(s_r[rows, selected], interference(to_relay, jam1), config),
             sinr(r_d2[rows, selected], interference(r_d2, jam2), config))
    return Hops(selected, jam1, jam2, np.stack(sinrs, axis=1),
                np.stack((jam1.sum(axis=1), jam2.sum(axis=1)), axis=1), (jam1 & jam2).sum(axis=1))


def intercept_law(jammers, both, shared, config):
    """(T,) A, B, C: one eavesdropper intercepts hop 1, hop 2, both, given the jammer counts.

    With nu = exp(-gamma_e N0/2 / Es) and q = 1 / (1 + gamma_e): A = nu q^K1,
    B = nu q^K2, and C = nu^2 q^(K1 + K2 - 2k) / (1 + 2 gamma_e)^k with shared
    legs, A B with independent ones. Each power is one Python float power.
    """
    ge = config.gamma_e
    nu = math.exp(-ge * noise(config) / config.es)
    k1, k2 = jammers.T
    q = np.array([(1.0 / (1.0 + ge)) ** j for j in range(int((k1 + k2).max()) + 1)])
    a, b = nu * q[k1], nu * q[k2]
    if not shared:
        return a, b, a * b
    r = np.array([(1.0 / (1.0 + 2.0 * ge)) ** j for j in range(int(both.max()) + 1)])
    return a, b, nu * nu * q[k1 + k2 - 2 * both] * r[both]


def geometric(u, p):
    """The first success, by inversion of uniforms u, of trials that succeed with probability
    p: never (inf) at p = 0 or where the ratio of logs overflows, at once at p = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log1p(-u) / np.log1p(-p)
        return np.where(p == 0.0, math.inf, np.where(p == 1.0, 1.0, np.where(
            ratio == math.inf, math.inf, 1.0 + np.floor(ratio))))


def first_hits(eve, a, b, c, m):
    """(H1, H2): the first eavesdropper to intercept hop 1 and hop 2, m + 1 if none of m does.

    One intercepts both hops with probability C (clipped to min(A, B)), hop 1
    only with A - C, hop 2 only with B - C: the first to intercept either is
    Geometric(A + B - C) (u0), its cell follows from u2 (A + B - C), and after
    a one-hop intercept the other hop's first interceptor is one geometric on.
    """
    c = np.minimum(c, np.minimum(a, b))
    p = np.minimum(a + b - c, 1.0)
    u0, u1, u2 = eve.T
    h = geometric(u0, p)
    hop2_only = u2 * p >= a
    hop1_only = (u2 * p >= c) & ~hop2_only
    h1 = np.where(hop2_only, h + geometric(u1, a), h)
    h2 = np.where(hop1_only, h + geometric(u1, b), h)
    return np.minimum(h1, m + 1.0), np.minimum(h2, m + 1.0)
