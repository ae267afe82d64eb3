"""The one reference the tests hold relaysec to, from the model as the README states it.

It imports nothing from relaysec. It holds the layout-8 stream (`stream_words`),
its per-relay rows (`decode`) for the two-hop protocol over (T, n) gain arrays
(`two_hop`), its count rows (`count_cap`, `count_hops`) with their own binomial
tables and max-min's head from the law of the maximum (`best`), and the
first-hit law (`intercept_law`, `first_hits`); configs are read by attribute.
"""

import bisect
import functools
import math
from collections import namedtuple

import numpy as np

# T transmissions: (T,) relays (None on count rows),
# (T, n) masks of the relays that jam hop 1 and hop 2 (None on count rows),
# (T, 2) SINRs at the relay and at D, (T, 2) K1, K2 and (T,) k = |J1 & J2|
Hops = namedtuple("Hops", "selected jam1 jam2 sinr jammers both")


def stream_words(seed, first_word, words, overflow=False):
    """Uniforms u = (x >> 11) 2**-53 of the words x [first_word, first_word + words) of seed's
    stream, the outputs of a fresh PCG64DXSM seeded by SeedSequence([seed mod 2**64, 7]), or
    with `overflow` by SeedSequence([seed mod 2**64, 7, 1]) (layout 8 kept layout 7's key)."""
    key = [seed & (1 << 64) - 1, 7] + [1] * overflow
    bits = np.random.PCG64DXSM(np.random.SeedSequence(key))
    bits.advance(first_word)
    return (bits.random_raw(words) >> np.uint64(11)) * 2.0 ** -53


def count_cap(n, tau):
    """The README's switch: cap = min(n - 1, ceil((n - 1) p + 8 sd) + 5), sd that of
    Bin(n - 1, p), p = 1 - e^-tau, when n >= 41 and cap <= min((n - 1) / 2, 512) (count
    rows); None (per-relay rows) otherwise."""
    p = -math.expm1(-tau)
    mean = (n - 1) * p
    cap = min(n - 1, math.ceil(mean + 8 * math.sqrt(mean * (1.0 - p))) + 5)
    return cap if n >= 41 and 2 * cap <= min(n - 1, 1024) else None


def trial_words(n, maxmin, independent, cap=None):
    """W by the README table: the words a trial reads, on per-relay rows or with `cap`."""
    if cap is not None:
        return 2 * cap + (10 if maxmin else 8)
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


def pmf_term(size, k, log_p, log_q):
    """P(Bin(size, p) = k) from log p and log(1 - p): one math.exp of lgammas and logs."""
    return math.exp(math.lgamma(size + 1) - math.lgamma(k + 1) - math.lgamma(size - k + 1)
                    + k * log_p + (size - k) * log_q)


@functools.lru_cache(maxsize=None)
def binomial_cdf(size, tau):
    """P(Bin(size, p) <= k) for k = 0..size, p = 1 - e^-tau: pmf terms (`pmf_term`) added in
    k order and capped at 1; 1 from k = size on, and at p = 0."""
    if tau == 0.0:
        return [1.0] * (size + 1)
    log_p, total, cdf = math.log(-math.expm1(-tau)), 0.0, []
    for k in range(size):
        total += pmf_term(size, k, log_p, -tau)
        cdf.append(min(total, 1.0))
    return cdf + [1.0]


def invert(size, tau, u):
    """The count Bin(size, p) that uniform u inverts to: #{k : F(k) <= u}."""
    return bisect.bisect_right(binomial_cdf(size, tau), u)


def best(u, n):
    """Max-min's relay's min(s_r, r_d) from its uniform u: (1 - e^-2x)^n = u, in log space;
    u = 0 reads as 2**-53, the smallest positive word."""
    return -0.5 * np.log(-np.expm1(np.log(np.maximum(u, 2.0 ** -53)) / n))


def extra_chance(x, tau):
    """r(x) = (q - p) / (1 - p), q(x) the chance that another relay jams hop 2 given max-min's
    min is x >= tau (count rows never hold a smaller one): (e^tau - 1) / (e^2x - 1)."""
    return math.expm1(tau) / np.expm1(2.0 * x)


def invert_extra(size, r, f0, u):
    """Bin(size, r) by inversion of u, F(0) = f0 given: further pmf terms (`pmf_term`) added in
    k order until F passes u."""
    k, total = 0, float(f0)
    while total <= u and k < size:
        k += 1
        total += pmf_term(size, k, math.log(r), math.log1p(-r))
    return k


def count_hops(seed, trials, n, tau, maxmin, independent, config, cap=None, u=None):
    """T transmissions (`Hops`) of trials [0, trials) of seed's count rows, and their (T, 3)
    eavesdropper uniforms; `cap` overrides the switch's, and `u` the rows' words.

    A row is, under max-min, the words best (M = its relay's min(s_r, r_d)),
    side (below 1/2 iff M is s_r) and the excess of the other gain over M,
    then the relay's fresh hop-2 word with independent legs; under random
    selection the relay's s_r and hop-2 words. Then K2's word, a second K2
    word under max-min with shared legs, k's and K1 - k's; cap jammer words a
    hop; three eavesdropper words. With shared legs, given M = x, another
    relay jams hop 2 with q(x), so K2 ~ Bin(n - 1, p) + Bin(n - 1 - that,
    r(x)). A hop's jammers have gains -log1p(-u p), added in word order, the
    words past cap from the trial's row of the overflow key.
    """
    cap, p = cap or count_cap(n, tau), -math.expm1(-tau)
    width = trial_words(n, maxmin, independent, cap)
    if u is None:
        u = stream_words(seed, 0, trials * width).reshape(trials, width)
    g = -np.log1p(-u)
    shared_best = maxmin and not independent
    if maxmin:
        x = best(u[:, 0], n)
        s_larger = u[:, 1] >= 0.5
        signal1 = x + g[:, 2] * s_larger
        signal2 = x + g[:, 2] * ~s_larger if shared_best else g[:, 3]
        at = 3 + independent
    else:
        signal1, signal2, at = g[:, 0], g[:, 1], 2
    k2 = np.array([invert(n - 1, tau, v) for v in u[:, at]])
    at += 1
    if shared_best:
        r = extra_chance(x, tau)
        f0 = np.exp((n - 1 - k2) * np.log1p(-r))
        k2 = k2 + [invert_extra(n - 1 - k, r[i], f0[i], u[i, at]) for i, k in enumerate(k2)]
        at += 1
    both = np.array([invert(k, tau, v) for k, v in zip(k2, u[:, at])])
    k1 = both + [invert(n - 1 - k, tau, v) for k, v in zip(k2, u[:, at + 1])]
    jammers = np.stack((k1, k2), axis=1)
    sums = np.zeros((trials, 2))
    for h in range(2):
        gains = -np.log1p(-u[:, at + 2 + h * cap:at + 2 + (h + 1) * cap] * p)
        for j in range(cap):
            sums[:, h] += np.where(jammers[:, h] > j, gains[:, j], 0.0)
        for i in np.flatnonzero(jammers[:, h] > cap):
            extra = stream_words(seed, int(i * 2 + h) * (n - 1 - cap), int(jammers[i, h]) - cap,
                                 overflow=True)
            for v in -np.log1p(-extra * p):
                sums[i, h] += v
    sinrs = np.stack((sinr(signal1, sums[:, 0], config), sinr(signal2, sums[:, 1], config)), axis=1)
    return Hops(None, None, None, sinrs, jammers, both), u[:, -3:]


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
