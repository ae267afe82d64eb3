"""Why random relay selection exists: load balance under slow fading.

Every link's gain is iid with equal path loss, so max-min's pick is uniform
in law over the relays, as random selection's is. The two differ only in
time: max-min picks from the channel, so within a coherence epoch it sends
every slot through one relay, while random selection draws a relay per
slot. Over fast fading both balance the load alike; over long epochs
max-min's counts are L Multinomial(epochs, 1/n) (L slots an epoch) against
random's Multinomial(slots, 1/n), so its load is visibly less even. This
script compares selection counts, Jain fairness and selection entropy for
both rules at two coherence lengths.

Run: python demos/load_balance.py       (a few seconds)
"""

import math

from relaysec import ProtocolChoice, ScenarioConfig, load_balance

N = 10
SLOTS = 20_000
SEED = 3


def show(label, stats):
    counts = stats.selection_counts
    print(f"  {label}")
    print(f"    counts: {list(counts)}")
    print(f"    jain={stats.jain_index:.4f}  entropy={stats.entropy:.4f} nats "
          f"(uniform would be {math.log(N):.4f})  "
          f"epoch-constant={stats.constant_within_epochs}")


def main():
    print(f"{N} relays, {SLOTS} slots")
    for coherence in (1, 100):
        cfg = ScenarioConfig(n=N, m=0, gamma_r=1.0, gamma_e=1.0,
                             coherence_len=coherence)
        print(f"\ncoherence epoch = {coherence} slot(s) "
              f"({SLOTS // coherence} channel realizations)")
        show("max-min selection", load_balance(cfg, ProtocolChoice(kind="optimal-maxmin"),
                                               SLOTS, SEED))
        show("random selection", load_balance(cfg, ProtocolChoice(kind="random-uniform"),
                                              SLOTS, SEED))
    print()
    print("With fresh fading every slot both rules are symmetric and fair. Once the")
    print("channel freezes for 100 slots, max-min locks onto one relay per epoch")
    print("(epoch-constant=True); fairness then rests entirely on epoch-to-epoch")
    print("symmetry, and with fewer epochs the Jain index degrades accordingly.")


if __name__ == "__main__":
    main()
