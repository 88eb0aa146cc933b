#!/usr/bin/env python3
"""Writes the golden `ddcr serve` session `serve_churn.jsonl` to stdout.

The session follows the serve-churn benchmark mix on z = 800 attachment
points: 45 % joins, 5 % leaves, the rest `telemetry` flow requests on a
random present station, and a `status` every 50th line. A few extra lines
exercise the other request kinds: `hog` flows that are always rejected,
forced `telemetry` flows, and, near the end, a forced hog that breaks the
feasible-set invariant until its station leaves. Others must get in-band
`"ok":false` replies and change nothing: a flow on an absent station, a
leave of an absent station, a join of a present one, a join outside the
fabric, and a `wrap` flow and forced flow whose `B_DDCR` terms overflow
64-bit integers.

    python3 gen_serve_churn.py > serve_churn.jsonl

The companion `serve_churn.replies` is the reply log of
`ddcr serve --sources 800 < serve_churn.jsonl`; regenerate it only when a
change to the replies is intended. It was first produced by the build
before incremental admission, with the two `wrap` lines left out of its
input (that build wrapped the terms to zero and admitted them); their
replies are the typed overflow errors of the fixed build, and every other
reply is the same from both builds.
"""

import random

SOURCES = 800
LINES = 1600
STATUS_EVERY = 50
P_JOIN = 0.45
P_LEAVE = 0.05
SEED = 11

TELEMETRY = '"bits":8000,"deadline":50000000,"arrivals":1,"window":10000000'
HOG = '"bits":8000,"deadline":500000,"arrivals":1000,"window":100000'
WRAP = '"bits":8000,"deadline":4000000,"arrivals":4611686018427387904,"window":1000000'


def flow(op, station, name, shape):
    return f'{{"op":"{op}","station":{station},"name":"{name}",{shape}}}'


def main():
    rng = random.Random(SEED)
    absent = list(range(SOURCES))
    present = []
    forced_hog = None
    out = []

    def pick(pool):
        i = rng.randrange(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        return pool.pop()

    for i in range(LINES):
        if i % STATUS_EVERY == STATUS_EVERY - 1:
            out.append('{"op":"status"}')
            continue
        if i in (400, 900, 1300):
            station = present[rng.randrange(len(present))]
            out.append(flow("flow", station, "hog", HOG))
            continue
        if i == 200:
            station = absent[rng.randrange(len(absent))]
            out.append(flow("flow", station, "telemetry", TELEMETRY))
            continue
        if i == 300:
            station = absent[rng.randrange(len(absent))]
            out.append(f'{{"op":"leave","station":{station}}}')
            continue
        if i == 500:
            station = present[rng.randrange(len(present))]
            out.append(f'{{"op":"join","station":{station}}}')
            continue
        if i == 1100:
            out.append(f'{{"op":"join","station":{SOURCES}}}')
            continue
        if i in (700, 800):
            op = "flow" if i == 700 else "force-flow"
            station = present[rng.randrange(len(present))]
            out.append(flow(op, station, "wrap", WRAP))
            continue
        if i in (600, 1000):
            station = present[rng.randrange(len(present))]
            out.append(flow("force-flow", station, "telemetry", TELEMETRY))
            continue
        if i == 1450:
            forced_hog = present[rng.randrange(len(present))]
            out.append(flow("force-flow", forced_hog, "hog", HOG))
            continue
        if i == 1500:
            present.remove(forced_hog)
            absent.append(forced_hog)
            out.append(f'{{"op":"leave","station":{forced_hog}}}')
            continue
        u = rng.random()
        if not present or (u < P_JOIN and absent):
            station = pick(absent)
            present.append(station)
            out.append(f'{{"op":"join","station":{station}}}')
        elif u < P_JOIN + P_LEAVE:
            station = pick(present)
            absent.append(station)
            out.append(f'{{"op":"leave","station":{station}}}')
        else:
            station = present[rng.randrange(len(present))]
            out.append(flow("flow", station, "telemetry", TELEMETRY))
    print("\n".join(out))


if __name__ == "__main__":
    main()
