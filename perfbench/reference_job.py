"""The fixed job that every time the benchmark reports is scaled by.

    python3 perfbench/reference_job.py

A fresh interpreter imports numpy, as ``kcn.cli`` does, then runs a small
pure-Python kernel of the operations kcn spends its time in: Dijkstra
with a binary heap on a dict graph, and an LCS table. ``run.py`` spawns it
before each round of measurements and takes its CPU time. The job never
changes, so a change to kcn moves the measured command and not the job.
"""

import heapq
import random

import numpy  # noqa: F401  loading it is half of the job


def main() -> None:
    rng = random.Random(0)
    adj = [{rng.randrange(300): rng.randrange(1, 9) for _ in range(10)} for _ in range(300)]
    for source in range(0, 300, 3):
        dist = {source: 0}
        heap = [(0, source)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u].items():
                if d + w < dist.get(v, d + w + 1):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
    words = ["".join(rng.choice("abcdefghij") for _ in range(12)) for _ in range(60)]
    for i in range(0, 60, 2):
        for j in range(i + 1, 60, 3):
            prev = [0] * 13
            for cb in words[j]:
                curr = [0]
                for k, ca in enumerate(words[i], 1):
                    curr.append(prev[k - 1] + 1 if ca == cb else max(prev[k], curr[k - 1]))
                prev = curr


if __name__ == "__main__":
    main()
