"""The paper's published numbers, transcribed for paper-vs-measured reports.

All values are seconds on the authors' hardware (Table 3); this
reproduction does not target the absolute values — only the *shapes*: who
wins, by roughly what factor, where crossovers fall.  The bench suite
compares Tables 1 and 2 with these constants, and the Table 4 and 5
entries of :mod:`repro.bench.findings` bound the measured magnitudes by
them; EXPERIMENTS.md quotes the paper's Table 6 next to ours.
"""

#: Table 1 — Barton data set details.
PAPER_TABLE1 = {
    "total triples": 50_255_599,
    "distinct properties": 222,
    "distinct subjects": 12_304_739,
    "distinct objects": 15_817_921,
    "distinct subjects that appear also as objects (and vice versa)": 9_654_007,
    "strings in dictionary": 18_468_875,
    "data set size (bytes)": 1253 * 1024 * 1024,
}

#: Table 2 — query-space coverage (triple patterns, join patterns).
PAPER_TABLE2 = {
    "q1": (["p7"], []),
    "q2": (["p2", "p8"], ["A"]),
    "q3": (["p2", "p8"], ["A"]),
    "q4": (["p2", "p8"], ["A"]),
    "q5": (["p2", "p7"], ["A", "C"]),
    "q6": (["p2", "p7", "p8"], ["A", "C"]),
    "q7": (["p2", "p7"], ["A"]),
    "q8": (["p6", "p8"], ["B"]),
}

#: Table 4 — C-Store repetition results (q1-q7 plus geometric mean G).
#: Keyed by (machine, mode, clock): list of 7 query times + G.
PAPER_TABLE4 = {
    ("A", "cold", "real"): [1.01, 2.21, 10.33, 2.47, 18.46, 11.42, 1.94, 4.2],
    ("A", "cold", "user"): [0.47, 1.14, 3.06, 1.37, 9.28, 8.91, 0.34, 1.8],
    ("A", "hot", "real"): [0.59, 1.33, 3.63, 1.62, 10.42, 10.36, 0.83, 2.3],
    ("A", "hot", "user"): [0.49, 1.14, 3.01, 1.37, 9.13, 8.91, 0.30, 1.7],
    ("B", "cold", "real"): [0.79, 1.79, 10.13, 2.80, 21.13, 12.71, 1.09, 3.8],
    ("B", "cold", "user"): [0.49, 1.18, 3.44, 1.30, 11.64, 10.56, 0.37, 1.9],
    ("B", "hot", "real"): [0.59, 1.35, 4.08, 1.52, 12.95, 12.04, 0.77, 2.4],
    ("B", "hot", "user"): [0.49, 1.17, 3.45, 1.28, 11.67, 10.49, 0.34, 1.9],
    ("[1]", "", ""): [0.66, 1.64, 9.28, 2.24, 15.88, 10.81, 1.44, 3.4],
}

#: Table 5 — data relevant to a query on C-Store (MB read, rows returned).
PAPER_TABLE5 = {
    "q1": (100, 30),
    "q2": (135, 9),
    "q3": (175, 3336),
    "q4": (142, 297),
    "q5": (250, 12916),
    "q6": (220, 14),
    "q7": (135, 74866),
}
