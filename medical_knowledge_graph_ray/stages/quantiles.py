"""Exact distributed discrete quantiles by iterative histogram narrowing.

The classic scale problem: an exact percentile needs a global order
statistic, and a global ``sort`` of the column is a full-range shuffle of
the entire dataset just to read back a handful of values.  This module
computes EXACT ``quantile_disc`` answers (DuckDB semantics: the value at
1-based rank ``max(1, ceil(q·n))``) with **no shuffle and no driver-side
data**: repeated cheap scans, each exchanging only a tiny histogram.

Algorithm (values pre-mapped to int64, e.g. cents):

1. one partial-aggregate pass for (n, min, max);
2. every target quantile starts with interval [min, max] and residual
   rank k; each round, one ``map_batches`` pass counts, per target, how
   many rows fall into each of B equal sub-bins of that target's current
   interval (vectorized ``np.bincount``); the driver folds the tiny
   per-batch histograms, walks the cumulative counts to the bin holding
   the residual rank, and shrinks the interval to that bin;
3. when every interval has width 1, its lower bound IS the answer
   (discrete quantiles of an integer domain).

Rounds needed: ``ceil(log_B(max-min))`` — 2 scans for cent-priced values
up to ~$10M at B=4096.  Exchange per round is O(#blocks · #targets · B)
histogram rows (pre-summed per batch), independent of data size; worker
memory is O(B) per target.  This is the quantile analogue of the engine's
two-phase aggregates: heavy scan, feather-weight exchange.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..functions.arrow import arrow_out
from .shuffle import fold_groups

N_BINS = 4096


def _stats_pass(ints_ds):
    """(n, min, max) via per-batch partials + tiny driver fold."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": 1, "lo": b["v"], "hi": b["v"]})

    p = fold_groups(ints_ds.map_batches(arrow_out(partial), batch_format="pandas"),
                    [], [("n", "sum"), ("lo", "min"), ("hi", "max")]).iloc[0]
    if pd.isna(p["n"]):
        raise ValueError("quantile over an empty dataset")
    lo, hi = int(p["lo"]), int(p["hi"])
    if hi - lo > 2**62:
        # (v - lo) in the histogram kernel is evaluated in numpy int64
        # and would wrap for ranges wider than 2^63
        raise ValueError(
            "quantiles_disc_int: value range exceeds 2^62 — shift/scale "
            "the column into a narrower int64 domain first"
        )
    return int(p["n"].sum()), lo, hi


def values_at_ranks(ints_ds, ranks: list[int], *, stats=None) -> list[int]:
    """Exact values at the given 1-based global ranks of the int64
    column ``v`` — the rank-targeted core the disc and cont quantile
    fronts share (same histogram-narrowing rounds, one interval per
    requested rank).  ``stats`` takes a precomputed ``(n, lo, hi)``
    triple so callers that already ran ``_stats_pass`` (to derive the
    ranks from n) don't pay a second full scan of the input."""
    n, g_lo, g_hi = stats if stats is not None else _stats_pass(ints_ds)
    if any(r < 1 or r > n for r in ranks):
        raise ValueError(f"rank out of range 1..{n}")
    state = [
        {"q": float(r), "lo": g_lo, "hi": g_hi, "rank": int(r)}
        for r in ranks
    ]

    while any(s["hi"] > s["lo"] for s in state):
        live = [s for s in state if s["hi"] > s["lo"]]
        # freeze a copy for closure capture (the pass must not see later
        # driver-side mutation — Ray may serialize the fn lazily)
        intervals = [(i, s["lo"], s["hi"]) for i, s in enumerate(state)
                     if s["hi"] > s["lo"]]

        def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
            v = b["v"].to_numpy()
            tgt, bins, counts = [], [], []
            for i, lo, hi in intervals:
                # fixed integer bin step — exact (no float drift);
                # ranges wider than 2^62 are rejected in _stats_pass
                step = -(-(hi - lo + 1) // N_BINS)
                m = v[(v >= lo) & (v <= hi)]
                if not len(m):
                    continue
                idx = (m - lo) // step
                c = np.bincount(idx, minlength=N_BINS)
                nz = np.nonzero(c)[0]
                tgt.append(np.full(len(nz), i, np.int64))
                bins.append(nz.astype(np.int64))
                counts.append(c[nz].astype(np.int64))
            if not tgt:
                return pd.DataFrame(
                    {"tgt": pd.array([], "int64"), "bin": pd.array([], "int64"),
                     "cnt": pd.array([], "int64")}
                )
            return pd.DataFrame(
                {"tgt": np.concatenate(tgt), "bin": np.concatenate(bins),
                 "cnt": np.concatenate(counts)}
            )

        hist = fold_groups(
            ints_ds.map_batches(arrow_out(hist_partial), batch_format="pandas"),
            ["tgt", "bin"], [("cnt", "sum")]).set_index(["tgt", "bin"])["cnt"]
        for s, (i, lo, hi) in zip(live, intervals):
            step = -(-(hi - lo + 1) // N_BINS)
            sub = hist.loc[i] if i in hist.index.get_level_values(0) else None
            if sub is None:
                raise RuntimeError("histogram lost rows — interval invariant broken")
            cum = sub.cumsum()
            pos = int(np.searchsorted(cum.to_numpy(), s["rank"]))
            b = int(cum.index[pos])
            before = int(cum.iloc[pos - 1]) if pos else 0
            s["rank"] -= before
            # bin b covers the ints [lo + b·step, min(hi, lo + (b+1)·step − 1)]
            s["lo"] = lo + b * step
            s["hi"] = min(hi, lo + (b + 1) * step - 1)

    return [int(s["lo"]) for s in state]


def quantiles_disc_int(ints_ds, qs: list[float]) -> pd.DataFrame:
    """Exact discrete quantiles of the int64 column ``v`` of ``ints_ds``.

    Returns a DataFrame (q float64, value int64) — one row per requested
    quantile, DuckDB ``quantile_disc`` semantics (rank uses the same IEEE
    double product ``q·n`` DuckDB computes, so edge cases agree)."""
    stats = _stats_pass(ints_ds)
    n = stats[0]
    ranks = [max(1, math.ceil(q * n)) for q in qs]
    vals = values_at_ranks(ints_ds, ranks, stats=stats)
    return pd.DataFrame(
        {"q": np.asarray(qs, np.float64),
         "value": np.asarray(vals, np.int64)}
    )


def quantiles_cont_int(ints_ds, qs: list[float]) -> pd.DataFrame:
    """Exact INTERPOLATED quantiles (DuckDB ``quantile_cont`` semantics):
    h = (n−1)·q in IEEE double — identical on both engines — then
    linear interpolation between the int values at ranks ⌊h⌋+1 and
    ⌊h⌋+2.  Returns (q float64, value float64 in the int domain); the
    caller applies its own descaling/rounding.  Costs the same narrowing
    rounds as disc with up to 2 intervals per quantile."""
    stats = _stats_pass(ints_ds)
    n = stats[0]
    hs = [(n - 1) * q for q in qs]
    need: list[int] = []
    for h in hs:
        lo_r = int(math.floor(h)) + 1
        need.append(lo_r)
        if h > math.floor(h):
            need.append(lo_r + 1)
    uniq = sorted(set(need))
    vals = dict(zip(uniq, values_at_ranks(ints_ds, uniq, stats=stats)))
    out = []
    for h in hs:
        lo_r = int(math.floor(h)) + 1
        frac = h - math.floor(h)
        v_lo = vals[lo_r]
        v = v_lo + frac * (vals[lo_r + 1] - v_lo) if frac > 0 else float(v_lo)
        out.append(v)
    return pd.DataFrame(
        {"q": np.asarray(qs, np.float64),
         "value": np.asarray(out, np.float64)}
    )


def quantiles_sketch_int(
    ints_ds, qs: list[float], *, bins: int = 4096
) -> pd.DataFrame:
    """ONE-pass approximate quantiles: a single fixed-grid histogram
    sketch over [min, max] — the mergeable-sketch member of the quantile
    family (the exact narrowing core above re-scans O(log_B range)
    times; this trades a bounded error for a single data pass after the
    (n, min, max) stats pass).

    The partial is a (bin, count) vector — associative, mergeable, and
    batch-boundary-invariant like the engine's HLL/CMS partials.  The
    estimate returns the CENTER of the bin holding rank ceil(q·n), so
    the absolute error is ≤ half the bin width ((max−min)/bins); with
    cent-scaled int64 domains and B=4096 that's ≤ 0.0125% of the range.
    Returns (q, approx) with approx still in the int domain (float)."""
    import numpy as np

    n, lo, hi = _stats_pass(ints_ds)
    width = max(1, -(-(hi - lo + 1) // bins))  # ceil; ≥1 int per bin

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b["v"].to_numpy()
        if not len(v):
            return pd.DataFrame(
                {"bin": pd.array([], "int64"), "n": pd.array([], "int64")}
            )
        idx = (v - lo) // width
        counts = np.bincount(idx, minlength=1)
        nz = np.nonzero(counts)[0]
        return pd.DataFrame(
            {"bin": pd.array(nz.astype("int64"), "int64"),
             "n": pd.array(counts[nz].astype("int64"), "int64")}
        )

    p = ints_ds.map_batches(
        arrow_out(hist_partial), batch_format="pandas"
    ).to_pandas()  # ≤ blocks × bins tiny rows — sketch-sized artifact
    hist = np.zeros(bins + 1, dtype=np.int64)
    np.add.at(hist, p["bin"].to_numpy(), p["n"].to_numpy())
    from fractions import Fraction

    cum = np.cumsum(hist)
    out = []
    for q in qs:
        # EXACT rational ceil(q·n): float ceil(q*n) can land one off when
        # the product sits a ulp above an integer (0.9 is inexact in
        # binary) — the decimal-string fraction makes the rank identical
        # to the SQL oracle's (n*num + den - 1) // den by construction
        frac = Fraction(str(q))
        rank = max(1, (n * frac.numerator + frac.denominator - 1)
                   // frac.denominator)
        b = int(np.searchsorted(cum, rank))
        approx = lo + b * width + width / 2.0
        out.append((q, float(approx)))
    return pd.DataFrame(
        {"q": pd.array([q for q, _ in out], "float64"),
         "approx": pd.array([a for _, a in out], "float64")}
    )
