"""Benchmark inputs: raw station records and coordinates from a seed.

A graph-smooth panel from ``netselect.evaluation.synth_generate`` is
turned into the raw ``station,moment,bikes,spaces`` feed that
``netselect ingest`` reads. Every station reports once on each hour and
a Poisson number of times more at random moments inside the hour (the
workload sets the rate), so ingest parses, cleans and interpolates real
records while the hourly panel it rebuilds equals the generated one up
to the bike-count rounding. Two dirty stations are added that the
cleaning rule must drop.

The generated panel plants near-duplicate sensors (a copy of another
sensor's signal with tiny noise) and one pure-noise sensor, whose panel
indices are returned so the benchmark can check the selection.

The network layout (coordinates, capacities, planted sensors) is drawn
from a fixed layout seed, like one city; the run seed draws the signals
and the record moments, like one stretch of days in it. The random
baseline subsets then hit the same planted sensors on every seed, which
keeps the MSE ratio steady from seed to seed.
"""

import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import List, Tuple

import numpy as np

from netselect.evaluation import synth_generate
from netselect.graph import build_knn_graph

LAYOUT_SEED = 2020
EPOCH0 = 1_546_300_800          # 2019-01-01T00:00:00Z
HOUR = 3600
LAT0, LON0 = 48.80, 2.25        # south-west corner of the station box
BOX = (0.10, 0.17)              # degrees of latitude and longitude
LEVEL_MID, LEVEL_SCALE = 0.5, 0.1
CAPACITY = (2000, 4000)         # docks per station; fine rounding of levels
ISO_EVERY = 10                  # every 10th station writes ISO-8601 moments
DIRTY_RC = "x_badcap"           # capacity rarely at its maximum: fails --rc
DIRTY_FEW = "x_sparse"          # too few records: fails --min-records
FEW_RECORDS = 60
N_PAIRS = 3                     # planted near-duplicate pairs
K0, K1 = 20, 7                  # kNN graph of the panel; must equal the
                                # `netselect select` defaults --k0/--k1


@dataclass(frozen=True)
class Inputs:
    pairs: List[Tuple[int, int]]  # (source, near-duplicate) panel indices
    noise: int                    # pure-noise sensor index
    records: int                  # rows of raw.csv
    stations: List[str]           # clean station ids, in panel order


def station_id(i):
    return f"s{i:04d}"


def _plant(rng, n):
    picks = [int(i) for i in rng.choice(n, size=2 * N_PAIRS + 1, replace=False)]
    pairs = [(picks[2 * k], picks[2 * k + 1]) for k in range(N_PAIRS)]
    return pairs, picks[-1]


def write_inputs(out_dir, n, T, seed, extra_per_hour) -> Inputs:
    """Write raw.csv and coords.csv for an n-sensor, T-hour network."""
    layout = np.random.default_rng([LAYOUT_SEED, n])
    coords = np.column_stack([LAT0 + BOX[0] * layout.random(n),
                              LON0 + BOX[1] * layout.random(n)])
    pairs, noise = _plant(layout, n)
    caps = layout.integers(CAPACITY[0], CAPACITY[1], size=n)
    rng = np.random.default_rng([seed, n, T])
    graph = build_knn_graph(coords, K0, K1)
    panel = synth_generate(graph, T, "graph-smooth", seed=seed,
                           redundant_pairs=pairs, noise_sensors=[noise])
    levels = LEVEL_MID + LEVEL_SCALE * panel.values          # (n, T)
    if levels.min() <= 0.0 or levels.max() >= 1.0:
        raise ValueError("generated fill levels leave (0, 1); lower LEVEL_SCALE")

    # one record per station on each hour, plus a Poisson number of extra
    # records at random moments inside each hour
    extra = rng.poisson(extra_per_hour, size=(n, T - 1))
    station = np.concatenate([np.repeat(np.arange(n), T),
                              np.repeat(np.arange(n), extra.sum(axis=1))])
    hour = np.concatenate([np.tile(np.arange(T), n),
                           np.concatenate([np.repeat(np.arange(T - 1), row)
                                           for row in extra])])
    frac = np.concatenate([np.zeros(n * T),
                           0.01 + 0.98 * rng.random(int(extra.sum()))])
    hour_next = np.minimum(hour + 1, T - 1)
    level = levels[station, hour] + frac * (levels[station, hour_next]
                                            - levels[station, hour])
    moment = EPOCH0 + np.floor((hour + frac) * HOUR).astype(np.int64)
    bikes = np.rint(level * caps[station]).astype(np.int64)
    spaces = caps[station] - bikes

    # dirty station n: broken docks on most records, so the capacity
    # reaches its maximum in well under half of them; dirty station n+1:
    # a short-lived station with too few records
    cap = 30
    broken = np.where(rng.random(T) < 0.7, rng.integers(1, 4, size=T), 0)
    dirty_bikes = rng.integers(0, cap - broken + 1)
    few_bikes = rng.integers(0, cap + 1, size=FEW_RECORDS)
    station = np.concatenate([station, np.full(T, n), np.full(FEW_RECORDS, n + 1)])
    moment = np.concatenate([moment, EPOCH0 + np.arange(T) * HOUR,
                             EPOCH0 + np.arange(FEW_RECORDS) * HOUR])
    bikes = np.concatenate([bikes, dirty_bikes, few_bikes])
    spaces = np.concatenate([spaces, cap - broken - dirty_bikes, cap - few_bikes])

    order = np.lexsort((station, moment))
    station, moment, bikes, spaces = (a[order] for a in (station, moment, bikes, spaces))
    stamps = moment.astype(str)
    iso = (station < n) & (station % ISO_EVERY == ISO_EVERY - 1)
    stamps[iso] = np.datetime_as_string(moment[iso].astype("datetime64[s]"))
    names = [station_id(i) for i in range(n)] + [DIRTY_RC, DIRTY_FEW]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "raw.csv"), "w", encoding="utf-8") as fh:
        fh.write("station,moment,bikes,spaces\n")
        fh.writelines(f"{names[i]},{m},{b},{sp}\n" for i, m, b, sp in zip(
            station.tolist(), stamps.tolist(), bikes.tolist(), spaces.tolist()))
    with open(os.path.join(out_dir, "coords.csv"), "w", encoding="utf-8") as fh:
        fh.write("sensor_id,lat,lon\n")
        fh.writelines(f"{station_id(i)},{float(coords[i, 0])!r},{float(coords[i, 1])!r}\n"
                      for i in range(n))
        fh.write(f"{DIRTY_RC},{LAT0!r},{LON0!r}\n{DIRTY_FEW},{LAT0 + BOX[0]!r},{LON0!r}\n")
    return Inputs(pairs, noise, int(station.size), names[:n])


if __name__ == "__main__":
    # gen.py OUT_DIR N T SEED EXTRA_PER_HOUR; prints the Inputs as JSON
    out_dir, n, T, seed, extra = sys.argv[1:6]
    inputs = write_inputs(out_dir, int(n), int(T), int(seed), float(extra))
    print(json.dumps(asdict(inputs)))
