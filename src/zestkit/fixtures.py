"""Published reference tables for a 13-model image-classifier portfolio.

The package ships, as data files, the published pairwise signature distances
(L-inf and cosine) for that portfolio at N in {128, 64, 32} reference points,
plus the published closest-surrogate pairs at N=128. This module loads them,
replays the argmin selection rule against the closest-pair table, and reports
how stable the distance rankings are across N.

The matrices are rounded to three decimals, so two candidates can collide
where the unrounded values would not; replay treats any candidate within
0.0005 of the minimum as tied and resolves such ties in the reference
table's favor, flagging the row.
"""

import csv
import io
import re
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError
from .util import spearman
from .zest import DistanceMetric, rank_candidates

REFERENCE_SIZES = (128, 64, 32)
TIE_WINDOW = 5e-4


def _read_packaged_csv(name):
    text = resources.files("zestkit.data").joinpath(name).read_text(encoding="utf-8")
    rows = [r for r in csv.reader(io.StringIO(text))
            if r and not r[0].lstrip().startswith("#")]
    return rows[0], rows[1:]


def model_family(model_id: str) -> str:
    """Leading alphabetic run: densenet121 -> densenet, vgg19_bn -> vgg."""
    m = re.match(r"[a-zA-Z]+", model_id)
    if not m:
        raise ConfigError(f"cannot derive a family from {model_id!r}")
    return m.group(0).lower()


@dataclass(frozen=True)
class ReferenceFixture:
    """In-memory view of the published tables.

    matrices: (metric, n) -> {(a, b): distance} with both orders present.
    closest:  (metric, target) -> (closest_id, published_distance).
    """

    model_ids: "tuple[str, ...]"
    matrices: dict
    closest: dict

    def sizes(self):
        return tuple(sorted({n for _, n in self.matrices}, reverse=True))

    def metrics(self):
        return tuple(sorted({m for m, _ in self.matrices}))

    def distance(self, metric: DistanceMetric, n: int, a: str, b: str) -> float:
        key = (DistanceMetric.parse(metric), int(n))
        if key not in self.matrices:
            raise ConfigError(f"no reference matrix for metric={key[0].value} n={key[1]}")
        try:
            return self.matrices[key][(a, b)]
        except KeyError:
            raise ConfigError(f"pair ({a!r}, {b!r}) absent from reference matrix") from None

    def candidates(self, metric: DistanceMetric, n: int, target: str):
        """(proxy_id, distance) for every other model in the portfolio."""
        if target not in self.model_ids:
            raise ConfigError(f"unknown model id {target!r}")
        return [(other, self.distance(metric, n, target, other))
                for other in self.model_ids if other != target]


def load_reference_fixture() -> ReferenceFixture:
    header, rows = _read_packaged_csv("reference_closest_pairs.csv")
    if header != ["metric", "target", "closest", "distance"]:
        raise ConfigError("unexpected closest-pairs header")
    closest = {}
    for metric_s, target, best, dist in rows:
        closest[(DistanceMetric.parse(metric_s), target)] = (best, float(dist))

    matrices = {}
    ids = set()
    for n in REFERENCE_SIZES:
        header, rows = _read_packaged_csv(f"reference_distances_n{n}.csv")
        if header != ["metric", "model_a", "model_b", "distance"]:
            raise ConfigError("unexpected distance-matrix header")
        for metric_s, a, b, dist in rows:
            metric = DistanceMetric.parse(metric_s)
            if a == b:
                raise ConfigError("reference matrices must not carry a diagonal")
            table = matrices.setdefault((metric, n), {})
            if (a, b) in table:
                raise ConfigError(f"duplicate pair ({a}, {b}) in n={n} table")
            d = float(dist)
            table[(a, b)] = d
            table[(b, a)] = d
            ids.update((a, b))
    fixture = ReferenceFixture(model_ids=tuple(sorted(ids)), matrices=matrices,
                               closest=closest)
    # symmetry + completeness: every unordered pair present exactly once
    expect = len(fixture.model_ids) * (len(fixture.model_ids) - 1)
    for key, table in matrices.items():
        if len(table) != expect:
            raise ConfigError(f"reference matrix {key} is not a full pairwise table")
    return fixture


@dataclass(frozen=True)
class ReplayRow:
    target: str
    expected: str
    chosen: str
    matrix_distance: float
    published_distance: float
    matched: bool
    tie_flagged: bool
    family_match: bool


@dataclass(frozen=True)
class ReplayReport:
    metric: DistanceMetric
    n: int
    rows: "tuple[ReplayRow, ...]"

    @property
    def matches(self) -> int:
        return sum(r.matched for r in self.rows)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def passed(self) -> bool:
        return self.matches == self.total

    @property
    def family_matches(self) -> int:
        return sum(r.family_match for r in self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["target", "expected", "chosen", "matrix_distance",
                    "published_distance", "matched", "tie_flagged", "family_match"])
        for r in self.rows:
            w.writerow([r.target, r.expected, r.chosen, repr(r.matrix_distance),
                        repr(r.published_distance), int(r.matched),
                        int(r.tie_flagged), int(r.family_match)])
        return buf.getvalue()


def replay_reference(fixture: ReferenceFixture, metric: DistanceMetric,
                     n: int = 128) -> ReplayReport:
    """Re-run argmin surrogate selection on a reference matrix and compare
    it to the published closest-pair table."""
    metric = DistanceMetric.parse(metric)
    n = int(n)
    if (metric, n) not in fixture.matrices:
        raise ConfigError(f"no reference matrix for metric={metric.value} n={n}")
    targets = sorted(t for m, t in fixture.closest if m == metric)
    if not targets:
        raise ConfigError(f"no published closest pairs for metric={metric.value}")
    rows = []
    for target in targets:
        expected, published = fixture.closest[(metric, target)]
        ordered, _ = rank_candidates(fixture.candidates(metric, n, target))
        best = ordered[0][1]
        tied = [pid for pid, d in ordered if d <= best + TIE_WINDOW + 1e-12]
        tie = len(tied) > 1
        matched = expected in tied
        chosen = expected if matched else ordered[0][0]
        rows.append(ReplayRow(
            target=target, expected=expected, chosen=chosen,
            matrix_distance=fixture.distance(metric, n, target, chosen),
            published_distance=published, matched=matched, tie_flagged=tie,
            family_match=model_family(target) == model_family(chosen)))
    return ReplayReport(metric=metric, n=n, rows=tuple(rows))


@dataclass(frozen=True)
class StabilityRow:
    victim: str
    rho_full_vs_half: float   # N=128 ranking vs N=64
    rho_full_vs_quarter: float  # N=128 ranking vs N=32


@dataclass(frozen=True)
class StabilityReport:
    metric: DistanceMetric
    rows: "tuple[StabilityRow, ...]"

    @property
    def mean_full_vs_half(self) -> float:
        return sum(r.rho_full_vs_half for r in self.rows) / len(self.rows)

    @property
    def mean_full_vs_quarter(self) -> float:
        return sum(r.rho_full_vs_quarter for r in self.rows) / len(self.rows)

    @property
    def majority_half_at_least_quarter(self) -> bool:
        wins = sum(r.rho_full_vs_half >= r.rho_full_vs_quarter for r in self.rows)
        return wins * 2 > len(self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["victim", "spearman_n128_vs_n64", "spearman_n128_vs_n32"])
        for r in self.rows:
            w.writerow([r.victim, repr(r.rho_full_vs_half),
                        repr(r.rho_full_vs_quarter)])
        return buf.getvalue()


def compare_rank_stability(fixture: ReferenceFixture,
                           metric: DistanceMetric) -> StabilityReport:
    """Per-victim Spearman agreement of distance rankings across N.

    Reported, not asserted: the published claim is qualitative (smaller N
    drifts more).
    """
    metric = DistanceMetric.parse(metric)
    rows = []
    for victim in fixture.model_ids:
        order = [pid for pid, _ in fixture.candidates(metric, 128, victim)]
        d128 = [fixture.distance(metric, 128, victim, p) for p in order]
        d64 = [fixture.distance(metric, 64, victim, p) for p in order]
        d32 = [fixture.distance(metric, 32, victim, p) for p in order]
        rows.append(StabilityRow(victim=victim,
                                 rho_full_vs_half=spearman(d128, d64),
                                 rho_full_vs_quarter=spearman(d128, d32)))
    return StabilityReport(metric=metric, rows=tuple(rows))
