"""Synthetic drift streams, base-model training, CSV ingestion.

Every stream is described declaratively by a StreamSpec and built
bit-reproducibly from its seed. Randomness is split per purpose through
named substreams of numpy's SeedSequence, so generator noise, hedging
draws, and shuffles never interact.

Kinds:
  cov1d      scalar X drifts (mean (t-1)/250, variance 4); Y|X is a fixed
             periodic 0.1/0.9 rule on floor(X/5) parity
  label1d    class prior decays 0.95 -> ~0.05; X|Y ~ N(0,1) / N(2,1)
  reg1d      X ~ N(0, 10) fixed; the regression function interpolates
             between the 0.1/0.9 rule and a flat 0.5
  covmulti   X ~ N(0, I_10 + 10 u_t u_t^T) with the principal axis u_t
             rotating; Y|X logistic over all pairwise cross-terms
  labelmulti prior 0.5 + delta*t; X|Y ~ N(0, I_10) / N(e_1, I_10)
  csv        local file, shuffled (i.i.d.) or noisily sorted by a column
             (induced covariate drift)
  adversarial i.i.d. uniform scores; outcomes are produced by the
             forecast adversary at run time

Each synthetic kind is one row of ``_SYNTH`` (sampler, base-model
featurization, canonical drift rate), and ``generate`` draws any of them.
Synthetic kinds carry the exact conditional probability Pr(Y=1 | X=x_t)
("truth") for the truth-referenced metrics. The base model is a logistic
regression trained on the first T_train points; its scores are clipped to
[0.01, 0.99] at ingestion.

covmulti draws its noise whole, then builds x and the logit over the 55
pairwise terms in blocks of COVMULTI_BLOCK = 1,024 rows, so no T x 55
design is held. The block size stays a multiple of 4 and a last single
row joins the block before it: then each block's matrix-vector product
groups rows as the whole product does, and the stream keeps the bits of
the whole-design build. ``TestCovMulti.test_row_blocks_equal_the_whole_design``
compares the two byte for byte, and ``TestGoldenStreams`` and
``TestGoldenReplication`` pin the streams and a replication's outputs.
"""

from __future__ import annotations

import csv as _csv
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import scalers
from .core import CLIP_HI, CLIP_LO, check_count, clip_score, sigmoid

# substream purposes
P_STREAM = 0
P_HEDGE = 1
P_SHUFFLE = 2
P_HEDGE_BETA = 3

def substream(seed: int, *keys: int) -> np.random.Generator:
    """Independent generator for (seed, keys...) - order-free and stable."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, keys)]))


def replication_seed(master_seed: int, rep: int) -> int:
    """Derived 64-bit seed for one replication of an experiment."""
    ss = np.random.SeedSequence([int(master_seed), int(rep)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class StreamSpec:
    """Declarative stream description; see the module docstring for kinds."""

    kind: str
    seed: int = 0
    T_train: int = 1000
    T_test: int = 5000
    T_cal: int = 0
    W: int = 500  # the refit period; snapshots start at T_cal + 2W
    delta: float = 0.0
    csv_path: str | None = None
    label_column: str | None = None
    sortby_column: str | None = None
    score_column: str | None = None

    def __post_init__(self):
        if self.kind not in _SYNTH and self.kind not in ("csv", "adversarial"):
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.kind == "csv" and (self.csv_path is None or self.label_column is None):
            raise ValueError("csv streams need csv_path and label_column")
        for noun, least in (("seed", 0), ("T_train", 0), ("T_cal", 0), ("T_test", 1), ("W", 1)):
            object.__setattr__(self, noun, check_count(getattr(self, noun), noun, least))
        if self.kind == "adversarial" and self.T_cal != 0:
            raise ValueError("adversarial streams have no calibration prefix (T_cal must be 0)")
        if self.T_train < 1 and (self.kind in _SYNTH or (self.kind == "csv" and self.score_column is None)):
            raise ValueError(f"T_train must be >= 1: the {self.kind} stream trains its base model on it")
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")
        if self.delta != 0.0 and (self.kind not in _SYNTH or _SYNTH[self.kind].delta is None):
            drifting = ", ".join(k for k, row in _SYNTH.items() if row.delta is not None)
            raise ValueError(f"stream kind {self.kind!r} does not drift, so delta must be 0 "
                             f"(it applies to {drifting})")
        if self.kind == "labelmulti" and not all(0.0 < 0.5 + self.delta * t < 1.0 for t in (1, self.T_total)):
            # the prior is linear in t, so its ends bound it
            raise ValueError(f"labelmulti prior 0.5 + delta*t must lie in (0, 1) for t in [1, {self.T_total}]; "
                             "reduce delta or T_test")

    @property
    def T_total(self) -> int:
        return self.T_train + self.T_test


def default_spec(kind: str, seed: int = 0, drift: bool = True) -> StreamSpec:
    """Canonical sizes per kind; drift=False selects the i.i.d. variant of
    the multivariate kinds (delta = 0)."""
    if kind == "adversarial":
        return StreamSpec(kind=kind, seed=seed, T_train=0, T_test=10000, T_cal=0, W=500)
    if kind not in _SYNTH:
        raise ValueError(f"no canonical spec for stream kind {kind!r} (build csv specs explicitly)")
    delta = _SYNTH[kind].delta
    return StreamSpec(kind=kind, seed=seed, T_train=1000, T_test=5000, W=500,
                      T_cal=0 if delta is None else 1000, delta=(delta or 0.0) if drift else 0.0)


def sinusoidal_features(x) -> np.ndarray:
    """48-dim expansion sin(x/freq + translation) for freq in 1..6 and
    translation in {0, pi/4, ..., 7pi/4}, plus a trailing intercept."""
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    freqs = np.arange(1, 7, dtype=float)
    trans = np.arange(8) * (np.pi / 4.0)
    cols = [np.sin(x / f + tr) for f in freqs for tr in trans]
    return np.column_stack(cols + [np.ones(len(x))])


def pairwise_expand(X: np.ndarray) -> np.ndarray:
    """[x_1..x_d, x_1 x_2, x_1 x_3, ..., x_{d-1} x_d]: d + C(d,2) columns."""
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    cross = [X[:, i] * X[:, j] for i in range(d) for j in range(i + 1, d)]
    return np.column_stack([X] + cross)


def _with_intercept(X: np.ndarray) -> np.ndarray:
    return np.column_stack([X, np.ones(len(X))])


@dataclass(eq=False)
class LabeledStream:
    """Raw covariates, model features (with intercept), outcomes, truth."""

    x: np.ndarray
    features: np.ndarray
    y: np.ndarray
    truth: np.ndarray | None


def _periodic_rule(x, lo: float, hi: float) -> np.ndarray:
    """lo where floor(x/5) is even, hi where odd."""
    parity = np.mod(np.floor(np.asarray(x, dtype=float) / 5.0), 2.0)
    return np.where(parity == 0.0, lo, hi)


def cov1d_at(t, rng: np.random.Generator):
    """Sample (x, y, truth) of the covariate-drift process at time indices t."""
    t = np.asarray(t, dtype=float)
    x = rng.normal(loc=(t - 1.0) / 250.0, scale=2.0)
    truth = _periodic_rule(x, 0.1, 0.9)
    y = (rng.random(len(t)) < truth).astype(float)
    return x, y, truth


def label1d_at(t, rng: np.random.Generator):
    """Sample the label-drift process: prior 0.95(1-a) + 0.05a, a=(t-1)/6000."""
    t = np.asarray(t, dtype=float)
    alpha = (t - 1.0) / 6000.0
    prior = 0.95 * (1.0 - alpha) + 0.05 * alpha
    y = (rng.random(len(t)) < prior).astype(float)
    x = rng.normal(loc=2.0 * y, scale=1.0)
    # posterior of N(2,1) vs N(0,1) at the time-t prior
    truth = sigmoid(np.log(prior / (1.0 - prior)) + 2.0 * x - 2.0)
    return x, y, truth


def reg1d_at(t, rng: np.random.Generator):
    """Sample the regression-function-drift process, a = (t-1)/5000."""
    t = np.asarray(t, dtype=float)
    alpha = (t - 1.0) / 5000.0
    x = rng.normal(loc=0.0, scale=math.sqrt(10.0), size=len(t))
    lo = 0.1 * (1.0 - alpha) + 0.5 * alpha
    hi = 0.9 * (1.0 - alpha) + 0.5 * alpha
    truth = np.clip(np.where(_periodic_rule(x, 0.0, 1.0) == 0.0, lo, hi), 0.0, 1.0)
    y = (rng.random(len(t)) < truth).astype(float)
    return x, y, truth


# Rows per block of the covmulti build: a multiple of 4, as row blocks of
# 1, 3 or 7 do not keep the whole product's bits (see the module docstring)
COVMULTI_BLOCK = 1024


def covmulti_at(t, delta: float, rng: np.random.Generator):
    """Sample the rotating-covariance process at time indices t.

    Draws the orthonormal pair (v1, v2) and the sign vector w once per
    call; X_t = z + sqrt(10) g u_t realizes N(0, I + 10 u_t u_t^T) exactly.
    The noise z and g is drawn whole, then x and the logit are filled
    COVMULTI_BLOCK rows at a time, so no T x 55 design is held.
    """
    t = np.asarray(t, dtype=float)
    n = len(t)
    g1 = rng.normal(size=10)
    v1 = g1 / np.linalg.norm(g1)
    g2 = rng.normal(size=10)
    g2 -= (g2 @ v1) * v1
    v2 = g2 / np.linalg.norm(g2)
    w = rng.choice(np.array([-1.0, 1.0]), size=55)
    z = rng.normal(size=(n, 10))
    g = rng.normal(size=n)
    x, logit = np.empty((n, 10)), np.empty(n)
    # numpy takes a one-row product down its dot path, not the matrix-vector
    # product, so a last single row joins the block before it
    stops = [*range(COVMULTI_BLOCK, n - 1, COVMULTI_BLOCK), n]
    for start, stop in zip([0, *stops], stops):
        b = slice(start, stop)
        u = np.outer(np.cos(delta * t[b]), v1) + np.outer(np.sin(delta * t[b]), v2)
        np.add(z[b], math.sqrt(10.0) * g[b, None] * u, out=x[b])
        logit[b] = pairwise_expand(x[b]) @ w
    truth = sigmoid(logit, out=logit)
    y = (rng.random(n) < truth).astype(float)
    return x, y, truth


def labelmulti_at(t, delta: float, rng: np.random.Generator):
    """Sample the multivariate label-drift process: prior 0.5 + delta*t."""
    t = np.asarray(t, dtype=float)
    n = len(t)
    prior = 0.5 + delta * t
    if np.any(prior <= 0.0) or np.any(prior >= 1.0):
        raise ValueError("label prior left (0, 1); reduce delta or T")
    y = (rng.random(n) < prior).astype(float)
    x = rng.normal(size=(n, 10))
    x[:, 0] += y
    # posterior of N(e1, I) vs N(0, I): only the first coordinate informs
    truth = sigmoid(np.log(prior / (1.0 - prior)) + x[:, 0] - 0.5)
    return x, y, truth


class _Synth(NamedTuple):  # one synthetic kind: how its stream is drawn and featurized
    sample: Callable  # (t, [delta,] rng) -> (x, y, truth) at time indices t
    features: Callable  # x -> base-model feature rows, intercept last
    delta: float | None  # canonical drift rate; None: the sampler takes none


_SYNTH = {
    "cov1d": _Synth(cov1d_at, sinusoidal_features, None),
    "label1d": _Synth(label1d_at, _with_intercept, None),
    "reg1d": _Synth(reg1d_at, sinusoidal_features, None),
    # a 180-degree rotation over the full index
    "covmulti": _Synth(covmulti_at, _with_intercept, math.pi / 6000.0),
    # a final class prior of 0.9
    "labelmulti": _Synth(labelmulti_at, _with_intercept, 0.4 / 6000.0),
}


def generate(spec: StreamSpec) -> LabeledStream:
    """Draw a synthetic stream at t = 1 .. T_total from substream
    (seed, P_STREAM); the multivariate kinds drift at ``spec.delta``."""
    row = _SYNTH[spec.kind]
    drift = () if row.delta is None else (spec.delta,)
    x, y, truth = row.sample(np.arange(1, spec.T_total + 1), *drift, substream(spec.seed, P_STREAM))
    return LabeledStream(x=x, features=row.features(x), y=y, truth=truth)


@dataclass(eq=False)
class BaseModelWeights:
    """Logistic weights over the stream's featurization (intercept last)."""

    w: np.ndarray
    converged: bool
    n_iter: int


# L2 strength of every base model. This is the common library default for
# logistic regression (penalty 1/2 ||w||^2 against the summed log-loss) and
# is what reproduces the reported end-of-stream flip behavior of the 1-D
# drift experiments.
BASE_MODEL_RIDGE = 1.0


def train_base_logistic(features, labels) -> BaseModelWeights:
    """Full-batch damped Newton on log-loss with ridge BASE_MODEL_RIDGE.

    Non-convergence within 200 iterations returns the best iterate with
    converged=False rather than raising.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(X) == 0:
        raise ValueError("empty training block")
    w, converged, n_iter = scalers.newton_logistic(X, y, init=np.zeros(X.shape[1]), ridge=BASE_MODEL_RIDGE, radius=None)
    return BaseModelWeights(w=w, converged=converged, n_iter=n_iter)


def base_scores(model: BaseModelWeights, features) -> np.ndarray:
    """Clipped base-model scores sigmoid(w . feature)."""
    return np.clip(sigmoid(np.asarray(features, dtype=float) @ model.w), CLIP_LO, CLIP_HI)


@dataclass(eq=False)
class ScoredStream:
    """A stream with base scores attached; the pipeline's input.

    Arrays cover the full sequence (train block + test stream); the test
    stream starts at 0-based index T_train (global time T_train + 1).
    """

    spec: StreamSpec
    scores: np.ndarray
    y: np.ndarray
    truth: np.ndarray | None
    base: BaseModelWeights | None
    n_dropped_rows: int = 0

    @property
    def T_train(self) -> int:
        return self.spec.T_train

    def test_scores(self) -> np.ndarray:
        return self.scores[self.T_train:]

    def test_y(self) -> np.ndarray:
        return self.y[self.T_train:]

    def test_truth(self) -> np.ndarray | None:
        return None if self.truth is None else self.truth[self.T_train:]


def build_scored_stream(spec: StreamSpec) -> ScoredStream:
    """Generate/ingest the stream and attach clipped base scores."""
    if spec.kind == "adversarial":
        rng = substream(spec.seed, P_STREAM)
        scores = CLIP_LO + (CLIP_HI - CLIP_LO) * rng.random(spec.T_test)
        return ScoredStream(spec=spec, scores=scores, y=np.zeros(spec.T_test),
                            truth=None, base=None)
    if spec.kind == "csv":
        return ingest_csv(spec)
    stream = generate(spec)
    model = train_base_logistic(stream.features[: spec.T_train], stream.y[: spec.T_train])
    scores = base_scores(model, stream.features)
    return ScoredStream(spec=spec, scores=scores, y=stream.y, truth=stream.truth, base=model)


def ingest_csv(spec: StreamSpec) -> ScoredStream:
    """Load the local CSV a csv ``spec`` describes into a scored stream.

    The spec gives the path, the columns, the seed and the block sizes;
    T_test becomes the number of rows after T_train. With ``sortby_column``
    the data is ordered by that column plus i.i.d. uniform {-1, 0, 1} noise
    (stable sort - induced covariate drift); otherwise rows are shuffled
    uniformly (the i.i.d. protocol). Base scores come from ``score_column``
    when given (it must lie in [0, 1]; ``core.clip_score`` raises
    otherwise), else from a logistic model trained on the first T_train
    rows. Rows with missing or non-numeric values are dropped and counted.
    """
    if spec.kind != "csv":
        raise ValueError(f"ingest_csv reads csv streams, not {spec.kind!r}")
    with open(spec.csv_path, newline="", encoding="utf-8") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV")
        rows = list(reader)
    header = [h.strip() for h in header]
    for col in filter(None, (spec.label_column, spec.sortby_column, spec.score_column)):
        if col not in header:
            raise ValueError(f"column {col!r} not in CSV header")
    label_i = header.index(spec.label_column)
    sort_i = header.index(spec.sortby_column) if spec.sortby_column else None
    score_i = header.index(spec.score_column) if spec.score_column else None
    feature_is = [
        i for i, h in enumerate(header) if i != label_i and i != score_i
    ]

    parsed = []
    for row in rows:
        try:
            vals = [float(v) for v in row]
        except ValueError:
            continue
        if len(vals) == len(header) and all(map(math.isfinite, vals)):
            parsed.append(vals)
    n_dropped = len(rows) - len(parsed)
    if not parsed:
        raise ValueError("no usable rows in CSV")
    data = np.asarray(parsed, dtype=float)
    labels = data[:, label_i]
    if not np.all(np.isin(labels, (0.0, 1.0))):
        raise ValueError("label column must be binary 0/1")

    need = spec.T_train + spec.T_cal + 2 * spec.W
    if len(data) < need:
        raise ValueError(f"CSV has {len(data)} usable rows; need at least {need}")

    rng = substream(spec.seed, P_SHUFFLE)
    if spec.sortby_column is not None:
        noisy = data[:, sort_i] + rng.integers(-1, 2, size=len(data)).astype(float)
        order = np.argsort(noisy, kind="stable")
    else:
        order = rng.permutation(len(data))
    data = data[order]

    T_total = len(data)
    spec = replace(spec, T_test=T_total - spec.T_train)
    y = data[:, label_i]
    if score_i is not None:
        scores = clip_score(data[:, score_i])
        model = None
    else:
        feats = _with_intercept(data[:, feature_is])
        model = train_base_logistic(feats[: spec.T_train], y[: spec.T_train])
        scores = base_scores(model, feats)
    return ScoredStream(spec=spec, scores=scores, y=y, truth=None, base=model,
                        n_dropped_rows=n_dropped)
