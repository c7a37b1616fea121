"""Random-search model selection: K + 1 random candidates, keep the best.

An initial candidate plus K loop candidates are drawn, each with its own
random partition (and, optionally, random fusion weights from the flat
simplex), fit in one shot and scored. "Better" means strictly lower
evaluation MSE, so ties keep the earlier candidate. All randomness comes
from named substreams of the config seed, which makes the leaderboard
and the returned model exact functions of (dataset, config).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .activation import ActivationKind, LINEAR
from .datasets import Dataset
from .ioutil import write_csv_rows
from .model import _check_alphas
from .partition import Partition, random_partition
from .seeding import ALPHA_STREAM, HOLDOUT_STREAM, PARTITION_STREAM, substream
from .trainer import FitConfig, fit, mse

__all__ = [
    "SelectionConfig",
    "CandidateResult",
    "Leaderboard",
    "sample_alpha_simplex",
    "select_model",
]


@dataclass(frozen=True)
class SelectionConfig:
    """Search settings. candidates is K, the loop count of the search;
    K + 1 models are evaluated in total."""

    candidates: int
    count_range: tuple[int, int] | Sequence[tuple[int, int]] = (2, 6)
    alphas: tuple[float, ...] | None = None  # None: random simplex draw per candidate
    activation: ActivationKind = LINEAR
    eval_mode: str = "holdout"  # or "training"
    holdout_fraction: float = 0.2
    seed: int = 0
    ridge: float | None = None
    min_rows_policy: str = "fallback_mean"
    activation_scope: str = "subspace"

    def __post_init__(self):
        if self.candidates < 1:
            raise ValueError(f"need K >= 1 candidates, got {self.candidates}")
        if self.eval_mode not in ("holdout", "training"):
            raise ValueError(f"unknown eval_mode {self.eval_mode!r}")
        if not 0.0 < self.holdout_fraction <= 0.5:
            raise ValueError(
                f"holdout fraction must be in (0, 0.5], got {self.holdout_fraction}"
            )
        if self.ridge is not None and not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and nonnegative, got {self.ridge}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.alphas is not None:
            object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
            _check_alphas(self.alphas)


@dataclass(frozen=True)
class CandidateResult:
    """One scored candidate."""

    candidate: int
    partition: Partition
    alphas: tuple[float, ...]
    eval_mse: float
    train_mse: float
    fit_seconds: float

    @property
    def counts_label(self) -> str:
        return self.partition.counts_label()


@dataclass(frozen=True)
class Leaderboard:
    """Candidates sorted by ascending evaluation MSE, winner first.

    CSV output carries only the deterministic columns; per-candidate fit
    times stay on the entries and the winner's refit time here (wall
    clock is not reproducible).
    """

    entries: tuple[CandidateResult, ...]
    refit_seconds: float = 0.0

    def __post_init__(self):
        if not self.entries:
            raise ValueError("leaderboard cannot be empty")

    @property
    def best(self) -> CandidateResult:
        return self.entries[0]

    @property
    def total_fit_seconds(self) -> float:
        return sum(e.fit_seconds for e in self.entries)

    def to_csv(self, path) -> None:
        write_csv_rows(path, [
            ["rank", "candidate", "partition", "alphas", "eval_mse", "train_mse"],
            *([rank, e.candidate, e.counts_label, ";".join(repr(a) for a in e.alphas),
               repr(e.eval_mse), repr(e.train_mse)] for rank, e in enumerate(self.entries)),
        ])


def sample_alpha_simplex(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the n-simplex via sorted uniform spacings."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    cuts = np.sort(rng.uniform(0.0, 1.0, size=n - 1))
    alphas = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
    return alphas / alphas.sum()


def _subset(dataset: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(dataset.X[idx], dataset.y[idx], dataset.domain)


def select_model(dataset: Dataset, config: SelectionConfig):
    """Run the search and return (best model, leaderboard).

    Candidates are scored on a seeded holdout split (default) or on
    their own training MSE. Under holdout scoring the winning candidate
    is refit on the full dataset before being returned. If every
    candidate fails to fit, the last error propagates.

    Returns (PairNetModel, Leaderboard).
    """
    if len(dataset) == 0:
        raise ValueError("cannot select on an empty dataset")
    n = dataset.n

    if config.eval_mode == "holdout":
        rng = substream(config.seed, HOLDOUT_STREAM)
        perm = rng.permutation(len(dataset))
        n_hold = max(1, int(round(config.holdout_fraction * len(dataset))))
        hold, rest = perm[:n_hold], perm[n_hold:]
        fit_set, eval_set = _subset(dataset, rest), _subset(dataset, hold)
    else:
        fit_set = eval_set = dataset

    entries = []
    best_model = last_error = None   # training mode keeps the best fit so far
    for t in range(config.candidates + 1):
        part = random_partition(
            dataset.domain, config.count_range, substream(config.seed, PARTITION_STREAM, t)
        )
        if config.alphas is None:
            draw = sample_alpha_simplex(n, substream(config.seed, ALPHA_STREAM, t))
            alphas = tuple(float(a) for a in draw)
        else:
            alphas = config.alphas
        fit_cfg = FitConfig(
            alphas=alphas, activation=config.activation, ridge=config.ridge,
            min_rows_policy=config.min_rows_policy, activation_scope=config.activation_scope,
        )
        try:
            model, report = fit(fit_set, part, fit_cfg)
            entries.append(CandidateResult(
                candidate=t, partition=part, alphas=alphas,
                eval_mse=mse(model, eval_set), train_mse=report.train_mse,
                fit_seconds=report.fit_seconds,
            ))
            if config.eval_mode == "training" and (
                    best_model is None or entries[-1].eval_mse < best_mse):
                best_model, best_mse = model, entries[-1].eval_mse
        except Exception as exc:  # noqa: BLE001 - candidate failures are data
            last_error = exc
    if not entries:
        raise last_error

    entries.sort(key=lambda e: e.eval_mse)  # stable: ties keep the earlier candidate
    winner = entries[0]

    if config.eval_mode == "holdout":
        t0 = time.perf_counter()
        fit_cfg = FitConfig(
            alphas=winner.alphas, activation=config.activation, ridge=config.ridge,
            min_rows_policy=config.min_rows_policy, activation_scope=config.activation_scope,
        )
        best_model, _ = fit(dataset, winner.partition, fit_cfg)
        refit_seconds = time.perf_counter() - t0
    else:
        refit_seconds = 0.0

    # Provenance travels with the saved model, so it holds only facts that
    # are identical across equal-seed runs; timing lives on the board.
    best_model.provenance.update({
        "seed": config.seed,
        "candidate": winner.candidate,
        "eval_mode": config.eval_mode,
    })
    return best_model, Leaderboard(tuple(entries), refit_seconds=refit_seconds)
