"""Columnar configuration batches: the solver's input side.

:class:`ConfigBatch` holds K same-shape :class:`~repro.core.config.SystemConfig`
instances as contiguous ``(K, n)`` / ``(K, m)`` / ``(K,)`` NumPy columns —
the stacked per-client tables, cost-model vectors and scalar fields that
:class:`~repro.core.batched.BatchedQuHE` would otherwise rebuild from Python
objects on every call.  Stacking happens once, at construction, and the
Stage-2 tables and the Stage-3 interior-point core read column views.

:class:`SolutionBatch` is what a columnar solve returns: the solver's own
:class:`~repro.core.quhe.QuHEResult` objects in batch order.

Columns are *views into shared arrays*; treat them as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.quhe import QuHEResult
from repro.core.stage3_ipm import Stage3Constants

__all__ = ["ConfigBatch", "SolutionBatch"]


#: Column names of :class:`ConfigBatch`, grouped by shape.
_CONFIG_CLIENT_COLS = (
    "min_rates", "encryption_cycles", "client_max_frequency",
    "client_capacitance", "max_power", "privacy_weights", "upload_bits",
    "num_tokens", "tokens_per_sample", "channel_gains", "tokens_ratio",
)
_CONFIG_MODEL_COLS = ("lambda_set", "server_cycles", "msl_bits")
_CONFIG_SCALAR_COLS = (
    "noise_psd", "tolerance", "alpha_qkd", "alpha_msl", "alpha_t", "alpha_e",
    "b_total", "fs_total", "kappa_s",
)


@dataclass(frozen=True)
class ConfigBatch:
    """K same-shape configurations as structure-of-arrays columns.

    Per-client columns are ``(K, n)``; cost-model columns are ``(K, m)``
    (``m = len(lambda_set)``); scalar columns are ``(K,)``.  ``tokens_ratio``
    and ``server_cycles`` / ``msl_bits`` are precomputed at construction —
    they are the tables Stage 2 would otherwise re-derive per call.

    ``batch[i]`` returns the i-th source :class:`SystemConfig`.
    """

    # (K, n) per-client columns
    min_rates: np.ndarray
    encryption_cycles: np.ndarray
    client_max_frequency: np.ndarray
    client_capacitance: np.ndarray
    max_power: np.ndarray
    privacy_weights: np.ndarray
    upload_bits: np.ndarray
    num_tokens: np.ndarray
    tokens_per_sample: np.ndarray
    channel_gains: np.ndarray
    tokens_ratio: np.ndarray
    # (K, m) cost-model columns
    lambda_set: np.ndarray
    server_cycles: np.ndarray
    msl_bits: np.ndarray
    # (K,) scalar columns
    noise_psd: np.ndarray
    tolerance: np.ndarray
    alpha_qkd: np.ndarray
    alpha_msl: np.ndarray
    alpha_t: np.ndarray
    alpha_e: np.ndarray
    b_total: np.ndarray
    fs_total: np.ndarray
    kappa_s: np.ndarray
    #: The source config objects, in column order.
    _configs: Tuple[SystemConfig, ...] = field(repr=False, compare=False)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_configs(cls, configs: Sequence[SystemConfig]) -> "ConfigBatch":
        """Stack ``configs`` (equal ``num_clients`` and λ-set length) once."""
        if not configs:
            raise ValueError("ConfigBatch needs at least one config")
        shapes = {
            (cfg.num_clients, len(cfg.cost_model.lambda_set))
            for cfg in configs
        }
        if len(shapes) != 1:
            raise ValueError(
                "configs must share (num_clients, len(lambda_set)), got "
                f"{sorted(shapes)}"
            )
        k = len(configs)
        (n, m) = next(iter(shapes))
        client_cols = {
            name: np.empty((k, n), dtype=float)
            for name in _CONFIG_CLIENT_COLS if name != "tokens_ratio"
        }
        attr_of = {
            "min_rates": "min_entanglement_rate",
            "encryption_cycles": "encryption_cycles",
            "client_max_frequency": "max_frequency_hz",
            "client_capacitance": "switched_capacitance",
            "max_power": "max_power_w",
            "privacy_weights": "privacy_weight",
            "upload_bits": "upload_bits",
            "num_tokens": "num_tokens",
            "tokens_per_sample": "tokens_per_sample",
        }
        lam_col = np.empty((k, m), dtype=float)
        cycles_col = np.empty((k, m), dtype=float)
        msl_col = np.empty((k, m), dtype=float)
        scalar_cols = {
            name: np.empty(k, dtype=float) for name in _CONFIG_SCALAR_COLS
        }
        for i, cfg in enumerate(configs):
            for j, client in enumerate(cfg.clients):
                for name, attr in attr_of.items():
                    client_cols[name][i, j] = getattr(client, attr)
            client_cols["channel_gains"][i] = cfg.channel_gains
            lam_row = np.asarray(cfg.cost_model.lambda_set, dtype=float)
            lam_col[i] = lam_row
            cycles_col[i] = np.asarray(
                cfg.cost_model.server_cycles_per_sample(lam_row), dtype=float
            )
            msl_col[i] = [cfg.cost_model.msl_bits(v) for v in lam_row]
            scalar_cols["noise_psd"][i] = cfg.noise_psd
            scalar_cols["tolerance"][i] = cfg.tolerance
            scalar_cols["alpha_qkd"][i] = cfg.alpha_qkd
            scalar_cols["alpha_msl"][i] = cfg.alpha_msl
            scalar_cols["alpha_t"][i] = cfg.alpha_t
            scalar_cols["alpha_e"][i] = cfg.alpha_e
            scalar_cols["b_total"][i] = cfg.server.total_bandwidth_hz
            scalar_cols["fs_total"][i] = cfg.server.total_frequency_hz
            scalar_cols["kappa_s"][i] = cfg.server.switched_capacitance
        client_cols["tokens_ratio"] = (
            client_cols["num_tokens"] / client_cols["tokens_per_sample"]
        )
        return cls(
            **client_cols,
            lambda_set=lam_col,
            server_cycles=cycles_col,
            msl_bits=msl_col,
            **scalar_cols,
            _configs=tuple(configs),
        )

    # -- shape / configs ------------------------------------------------------

    def __len__(self) -> int:
        return self.min_rates.shape[0]

    @property
    def num_clients(self) -> int:
        return self.min_rates.shape[1]

    def __getitem__(self, i: int) -> SystemConfig:
        return self._configs[i]

    def __iter__(self) -> Iterator[SystemConfig]:
        return iter(self._configs)

    # -- solver interchange ---------------------------------------------------

    def stage3_constants(self) -> Stage3Constants:
        """The Stage-3 constant block as ``(K, n)`` / ``(K, 1)`` views."""
        return Stage3Constants(
            d_tr=self.upload_bits,
            gains=self.channel_gains,
            noise_psd=self.noise_psd[:, None],
            kappa_c=self.client_capacitance,
            enc_cycles=self.encryption_cycles,
            kappa_s=self.kappa_s[:, None],
            p_max=self.max_power,
            fc_max=self.client_max_frequency,
            b_total=self.b_total[:, None],
            fs_total=self.fs_total[:, None],
            alpha_e=self.alpha_e[:, None],
            alpha_t=self.alpha_t[:, None],
            tolerance=self.tolerance,
        )

    def select(self, indices: Sequence[int]) -> "ConfigBatch":
        """A sub-batch over an index array (columns are gathered copies)."""
        idx = np.asarray(indices, dtype=np.int64)
        cols = {
            name: getattr(self, name)[idx]
            for name in (
                _CONFIG_CLIENT_COLS + _CONFIG_MODEL_COLS + _CONFIG_SCALAR_COLS
            )
        }
        return ConfigBatch(
            **cols, _configs=tuple(self._configs[int(i)] for i in idx)
        )


class SolutionBatch:
    """The results of a columnar solve, in batch order.

    An immutable sequence of the solver's own :class:`QuHEResult` objects:
    ``batch[i]`` is the i-th result itself, so configs whose QKD blocks the
    batched solver deduplicated keep sharing one Stage-1 result
    (``batch[i].stage1 is batch[j].stage1``).
    """

    __slots__ = ("_results",)

    def __init__(self, results: Sequence[QuHEResult]) -> None:
        self._results: Tuple[QuHEResult, ...] = tuple(results)

    def __len__(self) -> int:
        return len(self._results)

    def __getitem__(self, i: int) -> QuHEResult:
        return self._results[i]

    def __iter__(self) -> Iterator[QuHEResult]:
        return iter(self._results)

    @property
    def degraded(self) -> np.ndarray:
        """``(K,)`` bools: which results took the SLSQP degraded path."""
        return np.array([r.degraded for r in self._results], dtype=bool)

    @property
    def outer_iterations(self) -> np.ndarray:
        """``(K,)`` Alg.-4 outer-iteration counts."""
        return np.array(
            [r.outer_iterations for r in self._results], dtype=np.int64
        )
