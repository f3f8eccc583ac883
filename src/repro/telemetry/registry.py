"""Metrics primitives: Counter, Gauge, Histogram, and the registry.

The model follows Prometheus' client-library conventions — metrics are
named families, optionally split by label values, collected into a
:class:`MetricsRegistry` — but stays dependency-free and synchronous
(the simulator is single-threaded). Three metric kinds:

- :class:`Counter` — monotonically increasing totals (tokens sampled,
  bytes moved per link, p₁/p₂ branch draws).
- :class:`Gauge` — point-in-time values (current tokens/sec, per-GPU
  busy fraction) plus ``set_max`` for high-water marks (the φ 16-bit
  saturation headroom).
- :class:`Histogram` — distributions (span durations, φ-sync reduce
  step times). Raw observations are retained, so quantiles are exact and
  Prometheus bucket counts are derived at export time.

Exporters live in :mod:`repro.telemetry.exporters`; the emit-if-active
convenience layer used by kernels lives in
:mod:`repro.telemetry.context`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "Sample",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets: geometric decades covering microseconds of
#: simulated kernel time up to tens of seconds of wall clock.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    float(10.0**e) for e in range(-7, 2)
) + (float("inf"),)


class Sample:
    """One exported time-series point: ``name{labels} value``."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str], value: float):
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Sample({self.name!r}, {self.labels!r}, {self.value!r})"


class Metric:
    """Base class: a named family keyed by label-value tuples."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def _key(self, labels: dict[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[n]) for n in self.labelnames)

    def _label_dict(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key))


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> list[Sample]:
        return [
            Sample(self.name, self._label_dict(k), v)
            for k, v in sorted(self._values.items())
        ]


class Gauge(Metric):
    """A point-in-time value that can move in both directions."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[self._key(labels)] = float(value)

    def set_max(self, value: float, **labels: object) -> None:
        """High-water-mark update: keep the larger of old and new."""
        key = self._key(labels)
        cur = self._values.get(key)
        if cur is None or value > cur:
            self._values[key] = float(value)

    def inc(self, value: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> list[Sample]:
        return [
            Sample(self.name, self._label_dict(k), v)
            for k, v in sorted(self._values.items())
        ]


class Histogram(Metric):
    """A distribution of observations.

    Raw observations are retained (runs here are bounded by iteration
    counts, not traffic), so :meth:`quantile` is exact and the
    Prometheus ``_bucket`` series are computed at export time from
    ``buckets``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bs = tuple(sorted(float(b) for b in buckets))
        if not bs or bs[-1] != float("inf"):
            bs = bs + (float("inf"),)
        self.buckets = bs
        self._obs: dict[tuple[str, ...], list[float]] = {}

    def observe(self, value: float, **labels: object) -> None:
        self._obs.setdefault(self._key(labels), []).append(float(value))

    def count(self, **labels: object) -> int:
        return len(self._obs.get(self._key(labels), ()))

    def sum(self, **labels: object) -> float:
        return float(np.sum(self._obs.get(self._key(labels), [])))

    def quantile(self, q: float, **labels: object) -> float:
        """Exact quantile (linear interpolation) of the observations.

        Degenerate histograms are well-defined rather than errors: with
        no observations every quantile is NaN (callers render it as
        "no data", and NaN propagates honestly through arithmetic);
        with a single observation every quantile is that observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        obs = self._obs.get(self._key(labels))
        if not obs:
            return float("nan")
        if len(obs) == 1:
            return float(obs[0])
        return float(np.quantile(obs, q))

    def bucket_counts(self, **labels: object) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs in Prometheus order."""
        obs = np.asarray(self._obs.get(self._key(labels), []), dtype=float)
        return [(le, int((obs <= le).sum())) for le in self.buckets]

    def label_keys(self) -> list[tuple[str, ...]]:
        return sorted(self._obs)

    def samples(self) -> list[Sample]:
        """Summary samples (``_count`` / ``_sum``) for generic listings."""
        out: list[Sample] = []
        for key in sorted(self._obs):
            labels = self._label_dict(key)
            obs = self._obs[key]
            out.append(Sample(self.name + "_count", labels, float(len(obs))))
            out.append(Sample(self.name + "_sum", labels, float(np.sum(obs))))
        return out


class MetricsRegistry:
    """Holds one process/run's metric families, get-or-create style.

    ``registry.counter("x")`` returns the existing family if ``"x"`` is
    already registered (raising if it was registered as a different
    kind or with different label names), else creates it — so emitting
    code never has to pre-declare its metrics.
    """

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, labelnames, **extra) -> Metric:
        m = self._metrics.get(name)
        if m is None:
            m = cls(name, help=help, labelnames=labelnames, **extra)
            self._metrics[name] = m
            return m
        if type(m) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}, "
                f"not {cls.kind}"
            )
        if tuple(labelnames) != m.labelnames:
            raise ValueError(
                f"metric {name!r} registered with labels {m.labelnames}, "
                f"got {tuple(labelnames)}"
            )
        return m

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, tuple(labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, tuple(labelnames), buckets=buckets
        )

    # ------------------------------------------------------------------
    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def top_counters(self, n: int = 10) -> list[Sample]:
        """The *n* largest counter samples (for the profile CLI)."""
        samples = [
            s for m in self if isinstance(m, Counter) for s in m.samples()
        ]
        samples.sort(key=lambda s: -s.value)
        return samples[:n]
