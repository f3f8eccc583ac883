"""The trainer hook protocol and built-in callbacks.

Trainers (CuLDA and the baselines, via
:class:`~repro.engine.hooks.TelemetryMixin`) fire four hooks, each
with one plain-dict event payload:

- ``on_train_start(event)`` — once, before iteration 0. Keys: corpus
  and machine identity, token/topic counts, planned chunking.
- ``on_sync_end(event)`` — after each iteration's model
  synchronization. Keys: ``iteration``, ``sync_seconds``,
  ``p2p_bytes`` (CuLDA only; baselines without a sync phase skip it).
- ``on_iteration_end(event)`` — after each iteration's bookkeeping.
  Keys always include ``iteration``; simulated-clock trainers add
  ``sim_seconds`` and ``tokens_per_sec``; CuLDA adds ``mean_kd``,
  ``p1_fraction``,
  ``p1_draws``/``p2_draws`` (this iteration's branch counts),
  ``device_busy_fraction`` (device id → busy share of the iteration),
  ``log_likelihood_per_token`` (when evaluated) and a zero-argument
  ``phi`` callable returning the current model snapshot.
- ``on_train_end(event)`` — once. Keys: ``total_sim_seconds``,
  ``wall_seconds``, ``avg_tokens_per_sec``, and ``result`` (the
  trainer's result object; dropped by JSON emission).

Hook firing order per iteration is ``on_sync_end`` then
``on_iteration_end``. Unknown hooks are ignored, so callbacks only
implement what they need.
"""

from __future__ import annotations

import json
import sys
from typing import IO, Iterable

import numpy as np

from repro.telemetry.exporters import event_to_json

__all__ = [
    "TrainerCallback",
    "CallbackList",
    "ProgressLogger",
    "JSONLEmitter",
    "BestPhiCheckpointer",
]


class TrainerCallback:
    """Base class; subclass and override the hooks you care about."""

    def on_train_start(self, event: dict) -> None:  # pragma: no cover
        pass

    def on_sync_end(self, event: dict) -> None:  # pragma: no cover
        pass

    def on_iteration_end(self, event: dict) -> None:  # pragma: no cover
        pass

    def on_train_end(self, event: dict) -> None:  # pragma: no cover
        pass


class CallbackList:
    """An ordered collection of callbacks with a dispatch helper."""

    def __init__(self, callbacks: Iterable[TrainerCallback] | None = None):
        self._callbacks: list[TrainerCallback] = list(callbacks or [])

    def append(self, cb: TrainerCallback) -> None:
        self._callbacks.append(cb)

    def merged(self, extra: Iterable[TrainerCallback] | None) -> "CallbackList":
        """A new list with *extra* callbacks appended (for train(...))."""
        return CallbackList(self._callbacks + list(extra or []))

    def fire(self, hook: str, event: dict) -> None:
        """Call ``cb.<hook>(event)`` on every callback, in order."""
        for cb in self._callbacks:
            fn = getattr(cb, hook, None)
            if fn is not None:
                fn(event)

    def __len__(self) -> int:
        return len(self._callbacks)

    def __iter__(self):
        return iter(self._callbacks)


# ----------------------------------------------------------------------
# Built-ins
# ----------------------------------------------------------------------

class ProgressLogger(TrainerCallback):
    """Prints one line per *every*-th iteration (stderr by default)."""

    def __init__(self, every: int = 1, file: IO[str] | None = None):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.file = file

    def _out(self) -> IO[str]:
        return self.file if self.file is not None else sys.stderr

    def on_train_start(self, event: dict) -> None:
        corpus = event.get("corpus", "?")
        machine = event.get("machine", "?")
        print(f"[train] {corpus} on {machine}", file=self._out())

    def on_iteration_end(self, event: dict) -> None:
        it = int(event.get("iteration", 0))
        if (it + 1) % self.every:
            return
        tps = event.get("tokens_per_sec", 0.0) or 0.0
        parts = [f"[iter {it:>4d}] {tps / 1e6:8.2f}M tok/s"]
        ll = event.get("log_likelihood_per_token")
        if ll is not None:
            parts.append(f"ll/token={ll:.4f}")
        busy = event.get("device_busy_fraction")
        if busy:
            frac = " ".join(
                f"g{d}={f:.0%}" for d, f in sorted(busy.items())
            )
            parts.append(f"busy[{frac}]")
        print("  ".join(parts), file=self._out())

    def on_train_end(self, event: dict) -> None:
        tps = event.get("avg_tokens_per_sec", 0.0) or 0.0
        print(
            f"[done] {tps / 1e6:.2f}M tok/s avg, "
            f"wall {event.get('wall_seconds', 0.0):.2f}s",
            file=self._out(),
        )


class JSONLEmitter(TrainerCallback):
    """Streams every event as one JSON line to a path or file object.

    The file opens lazily on the first event and closes at
    ``on_train_end`` (paths only — caller-owned file objects stay
    open). Non-serializable payload entries (the ``phi`` callable, the
    ``result`` object) are dropped, numpy scalars are coerced.
    """

    def __init__(self, path_or_file: "str | IO[str]"):
        self._path: str | None = None
        self._fh: IO[str] | None = None
        self._owns = False
        if isinstance(path_or_file, str):
            self._path = path_or_file
        else:
            self._fh = path_or_file

    def _write(self, hook: str, event: dict) -> None:
        if self._fh is None:
            assert self._path is not None
            self._fh = open(self._path, "w")
            self._owns = True
        self._fh.write(event_to_json(hook, event) + "\n")
        self._fh.flush()

    def on_train_start(self, event: dict) -> None:
        self._write("train_start", event)

    def on_sync_end(self, event: dict) -> None:
        self._write("sync_end", event)

    def on_iteration_end(self, event: dict) -> None:
        self._write("iteration_end", event)

    def on_train_end(self, event: dict) -> None:
        self._write("train_end", event)
        if self._owns and self._fh is not None:
            self._fh.close()
            self._fh = None
            self._owns = False


class BestPhiCheckpointer(TrainerCallback):
    """Saves the φ snapshot of the best-likelihood iteration to ``.npz``.

    Needs per-iteration likelihoods (``likelihood_every > 0``); if none
    arrive during training, the final model is saved at ``train_end``
    as a fallback so the checkpoint always exists.
    """

    def __init__(self, path: str):
        self.path = path
        self.best_ll = -np.inf
        self.best_iteration: int | None = None
        self.saved = False

    def _save(self, phi: np.ndarray, iteration: int, ll: float) -> None:
        np.savez(
            self.path, phi=phi, iteration=iteration,
            log_likelihood_per_token=ll,
        )
        self.saved = True
        self.best_iteration = iteration

    def on_iteration_end(self, event: dict) -> None:
        ll = event.get("log_likelihood_per_token")
        phi_fn = event.get("phi")
        if ll is None or phi_fn is None or ll <= self.best_ll:
            return
        self.best_ll = float(ll)
        self._save(phi_fn(), int(event.get("iteration", -1)), self.best_ll)

    def on_train_end(self, event: dict) -> None:
        if self.saved:
            return
        result = event.get("result")
        phi = getattr(result, "phi", None)
        if phi is None:
            return
        ll = getattr(result, "final_log_likelihood", None)
        self._save(
            np.asarray(phi),
            int(event.get("iterations", -1) or -1),
            float(ll) if ll is not None else float("nan"),
        )


def read_jsonl(path: str) -> list[dict]:
    """Parse a JSONL event file back into a list of dicts (test helper)."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
