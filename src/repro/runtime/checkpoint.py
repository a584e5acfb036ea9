"""Checkpoint/resume for long builds and experiment runs.

Two checkpoint shapes live here, both written with the same crash-safe
discipline as the artifact store (temp file + fsync + ``os.replace``, so a
kill at any instant leaves either the previous checkpoint or the new one —
never a torn file):

* :class:`BuildCheckpoint` — block-granular progress of an
  ``InfluenceIndex`` build/grow.  It persists the partial RR collection as
  a normal index artifact (``<output>.ckpt.npz``) plus a small JSON
  manifest (``<output>.ckpt.json``) binding the partial to its build
  identity.  Resume loads the partial and *grows* it; the sampler's
  counter-based token stream makes the resumed index bit-for-bit identical
  to an uninterrupted build.
* :class:`RunCheckpoint` — stage-granular progress of
  :func:`repro.api.run_experiment`.  Seed selection dominates a run's
  cost, so the checkpoint stores the selection result keyed by a sha256
  digest of the canonicalised spec; resume with a matching digest skips
  straight to estimation.

**Invalidation.**  A checkpoint only resumes the *exact* computation that
wrote it.  A build manifest that disagrees with the requested build on
graph fingerprint, model, engine seed, block size or numpy version raises
:class:`~repro.exceptions.CheckpointError` (resuming would silently break
replay identity); a run manifest with a foreign spec digest likewise.  An
*unreadable* checkpoint — truncated JSON, corrupt artifact, injected
``runtime.checkpoint`` garbage — is not an error: resume reports "nothing
to resume" and the caller rebuilds from scratch, which is always correct.

The write order is artifact **then** manifest, and the artifact's own set
count is authoritative — so a crash between the two writes merely leaves a
manifest that undercounts, and resume still recovers every persisted set.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
from typing import TYPE_CHECKING, Dict, Optional, Union

import numpy as np

from repro.exceptions import CheckpointError, ReproError
from repro.serving import faults
from repro.telemetry.registry import default_registry

if TYPE_CHECKING:  # pragma: no cover - import-time only for annotations
    from repro.algorithms.base import SeedSelectionResult
    from repro.graphs.digraph import CompiledGraph
    from repro.serving.index import InfluenceIndex
    from repro.specs import ExperimentSpec

BUILD_CHECKPOINT_FORMAT = "repro-build-checkpoint"
RUN_CHECKPOINT_FORMAT = "repro-run-checkpoint"
CHECKPOINT_VERSION = 1

#: Default build-checkpoint cadence, in completed sampler blocks.
DEFAULT_CHECKPOINT_EVERY = 8

__all__ = [
    "BUILD_CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "DEFAULT_CHECKPOINT_EVERY",
    "RUN_CHECKPOINT_FORMAT",
    "BuildCheckpoint",
    "RunCheckpoint",
]


def _count_checkpoint_write() -> None:
    default_registry().counter(
        "repro_runtime_checkpoints_written_total",
        "Checkpoint manifests persisted by build/run checkpointing.",
    ).inc()


def _json_default(value: object) -> object:
    """Encode the numpy scalars that leak into seeds/metadata payloads."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise CheckpointError(
        f"checkpoint payload value {value!r} of type "
        f"{type(value).__name__} is not JSON-serialisable"
    )


def _atomic_write_json(path: pathlib.Path, payload: Dict[str, object]) -> None:
    """Crash-safe JSON write: exclusive temp + fsync + rename.

    The ``runtime.checkpoint`` fault site fires per write; a ``corrupt``
    rule makes this function persist garbage *through the same atomic
    rename* — modelling a torn page or bad disk — which resume must detect
    and discard.
    """
    action = faults.trigger(faults.SITE_RUNTIME_CHECKPOINT, context=str(path))
    encoded = json.dumps(
        payload, sort_keys=True, indent=2, default=_json_default
    ).encode("utf-8")
    if action == faults.CORRUPT:
        encoded = encoded[: max(1, len(encoded) // 2)] + b"\x00garbage"
    for attempt in range(100):
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{attempt}.tmp")
        try:
            handle = os.open(
                tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666
            )
        except FileExistsError:
            continue
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(encoded)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        # Make the rename itself durable (same posture as the artifact
        # store): fsync the directory, best effort on exotic filesystems.
        with contextlib.suppress(OSError):
            fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        _count_checkpoint_write()
        return
    raise CheckpointError(
        f"could not create a temporary file next to {path} after 100 attempts"
    )


def _read_manifest(path: pathlib.Path, expected_format: str) -> Optional[Dict[str, object]]:
    """Load a manifest, or ``None`` when there is nothing usable to resume."""
    try:
        with open(path, "rb") as stream:
            manifest = json.loads(stream.read().decode("utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict):
        return None
    if manifest.get("format") != expected_format:
        return None
    if manifest.get("version") != CHECKPOINT_VERSION:
        return None
    return manifest


class BuildCheckpoint:
    """Block-granular checkpointing for an index build targeting ``output``.

    Parameters
    ----------
    output:
        The final artifact path the build will write; the checkpoint lives
        next to it as ``<output>.ckpt.npz`` + ``<output>.ckpt.json``.
    every:
        Save cadence in completed sampler blocks (via :meth:`maybe_save`).
    """

    def __init__(
        self,
        output: Union[str, pathlib.Path],
        *,
        every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint cadence must be >= 1, got {every}")
        self.output = pathlib.Path(output)
        self.artifact_path = self.output.with_name(self.output.name + ".ckpt.npz")
        self.manifest_path = self.output.with_name(self.output.name + ".ckpt.json")
        self.every = int(every)
        self._blocks_since_save = 0
        self.saves = 0

    # ------------------------------------------------------------- writing

    def save(self, index: "InfluenceIndex", target_theta: int) -> None:
        """Persist the partial collection and its manifest (artifact first)."""
        from repro.serving.artifact import save_index_artifact

        save_index_artifact(self.artifact_path, index.collection, index.metadata)
        _atomic_write_json(
            self.manifest_path,
            {
                "format": BUILD_CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "target_theta": int(target_theta),
                "completed_sets": int(index.theta),
                "model": index.model,
                "engine_seed": int(index.engine_seed),
                "block_size": int(index.block_size),
                "graph_fingerprint": index.fingerprint,
                "numpy_version": index.numpy_version,
            },
        )
        self.saves += 1
        self._blocks_since_save = 0

    def maybe_save(self, index: "InfluenceIndex", target_theta: int) -> bool:
        """Count one completed block; save when the cadence is reached."""
        self._blocks_since_save += 1
        if self._blocks_since_save < self.every:
            return False
        self.save(index, target_theta)
        return True

    # ------------------------------------------------------------ resuming

    def resume(
        self,
        compiled: "CompiledGraph",
        *,
        model: str,
        engine_seed: int,
        block_size: int,
    ) -> Optional["InfluenceIndex"]:
        """Reopen the checkpointed partial index, if one is usable.

        Returns the partial :class:`~repro.serving.index.InfluenceIndex`
        (grow it to the target), or ``None`` when no checkpoint exists or
        the persisted bytes are unreadable/corrupt — a fresh build is the
        correct recovery for both.  A *readable* manifest describing a
        different build raises :class:`~repro.exceptions.CheckpointError`.
        """
        from repro.graphs.fingerprint import graph_fingerprint
        from repro.serving.artifact import load_index_artifact
        from repro.serving.index import InfluenceIndex

        manifest = _read_manifest(self.manifest_path, BUILD_CHECKPOINT_FORMAT)
        if manifest is None:
            return None
        expected = {
            "model": model,
            "engine_seed": int(engine_seed),
            "block_size": int(block_size),
            "graph_fingerprint": graph_fingerprint(compiled),
            "numpy_version": np.__version__,
        }
        for key, want in expected.items():
            got = manifest.get(key)
            if got != want:
                raise CheckpointError(
                    f"checkpoint {self.manifest_path} was written by a "
                    f"different build ({key}: checkpoint has {got!r}, this "
                    f"build wants {want!r}); resuming it would break the "
                    "resumed == uninterrupted guarantee — remove the "
                    "checkpoint files or rerun the original build"
                )
        try:
            artifact = load_index_artifact(self.artifact_path, mmap=False)
            return InfluenceIndex.from_artifact(artifact, compiled)
        except ReproError:
            # Torn/corrupt partial (for instance an injected
            # runtime.checkpoint corruption): nothing usable — rebuild.
            return None

    def clear(self) -> None:
        """Remove both checkpoint files (call after the final artifact lands)."""
        with contextlib.suppress(OSError):
            os.unlink(self.artifact_path)
        with contextlib.suppress(OSError):
            os.unlink(self.manifest_path)

    def exists(self) -> bool:
        return self.manifest_path.exists()


class RunCheckpoint:
    """Stage-granular checkpointing for ``run_experiment``.

    The manifest stores the completed selection stage keyed by the spec's
    canonical digest; a resume under the same spec reconstructs the
    :class:`~repro.algorithms.base.SeedSelectionResult` and skips the
    selector entirely.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)

    @staticmethod
    def spec_digest(spec: "ExperimentSpec") -> str:
        """Canonical sha256 of a spec (sorted-key JSON of ``to_dict()``)."""
        import hashlib

        encoded = json.dumps(spec.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()

    def save_selection(
        self, spec_digest: str, selection: "SeedSelectionResult"
    ) -> None:
        """Persist a completed selection stage."""
        scores = selection.scores
        _atomic_write_json(
            self.path,
            {
                "format": RUN_CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "spec_sha256": spec_digest,
                "stage": "selected",
                "seeds": list(selection.seeds),
                "algorithm": selection.algorithm,
                "budget": int(selection.budget),
                "runtime_seconds": float(selection.runtime_seconds),
                "scores": (
                    {str(k): float(v) for k, v in scores.items()}
                    if scores is not None
                    else None
                ),
                "metadata": selection.metadata,
            },
        )

    def load_selection(self, spec_digest: str) -> Optional["SeedSelectionResult"]:
        """Reconstruct the checkpointed selection for ``spec_digest``.

        Returns a :class:`~repro.algorithms.base.SeedSelectionResult`, or
        ``None`` when no usable checkpoint exists.  A readable checkpoint
        written for a *different* spec raises
        :class:`~repro.exceptions.CheckpointError` instead of silently
        serving foreign seeds.
        """
        from repro.algorithms.base import SeedSelectionResult

        manifest = _read_manifest(self.path, RUN_CHECKPOINT_FORMAT)
        if manifest is None:
            return None
        if manifest.get("spec_sha256") != spec_digest:
            raise CheckpointError(
                f"run checkpoint {self.path} belongs to a different spec "
                f"(digest {str(manifest.get('spec_sha256'))[:12]}…, this run "
                f"is {spec_digest[:12]}…); remove it or rerun the original "
                "spec"
            )
        if manifest.get("stage") != "selected":
            return None
        try:
            scores = manifest.get("scores")
            return SeedSelectionResult(
                seeds=list(manifest["seeds"]),
                algorithm=str(manifest["algorithm"]),
                budget=int(manifest["budget"]),
                runtime_seconds=float(manifest["runtime_seconds"]),
                scores=(
                    {k: float(v) for k, v in scores.items()}
                    if isinstance(scores, dict)
                    else None
                ),
                metadata=dict(manifest.get("metadata") or {}),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def clear(self) -> None:
        with contextlib.suppress(OSError):
            os.unlink(self.path)

    def exists(self) -> bool:
        return self.path.exists()
