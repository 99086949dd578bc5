"""Versioned on-disk model registry.

A serving deployment wants named, immutable, checksummed model artifacts
rather than loose ``.npz`` paths — publish once, roll forward by
version, resolve ``latest`` at startup, and detect a corrupt or
tampered artifact before it answers traffic.  The registry layers on
:mod:`repro.persistence` (artifacts *are* ``save_estimator`` files) and
keeps everything in plain files, so the layout is rsync-able and
diff-able::

    <root>/
      <model-name>/
        v0001/
          model.npz        # the persisted estimator
          manifest.json    # name, version, sha256, size, estimator name
        v0002/
          ...

``latest`` resolves to an explicit pointer file (``latest.json``,
written atomically by :meth:`ModelRegistry.set_latest`) when one
exists, and to the highest version number otherwise — so a rollout can
promote a candidate or *roll back* to an older version without
deleting the bad artifact.  Loads verify the manifest checksum, go
through :func:`repro.persistence.load_estimator`, and are memoised in
an in-process handle cache so concurrent servers and batchers share
one fitted estimator per (name, version).  Each cached handle is keyed
by the manifest checksum it was loaded under: republishing over the
same directory (or any manifest change) invalidates the memo instead
of serving the stale estimator.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from threading import Lock

from repro.estimators.learned import LearnedEstimator
from repro.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    load_estimator,
    save_estimator,
)

__all__ = ["ModelRegistry", "ModelVersion", "RegistryError",
           "ARTIFACT_FILENAME", "MANIFEST_FILENAME", "LATEST_FILENAME",
           "LATEST"]

ARTIFACT_FILENAME = "model.npz"
MANIFEST_FILENAME = "manifest.json"
#: Per-model pointer file naming the version ``latest`` resolves to.
LATEST_FILENAME = "latest.json"

#: Version alias resolving to the highest published version.
LATEST = "latest"

_VERSION_PREFIX = "v"
_VERSION_DIGITS = 4


class RegistryError(RuntimeError):
    """A registry operation failed (unknown model, bad checksum, ...)."""


@dataclass(frozen=True)
class ModelVersion:
    """One immutable published artifact: a (name, version) pair on disk."""

    name: str
    version: int
    directory: Path

    @property
    def artifact_path(self) -> Path:
        """Path of the persisted-estimator ``.npz`` file."""
        return self.directory / ARTIFACT_FILENAME

    @property
    def manifest_path(self) -> Path:
        """Path of the manifest JSON file."""
        return self.directory / MANIFEST_FILENAME

    def manifest(self) -> dict:
        """The parsed manifest (raises :class:`RegistryError` if damaged)."""
        try:
            return json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(
                f"unreadable manifest {self.manifest_path}: {exc}") from exc

    def label(self) -> str:
        """Human-readable ``name@vNNNN`` identifier."""
        return f"{self.name}@{_format_version(self.version)}"


def _format_version(version: int) -> str:
    return f"{_VERSION_PREFIX}{version:0{_VERSION_DIGITS}d}"


def _parse_version_dir(directory: Path) -> int | None:
    name = directory.name
    if not (directory.is_dir() and name.startswith(_VERSION_PREFIX)):
        return None
    digits = name[len(_VERSION_PREFIX):]
    if not digits.isdigit():
        return None
    return int(digits)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ModelRegistry:
    """Publish, resolve, and load named versioned estimator artifacts."""

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        # (name, version) -> (manifest checksum, estimator).  The
        # checksum is the memo's validity token: a republish over the
        # same directory rewrites the manifest, so comparing checksums
        # on every load is what keeps hot-swapped handles fresh.
        self._handles: dict[tuple[str, int],
                            tuple[str, LearnedEstimator]] = {}
        self._lock = Lock()

    @property
    def root(self) -> Path:
        """The registry's root directory."""
        return self._root

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def publish(self, source: LearnedEstimator | str | Path,
                name: str) -> ModelVersion:
        """Publish an estimator (or an existing artifact file) as the
        next version of ``name``; returns the new :class:`ModelVersion`.

        The artifact and manifest are written into a scratch directory
        first and moved into place with one rename, so a crashed publish
        never leaves a half-written version behind.
        """
        if not name or "/" in name or name.startswith("."):
            raise RegistryError(f"invalid model name {name!r}")
        model_dir = self._root / name
        model_dir.mkdir(parents=True, exist_ok=True)
        version = max(self._version_numbers(name), default=0) + 1
        staging = Path(tempfile.mkdtemp(prefix=".publish-", dir=model_dir))
        try:
            artifact = staging / ARTIFACT_FILENAME
            if isinstance(source, LearnedEstimator):
                save_estimator(source, artifact)
                estimator_name = source.name
            else:
                source = Path(source)
                # Validate before copying: a registry must never host an
                # artifact load_estimator cannot read back.
                estimator_name = load_estimator(source).name
                shutil.copyfile(source, artifact)
            manifest = {
                "name": name,
                "version": version,
                "estimator_name": estimator_name,
                "format_version": FORMAT_VERSION,
                "checksum_sha256": _sha256(artifact),
                "size_bytes": artifact.stat().st_size,
            }
            (staging / MANIFEST_FILENAME).write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
            final = model_dir / _format_version(version)
            staging.rename(final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return ModelVersion(name=name, version=version, directory=final)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def models(self) -> tuple[str, ...]:
        """Published model names, sorted."""
        if not self._root.is_dir():
            return ()
        return tuple(sorted(
            entry.name for entry in self._root.iterdir()
            if entry.is_dir() and not entry.name.startswith(".")
            and self._version_numbers(entry.name)))

    def versions(self, name: str) -> tuple[int, ...]:
        """Published version numbers of ``name``, ascending."""
        numbers = self._version_numbers(name)
        if not numbers:
            raise RegistryError(
                f"no model named {name!r} in registry {self._root}")
        return tuple(numbers)

    def resolve(self, name: str,
                version: int | str = LATEST) -> ModelVersion:
        """Resolve ``(name, version)`` to a concrete :class:`ModelVersion`.

        ``version`` may be an integer, a ``vNNNN`` string, or the alias
        ``"latest"``: the version the model's ``latest.json`` pointer
        names (see :meth:`set_latest`), or the highest published
        version when no pointer has ever been set.
        """
        numbers = self.versions(name)
        if version == LATEST:
            pinned = self._read_latest_pointer(name)
            if pinned is not None and pinned in numbers:
                number = pinned
            else:
                number = numbers[-1]
        else:
            if isinstance(version, str):
                stripped = version.lstrip(_VERSION_PREFIX)
                if not stripped.isdigit():
                    raise RegistryError(
                        f"invalid version {version!r} for model {name!r}")
                number = int(stripped)
            else:
                number = int(version)
            if number not in numbers:
                raise RegistryError(
                    f"model {name!r} has no version {number} "
                    f"(published: {list(numbers)})")
        return ModelVersion(
            name=name, version=number,
            directory=self._root / name / _format_version(number))

    def set_latest(self, name: str, version: int | str) -> ModelVersion:
        """Point ``latest`` at a specific published version of ``name``.

        This is the registry half of a rollout: *promote* points the
        alias at the freshly published candidate, *rollback* pins it
        back to the baseline so a published-but-bad higher version is
        never served again by ``resolve(name)``.  The pointer file is
        written next to the version directories with a tmp-file +
        ``os.replace`` so a concurrent reader sees the old pointer or
        the new one, never a torn write.
        """
        resolved = self.resolve(name, version)
        pointer = {"name": name, "version": resolved.version}
        target = self._root / name / LATEST_FILENAME
        scratch = target.with_suffix(".json.tmp")
        scratch.write_text(json.dumps(pointer, sort_keys=True) + "\n",
                           encoding="utf-8")
        scratch.replace(target)
        return resolved

    def _read_latest_pointer(self, name: str) -> int | None:
        """The pinned ``latest`` version, or ``None`` without a pointer.

        A damaged pointer file degrades to the highest-version default
        rather than taking the model offline.
        """
        pointer_path = self._root / name / LATEST_FILENAME
        try:
            payload = json.loads(pointer_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        version = payload.get("version") if isinstance(payload, dict) \
            else None
        return version if isinstance(version, int) else None

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, name: str, version: int | str = LATEST,
             verify: bool = True) -> LearnedEstimator:
        """Load (and memoise) the estimator behind ``(name, version)``.

        The first load per (name, version) verifies the artifact's
        sha256 against the manifest (skippable with ``verify=False``)
        and goes through :func:`repro.persistence.load_estimator`; later
        loads return the cached in-process handle.  Every load re-reads
        the (small JSON) manifest and compares its checksum against the
        one the cached handle was loaded under — if the version was
        republished in place, the stale handle is dropped and the new
        artifact loaded, so long-lived servers hot-swap correctly.
        """
        resolved = self.resolve(name, version)
        key = (resolved.name, resolved.version)
        expected = resolved.manifest().get("checksum_sha256")
        with self._lock:
            cached = self._handles.get(key)
        # Deliberately non-atomic check-then-act: holding _lock across
        # the artifact load would serialize every first-time load behind
        # disk I/O (the exact stall RPR403 exists to catch).  The racy
        # window is benign — concurrent losers load a duplicate, then
        # the last store below wins and every later caller shares it.
        if cached is not None and cached[0] == expected:
            return cached[1]
        if verify:
            self.verify(resolved)
        try:
            estimator = load_estimator(resolved.artifact_path)
        except PersistenceError as exc:
            raise RegistryError(
                f"artifact {resolved.label()} failed to load: {exc}"
            ) from exc
        with self._lock:
            # Concurrent loaders of the same manifest loaded identical
            # artifacts, so whichever store wins is interchangeable;
            # a racing *republish* wins over both on its next load via
            # the checksum comparison above.
            current = self._handles.get(key)
            if current is not None and current[0] == expected:
                return current[1]
            self._handles[key] = (expected, estimator)
        return estimator

    def verify(self, resolved: ModelVersion) -> None:
        """Check the artifact's checksum against its manifest.

        Raises :class:`RegistryError` on a missing artifact or a digest
        mismatch (bit rot, tampering, a partial copy).
        """
        manifest = resolved.manifest()
        if not resolved.artifact_path.is_file():
            raise RegistryError(
                f"artifact file missing for {resolved.label()}: "
                f"{resolved.artifact_path}")
        actual = _sha256(resolved.artifact_path)
        expected = manifest.get("checksum_sha256")
        if actual != expected:
            raise RegistryError(
                f"checksum mismatch for {resolved.label()}: manifest says "
                f"{expected}, artifact hashes to {actual}")

    def evict(self, name: str | None = None) -> None:
        """Drop cached handles (all of them, or one model's versions)."""
        with self._lock:
            if name is None:
                self._handles.clear()
            else:
                for key in [k for k in self._handles if k[0] == name]:
                    del self._handles[key]

    # ------------------------------------------------------------------

    def _version_numbers(self, name: str) -> list[int]:
        model_dir = self._root / name
        if not model_dir.is_dir():
            return []
        numbers = []
        for entry in model_dir.iterdir():
            number = _parse_version_dir(entry)
            if number is not None:
                numbers.append(number)
        return sorted(numbers)
