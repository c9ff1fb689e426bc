"""Run manifest: stage completion flags and artifact checksums.

A stage is marked complete only after its outputs are fully written and
checksummed, so an interrupted run resumes cleanly: completed stages with
intact outputs are skipped, anything else is recomputed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .ioutil import sha256_file, write_json

MANIFEST_NAME = "manifest.json"


@dataclass
class RunManifest:
    output_dir: Path
    config_checksum: str
    tool_version: str
    stages: dict[str, dict[str, str]] = field(default_factory=dict)
    fingerprints: dict[str, str] = field(default_factory=dict)

    @property
    def path(self) -> Path:
        return self.output_dir / MANIFEST_NAME

    def is_complete(self, stage: str) -> bool:
        outputs = self.stages.get(stage)
        if outputs is None:
            return False
        for rel, checksum in outputs.items():
            full = self.output_dir / rel
            if not full.exists() or sha256_file(full) != checksum:
                return False
        return True

    def mark_complete(self, stage: str, outputs: list[Path]) -> None:
        self.stages[stage] = {
            str(path.relative_to(self.output_dir)): sha256_file(path)
            for path in sorted(outputs)
        }
        self.save()

    def invalidate(self, stages: list[str]) -> None:
        """Clear the completion flags of `stages`, saving if any was set."""
        if [name for name in stages if self.stages.pop(name, None) is not None]:
            self.save()

    def save(self) -> None:
        payload = {
            "config_checksum": self.config_checksum,
            "tool_version": self.tool_version,
            "stages": self.stages,
            "fingerprints": self.fingerprints,
        }
        write_json(self.path, payload)

    @classmethod
    def load(cls, output_dir: str | Path) -> "RunManifest | None":
        output_dir = Path(output_dir)
        path = output_dir / MANIFEST_NAME
        if not path.exists():
            return None
        payload = json.loads(path.read_text(encoding="utf-8"))
        return cls(
            output_dir=output_dir,
            config_checksum=payload["config_checksum"],
            tool_version=payload["tool_version"],
            stages=payload.get("stages", {}),
            fingerprints=payload.get("fingerprints", {}),
        )
