"""Per-modality feature stream descriptions.

The default specs carry the upstream extractor dimensionalities (CLIP 512,
DistilBERT 768 for OCR/ASR text, audio tagging 128, music tagging 64) and
the training sequence lengths derived from the corpus length distribution
(216 / 64 / 86 / 140 / 18). ``temporal_average`` marks a stream whose
sequence is collapsed to its mean before the model sees it, an option used
for the noisier text-derived streams.
"""

from dataclasses import dataclass, replace

from .errors import ConfigError, config_field, config_fields


@dataclass(frozen=True)
class ModalitySpec:
    name: str
    input_dim: int
    train_max_len: int
    temporal_average: bool = False

    def __post_init__(self):
        for key in ("input_dim", "train_max_len"):
            if getattr(self, key) < 1:
                raise ConfigError(f"modality {self.name!r} field {key!r} must be >= 1, got {getattr(self, key)}")

    @classmethod
    def from_dict(cls, d: dict) -> "ModalitySpec":
        """A spec from config: the name must be a default-schema modality,
        else a ConfigError naming it; sizes are checked when a spec is built."""
        name = config_field(d, "name", str, where="modality")
        if name not in SPEC_BY_NAME:
            raise ConfigError(f"modality {name!r} is not one of {', '.join(SPEC_BY_NAME)}")
        return config_fields(cls, d, f"modality {name!r}", name=name)


DEFAULT_SPECS = (
    ModalitySpec("clip", 512, 216),
    ModalitySpec("ocr", 768, 64),
    ModalitySpec("asr", 768, 86),
    ModalitySpec("audiotag", 128, 140),
    ModalitySpec("musicnet", 64, 18),
)

SPEC_BY_NAME = {s.name: s for s in DEFAULT_SPECS}


def default_modalities(names=None, averaged=()) -> tuple[ModalitySpec, ...]:
    """Default specs restricted to ``names`` (canonical order preserved),
    with ``averaged`` streams flagged for temporal averaging."""
    chosen = DEFAULT_SPECS if names is None else tuple(s for s in DEFAULT_SPECS if s.name in set(names))
    if names is not None:
        unknown = set(names) - {s.name for s in DEFAULT_SPECS}
        if unknown:
            raise ConfigError(f"unknown modalities: {sorted(unknown)}")
    bad = set(averaged) - {s.name for s in chosen}
    if bad:
        raise ConfigError(f"averaged modalities not enabled: {sorted(bad)}")
    return tuple(replace(s, temporal_average=(s.name in set(averaged))) for s in chosen)
