"""Class registry, session planning and evaluation for incremental learning.

A plan starts from a jointly pretrained base session (T0) and then
deals the remaining classes out to nodes over numbered sessions. Nodes
never see data from earlier sessions again (no replay), and evaluation
always runs over every class seen so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path, PurePosixPath

import numpy as np

from .errors import DimensionError, EvaluationError, NumericError, PlanError, RegistryError
from .model import SplitModel, head_logits
from .quant import QuantParams, QuantTensor, backbone_forward
from .tensor import Tensor

__all__ = [
    "RegistryEntry",
    "ClassRegistry",
    "SessionPlan",
    "make_plan",
    "registry_from_plan",
    "Sample",
    "LabeledDataset",
    "node_train_view",
    "precompute_features",
    "predict",
    "accuracy",
    "evaluate",
    "write_manifest",
    "read_manifest",
]


@dataclass(frozen=True)
class RegistryEntry:
    class_id: int
    session: int  # 0 = base session
    node: int | None = None  # owning node; None for base classes


@dataclass(frozen=True)
class ClassRegistry:
    """Every known class, in registration order."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        ids = [e.class_id for e in self.entries]
        if sorted(ids) != list(range(len(ids))):
            raise RegistryError(f"class ids must be dense 0..K-1, got {sorted(ids)}")
        sessions = [e.session for e in self.entries]
        if any(b < a for a, b in zip(sessions, sessions[1:])):
            raise RegistryError("session indices must be nondecreasing in registration order")

    @property
    def num_classes(self) -> int:
        return len(self.entries)

    def seen_through(self, session: int) -> list:
        """Class ids introduced in sessions 0..session, ascending."""
        return sorted(e.class_id for e in self.entries if e.session <= session)

    def introduced_at(self, session: int) -> list:
        return sorted(e.class_id for e in self.entries if e.session == session)


@dataclass(frozen=True)
class SessionPlan:
    """Base classes plus one class assignment map per incremental session."""

    num_nodes: int
    base_classes: tuple
    sessions: tuple  # each entry: dict node id -> tuple of class ids

    def __post_init__(self):
        if self.num_nodes < 1:
            raise PlanError(f"need at least one node, got {self.num_nodes}")
        object.__setattr__(self, "base_classes", tuple(int(c) for c in self.base_classes))
        norm = []
        for assignment in self.sessions:
            norm.append(
                {int(n): tuple(int(c) for c in cs) for n, cs in sorted(assignment.items())}
            )
        object.__setattr__(self, "sessions", tuple(norm))
        seen = set(self.base_classes)
        if len(seen) != len(self.base_classes):
            raise PlanError("duplicate base classes")
        for t, assignment in enumerate(self.sessions, start=1):
            for n, cs in assignment.items():
                if not 0 <= n < self.num_nodes:
                    raise PlanError(f"session {t} assigns classes to unknown node {n}")
                for c in cs:
                    if c in seen:
                        raise PlanError(f"class {c} assigned twice (session {t})")
                    seen.add(c)

    @property
    def num_sessions(self) -> int:
        """Incremental sessions only; the base session is session 0."""
        return len(self.sessions)

    def node_classes(self, session: int, node: int) -> tuple:
        if not 1 <= session <= self.num_sessions:
            raise PlanError(
                f"session {session} out of range 1..{self.num_sessions}"
            )
        if not 0 <= node < self.num_nodes:
            raise PlanError(f"node {node} out of range for {self.num_nodes} nodes")
        return self.sessions[session - 1].get(node, ())

    def session_classes(self, session: int) -> list:
        if not 1 <= session <= self.num_sessions:
            raise PlanError(f"session {session} out of range 1..{self.num_sessions}")
        out = []
        for cs in self.sessions[session - 1].values():
            out.extend(cs)
        return sorted(out)


def make_plan(
    num_classes: int,
    num_nodes: int,
    base_count: int,
    classes_per_session_per_node: int = 1,
) -> SessionPlan:
    """Deal incremental classes to nodes, one session at a time.

    Classes base_count..K-1 are handed out in id order, cycling over
    node ids, classes_per_session_per_node each before a session closes.
    """
    if num_classes < 1 or num_nodes < 1 or classes_per_session_per_node < 1:
        raise PlanError("num_classes, num_nodes and per-node count must be positive")
    if not 0 < base_count <= num_classes:
        raise PlanError(f"base_count {base_count} out of range for {num_classes} classes")
    remaining = num_classes - base_count
    per_session = num_nodes * classes_per_session_per_node
    if remaining % per_session != 0:
        raise PlanError(
            f"{remaining} incremental classes do not divide into sessions of "
            f"{per_session} ({num_nodes} nodes x {classes_per_session_per_node})"
        )
    sessions = []
    next_id = base_count
    for _ in range(remaining // per_session):
        assignment = {n: [] for n in range(num_nodes)}
        for i in range(per_session):
            assignment[i % num_nodes].append(next_id)
            next_id += 1
        sessions.append({n: tuple(cs) for n, cs in assignment.items()})
    return SessionPlan(num_nodes, tuple(range(base_count)), tuple(sessions))


def registry_from_plan(plan: SessionPlan) -> ClassRegistry:
    entries = [RegistryEntry(c, 0, None) for c in plan.base_classes]
    for t, assignment in enumerate(plan.sessions, start=1):
        batch = []
        for n, cs in assignment.items():
            batch.extend(RegistryEntry(c, t, n) for c in cs)
        entries.extend(sorted(batch, key=lambda e: e.class_id))
    return ClassRegistry(tuple(entries))


@dataclass(frozen=True)
class Sample:
    sample_id: int
    class_id: int
    x: QuantTensor


@dataclass(frozen=True)
class LabeledDataset:
    samples: tuple
    split: str  # "train" or "test"

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if self.split not in ("train", "test"):
            raise PlanError(f"split must be train or test, got {self.split!r}")
        ids = [s.sample_id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise PlanError("duplicate sample ids in dataset")

    def __len__(self) -> int:
        return len(self.samples)

    def class_ids(self) -> set:
        return {s.class_id for s in self.samples}

    def of_classes(self, class_ids) -> "LabeledDataset":
        wanted = set(int(c) for c in class_ids)
        return LabeledDataset(
            tuple(s for s in self.samples if s.class_id in wanted), self.split
        )


def node_train_view(
    ds: LabeledDataset, plan: SessionPlan, session: int, node: int
) -> LabeledDataset:
    """Exactly the train samples of the classes this node learns now.

    Earlier sessions' classes never reappear here; an unassigned node
    gets an empty view and sits out local training.
    """
    if ds.split != "train":
        raise PlanError(f"training views come from the train split, got {ds.split!r}")
    return ds.of_classes(plan.node_classes(session, node))


def precompute_features(backbone, ds: LabeledDataset) -> dict:
    """Map sample id -> backbone feature vector, computed once.

    The backbone is frozen, so features never change; training and
    evaluation both read from this cache. The whole split goes through
    one batched ``backbone_forward`` call.
    """
    feats = backbone_forward(backbone, [s.x for s in ds.samples])
    return {s.sample_id: Tensor(f) for s, f in zip(ds.samples, feats)}


def predict(model: SplitModel, samples, seen_classes, features: dict | None = None) -> np.ndarray:
    """Seen-class argmax of each sample's logits, one batched head pass.

    The lowest class id wins ties. Pass a ``precompute_features`` cache
    to skip the integer backbone pass.
    """
    seen = sorted(int(c) for c in seen_classes)
    if not seen:
        raise EvaluationError("no classes to evaluate on")
    if max(seen) >= model.head.num_classes or min(seen) < 0:
        raise EvaluationError(
            f"seen classes {seen} exceed classifier outputs {model.head.num_classes}"
        )
    if not samples:
        return np.zeros(0, np.intp)
    if features is not None:
        feats = np.stack([features[s.sample_id].data for s in samples])
    else:
        feats = backbone_forward(model.backbone, [s.x for s in samples])
    # rows equal the per-sample logits bit for bit
    z = head_logits(model.head, feats).array
    idx = np.array(seen)
    return idx[np.argmax(z[:, idx], axis=1)]  # first max = lowest class id


def accuracy(hits: np.ndarray) -> float:
    """Share of true entries in a boolean hit vector; EvaluationError
    when it is empty."""
    if not hits.size:
        raise EvaluationError("empty test set for the given classes")
    return int(np.count_nonzero(hits)) / hits.size


def evaluate(
    model: SplitModel,
    ds_test: LabeledDataset,
    seen_classes,
    features: dict | None = None,
    sample_classes=None,
) -> float:
    """Accuracy of seen-class argmax over a slice of the test set.

    Prediction is the highest logit among ``seen_classes`` (lowest class
    id wins ties). By default all test samples of seen classes are
    scored; ``sample_classes`` narrows the scored samples without
    narrowing the argmax, which is how forgetting on early classes is
    measured. Pass a ``precompute_features`` cache to skip the integer
    backbone pass.
    """
    seen = sorted(int(c) for c in seen_classes)
    scored = set(seen) if sample_classes is None else set(int(c) for c in sample_classes)
    subset = [s for s in ds_test.samples if s.class_id in scored]
    truth = np.array([s.class_id for s in subset], np.intp)
    return accuracy(predict(model, subset, seen, features) == truth)


# -- manifest I/O -----------------------------------------------------------

_MANIFEST_NAME = "manifest.tsv"
_COLUMNS = ("sample_id", "split", "class_id", "scale", "zero_point", "shape", "file")


def write_manifest(ds_train: LabeledDataset, ds_test: LabeledDataset, out_dir) -> Path:
    """Materialize both splits: one int8 blob per sample plus an index.

    The index is tab-separated with a header row; blob files hold raw
    row-major int8 bytes. Rows are ordered train-then-test by sample id.
    """
    out = Path(out_dir)
    (out / "blobs").mkdir(parents=True, exist_ok=True)
    rows = []
    for ds in (ds_train, ds_test):
        for s in sorted(ds.samples, key=lambda s: s.sample_id):
            rel = f"blobs/{s.sample_id:06d}.bin"
            (out / rel).write_bytes(s.x.data.tobytes())
            rows.append(
                (
                    str(s.sample_id),
                    ds.split,
                    str(s.class_id),
                    repr(s.x.qparams.scale),
                    str(s.x.qparams.zero_point),
                    "x".join(str(d) for d in s.x.shape),
                    rel,
                )
            )
    path = out / _MANIFEST_NAME
    lines = ["\t".join(_COLUMNS)]
    lines.extend("\t".join(r) for r in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_manifest(manifest_dir) -> tuple:
    """Load (train, test) datasets back from a manifest directory."""
    root = Path(manifest_dir)
    path = root / _MANIFEST_NAME
    if not path.is_file():
        raise PlanError(f"no {_MANIFEST_NAME} under {root}")
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as e:
        raise PlanError(f"{path} is not a text manifest ({e.reason})") from None
    if not lines or tuple(lines[0].split("\t")) != _COLUMNS:
        raise PlanError(f"unrecognized manifest header in {path}")
    per_split = {"train": [], "test": []}
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        where = f"{path} line {lineno}"
        cells = ln.split("\t")
        if len(cells) != len(_COLUMNS):
            raise PlanError(f"{where}: expected {len(_COLUMNS)} columns, got {len(cells)}")
        sid, split, cid, scale, zp, shape_s, rel = cells
        if split not in per_split:
            raise PlanError(f"{where}: unknown split {split!r}")
        try:
            sid, cid, zp, scale = int(sid), int(cid), int(zp), float(scale)
            shape = tuple(int(d) for d in shape_s.split("x"))
        except ValueError as e:
            raise PlanError(f"{where}: malformed field ({e})") from None
        # lexical containment: no absolute paths, no climbing out of root
        blob = PurePosixPath(rel)
        if blob.is_absolute() or ".." in blob.parts or not blob.parts:
            raise PlanError(f"{where}: blob path {rel!r} is not inside {root}")
        try:
            raw = np.frombuffer((root / blob).read_bytes(), dtype=np.int8)
        except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
            reason = getattr(e, "strerror", None) or e
            raise PlanError(f"{where}: cannot read blob {rel!r} ({reason})") from None
        try:
            qt = QuantTensor(raw, shape, QuantParams(scale, zp))
        except (DimensionError, NumericError) as e:
            raise PlanError(f"{where}: {e}") from None
        per_split[split].append(Sample(sid, cid, qt))
    return (
        LabeledDataset(tuple(per_split["train"]), "train"),
        LabeledDataset(tuple(per_split["test"]), "test"),
    )
