"""Class registry, session planning and evaluation for incremental learning.

A plan starts from a jointly pretrained base session (T0) and then
deals the remaining classes out to nodes over numbered sessions. Nodes
never see data from earlier sessions again (no replay), and evaluation
always runs over every class seen so far.

A split is columnar: one array of sample ids, one of classes and one
N x C x H x W int8 tensor of frames under one quantization. Its
features are one (N, feature_dim) array aligned with those rows, and
node views, pools and scored subsets are row masks by class.
"""

from __future__ import annotations

import errno
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, EvaluationError, NumericError, PlanError, RegistryError, _is_int
from .model import TrainableHead, head_logits
from .quant import QuantParams, QuantTensor, backbone_forward

__all__ = [
    "RegistryEntry",
    "ClassRegistry",
    "SessionPlan",
    "make_plan",
    "registry_from_plan",
    "LabeledDataset",
    "node_train_view",
    "precompute_features",
    "predict",
    "accuracy",
    "evaluate",
    "write_manifest",
    "read_manifest",
]

# int8 bytes and samples a run's data may hold, train plus test:
# ``read_manifest`` checks a manifest's rows against them, ``harness`` a
# synthetic config. Samples are capped apart from bytes because each one
# holds an id, a class and a feature row beyond its int8 payload.
MAX_DATA_BYTES = 1 << 27
MAX_SAMPLES = 1 << 18


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


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """One split as columns: row i is sample ``ids[i]`` of class
    ``classes[i]`` with frame ``frames.array[i]``.

    ``ids`` and ``classes`` are read-only int64 arrays; ``frames`` is one
    N x C x H x W ``QuantTensor``, so a split has one frame shape and one
    quantization. Sample ids are unique within a split.
    """

    ids: np.ndarray
    classes: np.ndarray
    frames: QuantTensor
    split: str  # "train" or "test"

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise PlanError(f"split must be train or test, got {self.split!r}")
        for name in ("ids", "classes"):
            col = np.array(getattr(self, name), np.int64).reshape(-1)
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if len(self.frames.shape) != 4:
            raise DimensionError(f"frames must be N x C x H x W, got {self.frames.shape}")
        if not len(self.ids) == len(self.classes) == self.frames.shape[0]:
            raise DimensionError(
                f"columns of unequal length: {len(self.ids)} ids, "
                f"{len(self.classes)} classes, {self.frames.shape[0]} frames"
            )
        # a set: np.unique and np.sort map about 1 MB of numpy into a run
        if len(set(self.ids.tolist())) != len(self.ids):
            raise PlanError("duplicate sample ids in dataset")

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        same = self.split == other.split and self.frames == other.frames
        same = same and np.array_equal(self.ids, other.ids)
        return same and np.array_equal(self.classes, other.classes)


def node_train_view(
    ds: LabeledDataset, plan: SessionPlan, session: int, node: int
) -> np.ndarray:
    """Row mask of the train samples of the classes this node learns now.

    Earlier sessions' classes never reappear here; an unassigned node
    gets an empty view and sits out local training.
    """
    if ds.split != "train":
        raise PlanError(f"training views come from the train split, got {ds.split!r}")
    return np.isin(ds.classes, plan.node_classes(session, node))


def precompute_features(backbone, ds: LabeledDataset) -> np.ndarray:
    """The split's backbone features, one read-only (N, feature_dim)
    float32 row per sample, computed once.

    The backbone is frozen, so features never change; training and
    evaluation both select rows of this array. The whole split goes
    through one batched ``backbone_forward`` call.
    """
    feats = backbone_forward(backbone, ds.frames)
    feats.flags.writeable = False
    return feats


def predict(head: TrainableHead, features, seen_classes) -> np.ndarray:
    """Seen-class argmax of each (B, c_feat) feature row's logits, one
    batched head pass. The lowest class id wins ties."""
    seen = sorted(int(c) for c in seen_classes)
    if not seen:
        raise EvaluationError("no classes to evaluate on")
    if max(seen) >= head.num_classes or min(seen) < 0:
        raise EvaluationError(
            f"seen classes {seen} exceed classifier outputs {head.num_classes}"
        )
    if np.ndim(features) != 2:
        raise DimensionError(f"features must be (rows, {head.c_feat}), got {np.shape(features)}")
    # rows equal the per-sample logits bit for bit
    z = head_logits(head, features)
    idx = np.array(seen)
    return idx[np.argmax(z[:, idx], axis=1)]  # first max = lowest class id


def accuracy(hits: np.ndarray) -> float:
    """Share of true entries in a boolean hit vector; EvaluationError
    when it is empty."""
    if not hits.size:
        raise EvaluationError("empty test set for the given classes")
    return int(np.count_nonzero(hits)) / hits.size


def evaluate(
    head: TrainableHead,
    ds_test: LabeledDataset,
    seen_classes,
    features,
    sample_classes=None,
) -> float:
    """Accuracy of seen-class argmax over a slice of the test set, scored
    on the split's feature rows (``precompute_features``, one per sample).

    Prediction is the highest logit among ``seen_classes`` (lowest class
    id wins ties). By default all test samples of seen classes are
    scored; ``sample_classes`` narrows the scored samples without
    narrowing the argmax, which is how forgetting on early classes is
    measured.
    """
    features = np.asarray(features)
    if features.shape[:1] != (len(ds_test),):
        raise DimensionError(f"features {features.shape} do not match {len(ds_test)} test rows")
    scored = seen_classes if sample_classes is None else sample_classes
    rows = np.isin(ds_test.classes, [int(c) for c in scored])
    return accuracy(predict(head, features[rows], seen_classes) == ds_test.classes[rows])


# -- manifest I/O -----------------------------------------------------------

_MANIFEST_NAME = "manifest.tsv"
_COLUMNS = ("sample_id", "split", "class_id", "scale", "zero_point", "shape", "file")


def _write_blob(path: str, frame: memoryview) -> None:
    """Write ``frame``'s bytes as the whole of the file at ``path``, in place.

    The file is opened without ``O_TRUNC``, written from the start and
    then cut to the frame's length, so an old blob's blocks are reused
    and a longer old blob is trimmed. A new file gets mode ``0o666`` less
    the umask. A target that is not a regular file (a directory, a
    device, a FIFO) is refused before anything is written; non-blocking,
    a FIFO without a reader fails to open instead of waiting for one.
    Every failure is an OSError naming ``path``."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_NONBLOCK, 0o666)
        try:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                raise OSError(errno.EINVAL, "not a regular file", path)
            view = frame
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(frame))
        finally:
            os.close(fd)
    except OSError as e:
        if e.filename is None:  # os.write, os.ftruncate and os.close name no file
            raise OSError(e.errno, e.strerror, path) from None
        raise


def write_manifest(ds_train: LabeledDataset, ds_test: LabeledDataset, out_dir) -> Path:
    """Materialize both splits: one int8 blob per sample plus an index.

    The index is tab-separated with a header row; blob files hold raw
    row-major int8 bytes. Rows are ordered train-then-test by sample id.
    Writing over an earlier manifest rewrites each blob in place and
    trims a longer old one, so the result is byte-identical to a fresh
    write; blobs no row names are left alone. A blob path that cannot be
    written, or holds something other than a regular file, is an OSError
    naming that path.
    """
    out = Path(out_dir)
    (out / "blobs").mkdir(parents=True, exist_ok=True)
    blob_dir = os.path.join(os.fspath(out), "blobs")
    rows = []
    for ds in (ds_train, ds_test):
        ids, classes, qp = ds.ids.tolist(), ds.classes.tolist(), ds.frames.qparams
        size = math.prod(ds.frames.shape[1:])
        data = memoryview(ds.frames.data).cast("B")  # flat and C-ordered
        shape = "x".join(str(d) for d in ds.frames.shape[1:])
        for i in sorted(range(len(ids)), key=ids.__getitem__):
            name = f"{ids[i]:06d}.bin"
            _write_blob(f"{blob_dir}/{name}", data[i * size : (i + 1) * size])
            rows.append((str(ids[i]), ds.split, str(classes[i]), repr(qp.scale),
                         str(qp.zero_point), shape, f"blobs/{name}"))
    path = out / _MANIFEST_NAME
    lines = ["\t".join(_COLUMNS)]
    lines.extend("\t".join(r) for r in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def _blob_inside(rel: str) -> bool:
    """Lexical containment of a manifest blob path, as ``PurePosixPath``
    parts: not absolute, no ``..`` part, and some part that is neither
    empty nor ``.``."""
    parts = set(rel.split("/")) - {"", "."}
    return bool(parts) and ".." not in parts and not rel.startswith("/")


def read_manifest(manifest_dir) -> tuple:
    """Load (train, test) datasets back from a manifest directory.

    A sample id may appear once across both splits, and every row of a
    split shares the split's first row's shape, scale and zero point. A
    row that breaks either rule, and rows declaring more than
    ``MAX_DATA_BYTES`` int8 bytes or ``MAX_SAMPLES`` samples in all, are
    a PlanError naming the line. Every row is checked before any blob is
    read; then the blobs are read in line order straight into one frame
    buffer per split, one read each. A blob that is not a regular file
    (a directory, a device, a FIFO) is a PlanError naming the line, and
    one of another length than its shape declares is one too, its
    length taken from its size without reading it. A split without
    rows loads empty."""
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
    cols = {split: ([], []) for split in ("train", "test")}  # sample ids, class ids
    layouts = {}  # split -> (shape, QuantParams, line) of its first row
    blobs = []  # (line, split, row in split, blob path) of every row
    n_bytes = 0
    id_lines = {}  # sample id -> the line that declared it
    shapes = {}  # shape cell -> (shape, int8 bytes)
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        where = f"{path} line {lineno}"
        cells = ln.split("\t")
        if len(cells) != len(_COLUMNS):
            raise PlanError(f"{where}: expected {len(_COLUMNS)} columns, got {len(cells)}")
        sid, split, cid, scale, zp, shape_s, rel = cells
        if split not in cols:
            raise PlanError(f"{where}: unknown split {split!r}")
        try:
            sid, cid, zp, scale = int(sid), int(cid), int(zp), float(scale)
            if shape_s not in shapes:
                shape = tuple(int(d) for d in shape_s.split("x"))
                shapes[shape_s] = shape, math.prod(max(d, 0) for d in shape)
        except ValueError as e:
            raise PlanError(f"{where}: malformed field ({e})") from None
        if not (_is_int(sid) and _is_int(cid)):
            raise PlanError(f"{where}: sample and class ids must be 64-bit integers")
        shape, size = shapes[shape_s]
        n_bytes += size
        if n_bytes > MAX_DATA_BYTES:
            raise PlanError(f"{path}: rows through line {lineno} hold {n_bytes} "
                            f"int8 bytes, over the cap of {MAX_DATA_BYTES}")
        first = id_lines.setdefault(sid, lineno)
        if first != lineno:
            raise PlanError(f"{where}: sample id {sid} repeats line {first}")
        if len(id_lines) > MAX_SAMPLES:
            raise PlanError(f"{path}: rows through line {lineno} hold {len(id_lines)} "
                            f"samples, over the cap of {MAX_SAMPLES}")
        if split not in layouts:
            if len(shape) != 3 or min(shape) < 1:
                raise PlanError(f"{where}: shape {shape} is not C x H x W")
            try:
                layouts[split] = shape, QuantParams(scale, zp), lineno
            except NumericError as e:
                raise PlanError(f"{where}: {e}") from None
        first, qp, first_line = layouts[split]
        if (shape, scale, zp) != (first, qp.scale, qp.zero_point):
            raise PlanError(f"{where}: shape {shape}, scale {scale!r} and zero point {zp} "
                            f"differ from the split's first row, line {first_line}")
        if not _blob_inside(rel):
            raise PlanError(f"{where}: blob path {rel!r} is not inside {root}")
        ids, classes = cols[split]
        blobs.append((lineno, split, len(ids), rel))
        ids.append(sid)
        classes.append(cid)
    # a split without rows has no layout of its own: no frames, unit scale
    layout = {s: layouts.get(s, ((1, 1, 1), QuantParams(1.0), None)) for s in cols}
    frames = {s: np.empty((len(cols[s][0]),) + layout[s][0], np.int8) for s in cols}
    base = os.fspath(root)
    for lineno, split, i, rel in blobs:
        frame = frames[split][i]
        try:
            # non-blocking, so that a FIFO opens at once and is refused below
            fd = os.open(os.path.join(base, rel), os.O_RDONLY | os.O_NONBLOCK)
            try:
                st = os.fstat(fd)
                regular = stat.S_ISREG(st.st_mode)
                got = st.st_size  # a blob of another length is not read
                if regular and got == frame.size:
                    got = os.readv(fd, [frame])
            finally:
                os.close(fd)
        except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
            reason = getattr(e, "strerror", None) or e
            raise PlanError(f"{path} line {lineno}: cannot read blob {rel!r} "
                            f"({reason})") from None
        if not regular:  # a directory, a device (/dev/zero never ends), a FIFO
            raise PlanError(f"{path} line {lineno}: blob {rel!r} is not a regular file")
        if got != frame.size:
            raise PlanError(f"{path} line {lineno}: shape {frame.shape} expects "
                            f"{frame.size} elements, got {got}")
    out = []
    for split, (ids, classes) in cols.items():
        frames[split].flags.writeable = False  # so the QuantTensor shares it
        qt = QuantTensor(frames[split], frames[split].shape, layout[split][1])
        out.append(LabeledDataset(ids, classes, qt, split))
    return tuple(out)
