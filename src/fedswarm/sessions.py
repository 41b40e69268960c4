"""Session planning, node data views and evaluation for incremental learning.

A plan starts from a jointly pretrained base session (T0) and then
deals the remaining classes out to nodes over numbered sessions. It is
its four counts (classes, nodes, base classes, classes per node per
session), and every deal is computed from them. Nodes never see data
from earlier sessions again (no replay), and evaluation always runs
over every class seen so far.

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

from .errors import (DimensionError, EvaluationError, NumericError, PlanError, _int_array,
                     _is_int, check_budget, check_fields)
from .model import TrainableHead, head_logits
from .quant import QuantParams, QuantTensor, backbone_forward

__all__ = [
    "SessionPlan",
    "make_plan",
    "LabeledDataset",
    "node_train_view",
    "precompute_features",
    "predict",
    "accuracy",
    "evaluate",
    "write_manifest",
    "read_manifest",
]

# host bytes at most of a split row beyond its frame (its columns, or its
# parsed manifest cells: measured about 600 with its line), and per byte
# of a manifest index as read and split into lines (measured: 9.6 for a
# file of newlines, 29.6 for one of "\u0109\n" lines, the worst found)
_ROW_BYTES, _INDEX_BYTE_COST = 1 << 10, 30


def _split_bytes(rows: int, frame_size: int, index_size: int = 0) -> int:
    """Host bytes at most of ``rows`` frames of ``frame_size`` bytes, and their index."""
    return rows * (_ROW_BYTES + frame_size) + index_size * _INDEX_BYTE_COST


@dataclass(frozen=True)
class SessionPlan:
    """A feasible deal, held as its four counts: classes
    ``0..base_count-1`` are session 0, and each later session deals the
    next ``S = num_nodes * classes_per_session_per_node`` ids in order,
    cycling over the nodes. Every answer is computed from the counts.
    A config's ``plan`` section is one, defaulting to the desk's deal."""

    num_classes: int = 10
    num_nodes: int = 3
    base_count: int = 4
    classes_per_session_per_node: int = 1

    def __post_init__(self):
        check_fields(self, PlanError)  # nothing is coerced: a float or a bool is no count
        k, per = self.num_classes, self.classes_per_session_per_node
        if k < 1:  # worded as a synthetic data spec words it
            raise PlanError(f"num_classes must be positive, got {k}")
        if self.num_nodes < 1 or per < 1:
            raise PlanError("num_classes, num_nodes and per-node count must be positive")
        if not 0 < self.base_count <= k:
            raise PlanError(f"base_count {self.base_count} out of range for {k} classes")
        remaining = k - self.base_count
        if remaining % self._per_session != 0:
            raise PlanError(
                f"{remaining} incremental classes do not divide into sessions of "
                f"{self._per_session} ({self.num_nodes} nodes x {per})"
            )

    @property
    def _per_session(self) -> int:
        return self.num_nodes * self.classes_per_session_per_node

    @property
    def base_classes(self) -> tuple:
        return tuple(range(self.base_count))

    @property
    def num_sessions(self) -> int:
        """Incremental sessions only; the base session is session 0."""
        return (self.num_classes - self.base_count) // self._per_session

    def _first(self, session: int) -> int:
        """The first class id of incremental session ``session``."""
        if not 1 <= session <= self.num_sessions:
            raise PlanError(f"session {session} out of range 1..{self.num_sessions}")
        return self.base_count + (session - 1) * self._per_session

    def node_classes(self, session: int, node: int) -> tuple:
        first = self._first(session)
        if not 0 <= node < self.num_nodes:
            raise PlanError(f"node {node} out of range for {self.num_nodes} nodes")
        return tuple(range(first + node, first + self._per_session, self.num_nodes))

    def session_classes(self, session: int) -> list:
        first = self._first(session)
        return list(range(first, first + self._per_session))

    def seen_through(self, session: int) -> list:
        """Class ids known after sessions 0..session: the base classes
        plus every class dealt since, ascending."""
        if not 0 <= session <= self.num_sessions:
            raise PlanError(f"session {session} out of range 0..{self.num_sessions}")
        return list(range(self.base_count + session * self._per_session))


def make_plan(
    num_classes: int,
    num_nodes: int,
    base_count: int,
    classes_per_session_per_node: int = 1,
) -> SessionPlan:
    """Deal incremental classes to nodes, one session at a time.

    Classes base_count..K-1 are handed out in id order, cycling over
    node ids, classes_per_session_per_node each before a session closes.
    A count that is not an integer (a bool is not one) or a deal that
    does not come out even is a PlanError.
    """
    return SessionPlan(num_classes, num_nodes, base_count, classes_per_session_per_node)


def registry_from_plan(plan: SessionPlan) -> SessionPlan:
    """The plan itself, which answers ``seen_through``.

    Kept only because the frozen benchmark's ``perfbench/workloads.py``
    calls it (lines 127 and 141); ROADMAP item 1a deletes it."""
    return plan


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """One split as columns: row i is sample ``ids[i]`` of class
    ``classes[i]`` with frame ``frames.array[i]``.

    ``ids`` and ``classes`` are int64 as ``errors._int_array`` holds them
    (else a PlanError); ``frames`` is one N x C x H x W ``QuantTensor`` (else
    a DimensionError), so a split has one frame shape and one quantization.
    Sample ids are unique.
    """

    ids: np.ndarray
    classes: np.ndarray
    frames: QuantTensor
    split: str  # "train" or "test"

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise PlanError(f"split must be train or test, got {self.split!r}")
        for name in ("ids", "classes"):
            col = _int_array(getattr(self, name), np.int64, f"LabeledDataset {name}", PlanError)
            object.__setattr__(self, name, col.reshape(-1))
        if not isinstance(self.frames, QuantTensor):
            raise DimensionError(f"frames must be a QuantTensor, got {type(self.frames).__name__}")
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


def node_train_view(
    ds: LabeledDataset, plan: SessionPlan, session: int, node: int
) -> np.ndarray:
    """Row mask of the train samples of the classes this node learns now.

    Earlier sessions' classes never reappear here.
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


def predict(head: TrainableHead, features) -> np.ndarray:
    """Argmax over all of the head's classes of each (B, c_feat) feature
    row's logits, one batched head pass (``head_logits`` checks the rows).
    The lowest class id wins ties."""
    # rows equal the per-sample logits bit for bit
    return np.argmax(head_logits(head, features), axis=1)  # first max = lowest class id


def _head_rows(head: TrainableHead, classes: np.ndarray) -> np.ndarray:
    """Row mask of the classes a head scores, 0 .. num_classes - 1; a row
    of any other id (a manifest may hold one) is never scored."""
    return (classes >= 0) & (classes < head.num_classes)


def accuracy(hits: np.ndarray) -> float:
    """Share of true entries in a boolean hit vector; EvaluationError
    when it is empty."""
    if not hits.size:
        raise EvaluationError("empty test set for the given classes")
    return int(np.count_nonzero(hits)) / hits.size


def evaluate(head: TrainableHead, ds_test: LabeledDataset, features,
             sample_classes=None) -> float:
    """Accuracy of the head's argmax over a slice of the test set, scored
    on the split's feature rows (``precompute_features``, one per sample).

    By default the test samples of the head's classes (``_head_rows``)
    are scored; ``sample_classes`` narrows the scored samples without
    narrowing the argmax, which is how forgetting on early classes is
    measured. A sample class that is not a 64-bit integer, or not one of
    the head's classes, is an EvaluationError naming it.
    """
    features = np.asarray(features)
    if features.shape[:1] != (len(ds_test),):
        raise DimensionError(f"features {features.shape} do not match {len(ds_test)} test rows")
    if sample_classes is None:
        rows = _head_rows(head, ds_test.classes)
    else:
        scored = _int_array(list(sample_classes), np.int64, "sample classes", EvaluationError)
        if (stray := scored[(scored < 0) | (scored >= head.num_classes)]).size:
            raise EvaluationError(f"sample class {stray[0]} is not one of the head's "
                                  f"{head.num_classes} classes")
        rows = np.isin(ds_test.classes, scored)
    return accuracy(predict(head, features[rows]) == ds_test.classes[rows])


# -- file and manifest I/O --------------------------------------------------

_MANIFEST_NAME = "manifest.tsv"
_COLUMNS = ("sample_id", "split", "class_id", "scale", "zero_point", "shape", "file")


def _write_file(path, data) -> None:
    """Write ``data`` (bytes, or a memoryview of bytes) as the whole of
    the file at ``path``, in place. Every file the package writes goes
    through here.

    The file is opened without ``O_TRUNC``, written from the start and
    then cut to the data's length, so an old file's blocks are reused
    and a longer old file is trimmed. A new file gets mode ``0o666`` less
    the umask. A target that is not a regular file (a directory, a
    device such as ``/dev/full``, a FIFO) is refused before anything is
    written; non-blocking, a FIFO without a reader fails to open instead
    of waiting for one. Every failure is an OSError naming ``path``."""
    path = os.fspath(path)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_NONBLOCK, 0o666)
        try:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                raise OSError(errno.EINVAL, "not a regular file", path)
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(data))
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
    write; blobs no row names are left alone. A blob or index path that
    cannot be written, or holds something other than a regular file, is
    an OSError naming that path.
    """
    out = Path(out_dir)
    (out / "blobs").mkdir(parents=True, exist_ok=True)
    blob_dir = os.path.join(os.fspath(out), "blobs")
    rows = []
    for ds in (ds_train, ds_test):
        ids, classes, qp = ds.ids.tolist(), ds.classes.tolist(), ds.frames.qparams
        size = math.prod(ds.frames.shape[1:])
        # flat, since cast refuses a shape with a zero in it (a split of no frames)
        data = memoryview(ds.frames.array.reshape(-1)).cast("B")
        shape = "x".join(str(d) for d in ds.frames.shape[1:])
        for i in sorted(range(len(ids)), key=ids.__getitem__):
            name = f"{ids[i]:06d}.bin"
            _write_file(f"{blob_dir}/{name}", data[i * size : (i + 1) * size])
            rows.append((str(ids[i]), ds.split, str(classes[i]), repr(qp.scale),
                         str(qp.zero_point), shape, f"blobs/{name}"))
    path = out / _MANIFEST_NAME
    lines = ["\t".join(_COLUMNS)]
    lines.extend("\t".join(r) for r in rows)
    _write_file(path, ("\n".join(lines) + "\n").encode())
    return path


def _blob_inside(rel: str) -> bool:
    """Lexical containment of a manifest blob path, as ``PurePosixPath``
    parts: not absolute, no ``..`` part, and some part that is neither
    empty nor ``.``."""
    parts = set(rel.split("/")) - {"", "."}
    return bool(parts) and ".." not in parts and not rel.startswith("/")


def read_manifest(manifest_dir) -> tuple:
    """Load (train, test) datasets back from a manifest directory.

    The index is priced against the host budget by its size before it
    is read, and each row as it is parsed (``_split_bytes``): a PlanError
    names the file, or the line, that takes the price past the budget.
    A sample id may appear once across both splits, and every row of a
    split shares its first row's shape, scale and zero point; a row that
    breaks either rule is a PlanError naming the line. Every row is
    checked before any blob is read; then the blobs are read in line
    order straight into one frame buffer per split, one read each. A blob that is not a regular file
    (a directory, a device, a FIFO) is a PlanError naming the line, and
    one of another length than its shape declares is one too, its
    length taken from its size without reading it. A split without
    rows loads empty."""
    root = Path(manifest_dir)
    path = root / _MANIFEST_NAME
    if not os.path.isfile(path):  # False on any stat error, such as a name too long
        raise PlanError(f"no {_MANIFEST_NAME} under {root}")
    try:
        index = _split_bytes(0, 0, os.path.getsize(path))
        check_budget({"the index as read": index}, PlanError, f"{path}: ")
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as e:
        raise PlanError(f"{path} is not a text manifest ({e.reason})") from None
    except OSError as e:
        raise PlanError(f"cannot read {path}: {e.strerror or e}") from None
    if not lines or tuple(lines[0].split("\t")) != _COLUMNS:
        raise PlanError(f"unrecognized manifest header in {path}")
    cols = {split: ([], []) for split in ("train", "test")}  # sample ids, class ids
    layouts = {}  # split -> (shape, QuantParams, line) of its first row
    blobs = []  # (line, split, row in split, blob path) of every row
    n_bytes = 0  # the rows' price
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
        n_bytes += _ROW_BYTES + size
        check_budget({"the index as read": index, "the rows through this line": n_bytes},
                     PlanError, where + ": ")
        first = id_lines.setdefault(sid, lineno)
        if first != lineno:
            raise PlanError(f"{where}: sample id {sid} repeats line {first}")
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
        qt = QuantTensor(frames[split], layout[split][1])
        out.append(LabeledDataset(ids, classes, qt, split))
    return tuple(out)
